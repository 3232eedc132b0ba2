//! A blocking client for the serve protocol — used by the CLI's `client`
//! subcommand, the repo benchmark's `serve_mixed` workload, and the tests.

use std::io::Write;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::frame::{
    read_response, DoneStats, ErrorCode, Format, ProtoError, Request, Response, ViewRef,
    DOC_CHANNEL,
};

/// A failure observed by the client.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's byte stream violated the frame protocol.
    Proto(ProtoError),
    /// The server refused the request (admission or draining).
    Busy(String),
    /// The server executed the request and reported a failure.
    Remote {
        /// Wire error category.
        code: ErrorCode,
        /// Server-side detail.
        message: String,
    },
    /// The server sent a frame that makes no sense at this point of the
    /// exchange (or closed mid-response).
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Busy(m) => write!(f, "server busy: {m}"),
            ClientError::Remote { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Unexpected(m) => write!(f, "unexpected server frame: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(io) => ClientError::Io(io),
            other => ClientError::Proto(other),
        }
    }
}

/// A materialized response: the reassembled payload plus the DONE stats.
#[derive(Debug)]
pub struct QueryResult {
    /// XML document bytes (XML format) — empty in tuple mode.
    pub document: Vec<u8>,
    /// Per-stream wire-encoded tuple bytes (tuple format), indexed by
    /// component stream — empty in XML mode.
    pub streams: Vec<Vec<u8>>,
    /// The server's end-of-response summary.
    pub stats: DoneStats,
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    sock: TcpStream,
}

impl Client {
    /// Connect to a serve endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let sock = TcpStream::connect(addr)?;
        // Small request frames must not wait on Nagle behind the server's
        // delayed ACKs; the server disables it on its side too.
        let _ = sock.set_nodelay(true);
        Ok(Client { sock })
    }

    /// Bound every read; `None` blocks forever.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> Result<(), ClientError> {
        self.sock.set_read_timeout(t)?;
        Ok(())
    }

    /// Send an already-typed request frame.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.sock.write_all(&req.encode())?;
        Ok(())
    }

    /// Ship raw bytes — deliberately malformed input for protocol tests.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.sock.write_all(bytes)?;
        Ok(())
    }

    /// Read the next response frame; `Ok(None)` on clean EOF.
    pub fn read(&mut self) -> Result<Option<Response>, ClientError> {
        Ok(read_response(&mut self.sock)?)
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        match self.read()? {
            Some(Response::Pong) => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Submit a query and collect the entire response.
    pub fn query(
        &mut self,
        format: Format,
        view: ViewRef,
        plan: &str,
    ) -> Result<QueryResult, ClientError> {
        self.query_with_xpath(format, view, plan, None)
    }

    /// Submit a query, optionally restricted by an XPath over the virtual
    /// view, and collect the entire response.
    pub fn query_with_xpath(
        &mut self,
        format: Format,
        view: ViewRef,
        plan: &str,
        xpath: Option<&str>,
    ) -> Result<QueryResult, ClientError> {
        self.send(&Request::Query {
            format,
            view,
            plan: plan.into(),
            xpath: xpath.map(String::from),
        })?;
        let mut document = Vec::new();
        let mut streams: Vec<Vec<u8>> = Vec::new();
        loop {
            match self.read()? {
                Some(Response::Chunk { channel, data }) => {
                    if channel == DOC_CHANNEL {
                        document.extend_from_slice(&data);
                    } else {
                        let i = channel as usize;
                        if streams.len() <= i {
                            streams.resize(i + 1, Vec::new());
                        }
                        streams[i].extend_from_slice(&data);
                    }
                }
                Some(Response::Done(stats)) => {
                    return Ok(QueryResult {
                        document,
                        streams,
                        stats,
                    })
                }
                Some(Response::Error { code, message }) => {
                    return Err(ClientError::Remote { code, message })
                }
                Some(Response::Busy { message }) => return Err(ClientError::Busy(message)),
                other => return Err(unexpected(other)),
            }
        }
    }

    /// Materialize a view as XML.
    pub fn materialize(&mut self, view: ViewRef, plan: &str) -> Result<QueryResult, ClientError> {
        self.query(Format::Xml, view, plan)
    }

    /// Run an XPath over the virtual view and collect the result document.
    pub fn query_xpath(
        &mut self,
        view: ViewRef,
        plan: &str,
        xpath: &str,
    ) -> Result<QueryResult, ClientError> {
        self.query_with_xpath(Format::Xml, view, plan, Some(xpath))
    }

    /// Fetch the raw component tuple streams.
    pub fn fetch_tuples(&mut self, view: ViewRef, plan: &str) -> Result<QueryResult, ClientError> {
        self.query(Format::Tuples, view, plan)
    }

    /// Ask the server to abort whatever this connection has in flight.
    pub fn cancel(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Cancel)
    }

    /// Fetch the live telemetry snapshot as a JSON string.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.send(&Request::Stats)?;
        match self.read()? {
            Some(Response::Stats { data }) => String::from_utf8(data)
                .map_err(|e| ClientError::Unexpected(format!("non-utf8 stats payload: {e}"))),
            other => Err(unexpected(other)),
        }
    }

    /// Request a graceful server shutdown; resolves on GOODBYE.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        loop {
            match self.read()? {
                Some(Response::Goodbye) | None => return Ok(()),
                // Stray chunks from an earlier request may still drain.
                Some(Response::Chunk { .. }) | Some(Response::Done(_)) => {}
                other => return Err(unexpected(other)),
            }
        }
    }

    /// Sever the connection abruptly (no protocol goodbye) — what a
    /// crashing client looks like from the server's side.
    pub fn abort(self) {
        let _ = self.sock.shutdown(Shutdown::Both);
    }
}

fn unexpected(resp: Option<Response>) -> ClientError {
    match resp {
        None => ClientError::Unexpected("connection closed mid-exchange".into()),
        Some(r) => ClientError::Unexpected(format!("{r:?}")),
    }
}
