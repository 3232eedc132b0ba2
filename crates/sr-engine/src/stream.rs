//! The client side of the server contract: a [`TupleStream`] of encoded,
//! sorted chunks, fed by one producer over one channel.

use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use sr_data::{Row, Schema};
use sr_obs::Tracer;

use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::fragment::FragmentCapture;
use crate::wire::{decode_row, CellArena};

/// What one execution produced, shipped once its last chunk is out: the
/// metadata a [`TupleStream`] knows only at end of stream.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StreamSummary {
    pub(crate) row_count: usize,
    pub(crate) byte_size: usize,
    pub(crate) query_time: Duration,
}

/// One message on a stream's bounded channel.
#[derive(Debug)]
pub(crate) enum StreamItem {
    /// An encoded run of rows.
    Chunk(Bytes),
    /// Successful end of stream.
    Done(StreamSummary),
    /// The query failed server-side (including post-hoc timeouts).
    Failed(EngineError),
}

/// A channel already holding `chunks` and the terminal `last` item — what
/// inline execution and a cached fragment hand a stream.
pub(crate) fn queued(chunks: Vec<Bytes>, last: StreamItem) -> Receiver<StreamItem> {
    let (tx, rx) = sync_channel(chunks.len() + 1);
    for c in chunks {
        let _ = tx.send(StreamItem::Chunk(c));
    }
    let _ = tx.send(last);
    rx
}

/// A sorted tuple stream returned by the server.
///
/// The stream hands out whole wire chunks ([`TupleStream::next_chunk`]).
/// Decoding happens lazily on the client, one timed pass per chunk: the
/// tagger binds a chunk's cells into a reusable arena
/// ([`TupleStream::bind_next`]) and never owns a tuple;
/// [`TupleStream::collect_rows`] is the owned-[`Row`] convenience over the
/// same chunks. Either way the per-cell cost is paid on the client,
/// proportional to tuple count × width, and accumulates into
/// [`TupleStream::transfer_time`] — the paper's "bind and transfer"
/// component. Time spent *blocked waiting* for a server worker accumulates
/// separately into [`TupleStream::stall_time`].
///
/// Chunks come from one producer — a worker thread, or chunks queued up
/// front by inline execution or a cached fragment — over one channel. The
/// metadata fields (`row_count`, `byte_size`, `query_time`) are final once
/// the stream has been fully consumed, or when the server set them up
/// front.
#[derive(Debug)]
pub struct TupleStream {
    /// Result schema.
    pub schema: Schema,
    /// Number of encoded rows.
    pub row_count: usize,
    /// Encoded size in bytes.
    pub byte_size: usize,
    /// Server-side time: parse + bind + execute + encode.
    pub query_time: Duration,
    /// Client-side decode ("bind and transfer") time accumulated so far.
    pub transfer_time: Duration,
    /// Time spent blocked waiting on a streaming worker — overlap the
    /// pipeline did *not* hide.
    pub stall_time: Duration,
    /// Rows decoded by the client so far.
    pub rows_decoded: usize,
    /// The producer's channel; `None` once the stream is over.
    rx: Option<Receiver<StreamItem>>,
    /// In-flight fragment-cache capture (cache miss only): chunks are teed
    /// here as they are handed out and committed on a clean final `Done`.
    pub(crate) capture: Option<FragmentCapture>,
    /// Trace sink for this stream's timeline (stall intervals, decode
    /// progress), recording onto the stream's own virtual lane.
    pub(crate) trace: Option<StreamTrace>,
    /// Cancel token shared with the server-side execution feeding this
    /// stream; fired through [`TupleStream::cancel_handle`] and on drop.
    cancel: CancelToken,
}

/// A stream's handle onto a [`Tracer`]: events recorded by whichever
/// thread consumes the stream land on the stream's dedicated lane, so each
/// stream shows up as its own row in the trace viewer.
#[derive(Debug)]
pub(crate) struct StreamTrace {
    tracer: Arc<Tracer>,
    lane: u64,
}

impl TupleStream {
    pub(crate) fn new(
        schema: Schema,
        rx: Receiver<StreamItem>,
        cancel: CancelToken,
    ) -> TupleStream {
        TupleStream {
            schema,
            row_count: 0,
            byte_size: 0,
            query_time: Duration::ZERO,
            transfer_time: Duration::ZERO,
            stall_time: Duration::ZERO,
            rows_decoded: 0,
            rx: Some(rx),
            capture: None,
            trace: None,
            cancel,
        }
    }

    pub(crate) fn set_summary(&mut self, sum: &StreamSummary) {
        self.row_count = sum.row_count;
        self.byte_size = sum.byte_size;
        self.query_time = sum.query_time;
    }

    /// Attach the stream to a tracer: a named virtual lane
    /// (`stream <label>`) is allocated and subsequent stall intervals and
    /// decode-progress counters are recorded onto it.
    pub fn set_trace(&mut self, tracer: &Arc<Tracer>, label: &str) {
        let lane = tracer.lane(format!("stream {label}"));
        self.trace = Some(StreamTrace {
            tracer: Arc::clone(tracer),
            lane,
        });
    }

    /// A clone of the stream's cancel token, detachable from the stream
    /// itself. A serving front-end hands the stream to the tagger but must
    /// still be able to abort the producer when its client disconnects:
    /// the worker stops at its next per-chunk check and the stream's next
    /// blocking read surfaces [`EngineError::Cancelled`]. Dropping the
    /// stream cancels implicitly.
    pub fn cancel_handle(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The next wire chunk — a whole number of encoded rows — or `None` at
    /// end of stream. Blocks on the server worker when none is ready (that
    /// wait is [`TupleStream::stall_time`]); no byte is decoded.
    pub fn next_chunk(&mut self) -> Result<Option<Bytes>, EngineError> {
        while let Some(rx) = &self.rx {
            if let Some(tr) = &self.trace {
                tr.tracer.begin(tr.lane, "stream.stall", None);
            }
            let wait = Instant::now();
            let item = rx.recv();
            self.stall_time += wait.elapsed();
            if let Some(tr) = &self.trace {
                tr.tracer.end(tr.lane, "stream.stall");
            }
            match item {
                Ok(StreamItem::Chunk(bytes)) => {
                    if let Some(tr) = &self.trace {
                        tr.tracer
                            .counter(tr.lane, "stream.rows_decoded", self.rows_decoded as f64);
                    }
                    if let Some(cap) = &mut self.capture {
                        if !cap.push(&bytes) {
                            self.capture = None;
                        }
                    }
                    if !bytes.is_empty() {
                        return Ok(Some(bytes));
                    }
                }
                Ok(StreamItem::Done(sum)) => self.finish(sum),
                failed => {
                    self.capture = None;
                    self.rx = None;
                    return Err(match failed {
                        Ok(StreamItem::Failed(e)) => e,
                        // The sender is gone without a terminal item. With
                        // panic isolation in place this only happens on a
                        // genuine abort — surface it as a hard truncation,
                        // never as a clean (but silently short) end.
                        _ => EngineError::TruncatedStream {
                            rows_decoded: self.rows_decoded,
                        },
                    });
                }
            }
        }
        Ok(None)
    }

    /// The producer drained cleanly: publish its summary as the stream's
    /// metadata and commit the fragment capture — the captured chunks are
    /// then the complete result.
    fn finish(&mut self, sum: StreamSummary) {
        self.rx = None;
        self.set_summary(&sum);
        if let Some(tr) = &self.trace {
            tr.tracer.instant(tr.lane, "stream.done", None);
        }
        if let Some(cap) = self.capture.take() {
            cap.commit(self.row_count, self.byte_size);
        }
    }

    /// Bind the stream's next rows into `arena`: the rest of the chunk it
    /// holds if there is one, else the next chunk. `false` at end of
    /// stream. The bind pass is what [`TupleStream::transfer_time`] times,
    /// once per pass rather than per row.
    pub fn bind_next(&mut self, arena: &mut CellArena) -> Result<bool, EngineError> {
        loop {
            if arena.exhausted() {
                match self.next_chunk()? {
                    Some(chunk) => arena.load(chunk),
                    None => return Ok(false),
                }
            }
            let start = Instant::now();
            let bound = arena.bind();
            self.transfer_time += start.elapsed();
            let rows = bound?;
            self.rows_decoded += rows;
            if rows > 0 {
                return Ok(true);
            }
        }
    }

    /// Decode every remaining row, a timed pass per chunk.
    pub fn collect_rows(mut self) -> Result<Vec<Row>, EngineError> {
        let mut rows = Vec::with_capacity(self.row_count);
        while let Some(mut chunk) = self.next_chunk()? {
            let start = Instant::now();
            let before = rows.len();
            let end = loop {
                match decode_row(&mut chunk) {
                    Ok(Some(row)) => rows.push(row),
                    end => break end,
                }
            };
            self.transfer_time += start.elapsed();
            self.rows_decoded += rows.len() - before;
            end?;
        }
        Ok(rows)
    }
}

impl Drop for TupleStream {
    /// Dropping a stream cancels its server-side execution: the worker
    /// stops at its next per-chunk check instead of running the query to
    /// completion for a consumer that is no longer there. (For a fully
    /// consumed or queued stream the token fires into nothing.)
    fn drop(&mut self) {
        self.cancel.cancel();
    }
}
