//! The TCP front-end: accept loop, per-connection threads, cancellation
//! wiring, and graceful shutdown.
//!
//! Each connection gets **two** threads: a reader that does nothing but
//! pull frames off the socket, and a handler that executes requests and
//! writes responses. The split is what makes cancellation work — while the
//! handler is deep inside a query, the reader still sees a CANCEL frame or
//! the socket closing and aborts the in-flight producers through the
//! connection's [`CancelRegistry`] immediately. The engine's workers
//! observe the token cooperatively, surface `EngineError::Cancelled`, and
//! release their `ExecGate` permits on the way out.
//!
//! The reader is also the connection's watchdog: a peer that sends part of
//! a frame and then stalls is cut off after [`ServeConfig::read_timeout`]
//! with a typed error frame instead of pinning the handler thread forever.
//! A peer idling *between* frames costs nothing and is allowed to idle.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sr_engine::Server as Engine;
use sr_obs::{lock_recover, Json, MetricsRegistry, Tracer};
use sr_plan::{RecostConfig, Recoster};

use crate::admit::{Admission, AdmitConfig};
use crate::frame::{ErrorCode, Format, ProtoError, Request, Response, ViewRef, MAX_FRAME_LEN};
use crate::pipeline::{
    resolve_plan, resolve_view, resolve_xpath, run_query, CancelRegistry, PipelineError,
    RecostContext, RunStats, ViewCatalog, XPathResolution,
};
use crate::qlog::{QlogRecord, QueryLog};
use crate::stats::{self, ClientStat, StatsSources};

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Admission-control limits.
    pub admit: AdmitConfig,
    /// Simultaneous connections; the next one is greeted with BUSY and
    /// closed.
    pub max_connections: usize,
    /// How long a connection may sit mid-frame without delivering the rest
    /// before it is cut off.
    pub read_timeout: Duration,
    /// Write one JSONL record per request to this file (see
    /// `docs/OBSERVABILITY.md` for the schema). `None` disables logging.
    pub query_log: Option<PathBuf>,
    /// Requests taking at least this many milliseconds get an EXPLAIN
    /// ANALYZE per-node profile and a Chrome trace file attached to their
    /// query-log record. Requires `query_log`. `None` disables capture.
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            admit: AdmitConfig::default(),
            max_connections: 64,
            read_timeout: Duration::from_secs(10),
            query_log: None,
            slow_ms: None,
        }
    }
}

/// Polling granularity for reader timeouts and handler drain checks.
const TICK: Duration = Duration::from_millis(25);

/// What the reader thread observed on the socket.
enum ConnEvent {
    /// A well-formed request frame.
    Request(Request),
    /// The frame stream is malformed; connection must close.
    Proto(ProtoError),
    /// Partial frame, then silence past the read timeout.
    ReadTimeout,
    /// Peer closed (cleanly or not); connection is over.
    Gone,
}

/// Connection registry entry backing the STATS `clients` table.
struct ClientEntry {
    addr: String,
    connected: Instant,
    queries: u64,
}

struct Shared {
    engine: Arc<Engine>,
    catalog: ViewCatalog,
    admission: Arc<Admission>,
    metrics: Arc<MetricsRegistry>,
    draining: AtomicBool,
    active: AtomicUsize,
    next_client: AtomicU64,
    read_timeout: Duration,
    start: Instant,
    max_connections: usize,
    clients: Mutex<BTreeMap<u64, ClientEntry>>,
    request_seq: AtomicU64,
    qlog: Option<QueryLog>,
    slow_ms: Option<u64>,
    /// Learned re-costing state for `greedy` plan requests: per-view plan
    /// cache plus the shared actual-cardinality store the cost oracle
    /// blends over static stats.
    recoster: Recoster,
}

impl Shared {
    /// Build the live STATS snapshot.
    fn stats_json(&self) -> Json {
        let running: std::collections::HashMap<u64, usize> =
            self.admission.running_by_client().into_iter().collect();
        let clients: Vec<ClientStat> = lock_recover(&self.clients)
            .iter()
            .map(|(&id, e)| ClientStat {
                id,
                addr: e.addr.clone(),
                queries: e.queries,
                running: running.get(&id).copied().unwrap_or(0),
                connected_s: e.connected.elapsed().as_secs_f64(),
            })
            .collect();
        stats::build(&StatsSources {
            uptime: self.start.elapsed(),
            draining: self.draining.load(Ordering::SeqCst),
            active_conns: self.active.load(Ordering::SeqCst),
            max_conns: self.max_connections,
            admission: &self.admission,
            metrics: &self.metrics,
            clients,
            qlog: self.qlog.as_ref().map(QueryLog::stat).unwrap_or_default(),
            fragment_cache: self.engine.fragment_cache_info(),
        })
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServeHandle::shutdown`].
pub struct ServeHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl ServeHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admission controller (exposed for tests and metrics).
    pub fn admission(&self) -> &Arc<Admission> {
        &self.shared.admission
    }

    /// The same live STATS snapshot a [`Request::Stats`] frame gets,
    /// built in-process (used by tests and the final shutdown dump).
    pub fn stats_json(&self) -> Json {
        self.shared.stats_json()
    }

    /// Begin a graceful shutdown without waiting: stop accepting, refuse
    /// new queries with BUSY, let in-flight queries finish.
    pub fn begin_shutdown(&self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.admission.drain();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Graceful shutdown: drain in-flight queries, close every
    /// connection, join all threads.
    pub fn shutdown(self) {
        self.begin_shutdown();
        self.wait();
    }

    /// Block until the server stops on its own — i.e. until some client
    /// sends a SHUTDOWN frame (or [`ServeHandle::begin_shutdown`] was
    /// called from another thread) and the drain completes.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        loop {
            let handle = lock_recover(&self.conns).pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

/// Bind and start serving. Returns once the listener is accepting.
pub fn serve(
    engine: Arc<Engine>,
    catalog: ViewCatalog,
    cfg: ServeConfig,
) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let metrics = engine.metrics().clone();
    let qlog = match &cfg.query_log {
        Some(path) => Some(QueryLog::open(path)?),
        None => None,
    };
    let shared = Arc::new(Shared {
        admission: Admission::new(cfg.admit, Arc::clone(&metrics)),
        engine,
        catalog,
        metrics,
        draining: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        next_client: AtomicU64::new(1),
        read_timeout: cfg.read_timeout,
        start: Instant::now(),
        max_connections: cfg.max_connections.max(1),
        clients: Mutex::new(BTreeMap::new()),
        request_seq: AtomicU64::new(0),
        qlog,
        slow_ms: cfg.slow_ms,
        recoster: Recoster::new(RecostConfig::default()),
    });
    let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept = {
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conns);
        let max_connections = cfg.max_connections.max(1);
        std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, shared, conns, max_connections))
            .expect("spawn accept thread")
    };

    Ok(ServeHandle {
        shared,
        addr,
        accept: Some(accept),
        conns,
    })
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    max_connections: usize,
) {
    loop {
        let sock = match listener.accept() {
            Ok((sock, _)) => sock,
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.draining.load(Ordering::SeqCst) {
            // The wake-up connection from begin_shutdown, or a late
            // arrival: either way, greet-and-close.
            let mut sock = sock;
            let _ = sock.write_all(
                &Response::Busy {
                    message: "server is draining".into(),
                }
                .encode(),
            );
            return;
        }
        if shared.active.load(Ordering::SeqCst) >= max_connections {
            shared.metrics.counter("serve.rejected").inc();
            shared.metrics.counter("serve.rejected.max_conns").inc();
            let mut sock = sock;
            let _ = sock.write_all(
                &Response::Busy {
                    message: format!("connection limit {max_connections} reached"),
                }
                .encode(),
            );
            let _ = sock.shutdown(Shutdown::Both);
            continue;
        }
        // Request/response traffic is latency-bound small frames; without
        // this the final frame of a response can sit in the kernel behind
        // Nagle waiting on the peer's delayed ACK (~40 ms per exchange).
        let _ = sock.set_nodelay(true);
        shared.active.fetch_add(1, Ordering::SeqCst);
        let client_id = shared.next_client.fetch_add(1, Ordering::SeqCst);
        lock_recover(&shared.clients).insert(
            client_id,
            ClientEntry {
                addr: sock
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".into()),
                connected: Instant::now(),
                queries: 0,
            },
        );
        let shared2 = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("serve-conn-{client_id}"))
            .spawn(move || {
                handle_connection(sock, shared2, client_id);
            });
        let mut conns = lock_recover(&conns);
        // Join the connections that have ended, so the server holds one
        // handle per open connection rather than one per connection ever.
        let mut i = 0;
        while i < conns.len() {
            if conns[i].is_finished() {
                let _ = conns.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        match spawned {
            Ok(handle) => {
                shared.metrics.counter("serve.connections").inc();
                conns.push(handle);
            }
            Err(_) => {
                // The dropped closure closed the socket; keep accepting.
                lock_recover(&shared.clients).remove(&client_id);
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Reader thread: frame the byte stream, forward parsed requests, watch
/// for disconnects and mid-frame stalls. Owns the connection's cancel
/// authority for everything asynchronous.
fn reader_loop(
    mut sock: TcpStream,
    tx: Sender<ConnEvent>,
    cancels: Arc<CancelRegistry>,
    read_timeout: Duration,
) {
    use std::io::Read;
    let _ = sock.set_read_timeout(Some(TICK));
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 16 * 1024];
    let mut last_progress = Instant::now();
    loop {
        match sock.read(&mut tmp) {
            Ok(0) => {
                cancels.cancel_all();
                let _ = tx.send(ConnEvent::Gone);
                return;
            }
            Ok(n) => {
                last_progress = Instant::now();
                buf.extend_from_slice(&tmp[..n]);
                loop {
                    if buf.len() < 4 {
                        break;
                    }
                    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                    if len == 0 || len > MAX_FRAME_LEN {
                        cancels.cancel_all();
                        let _ =
                            tx.send(ConnEvent::Proto(ProtoError::BadLength { len: len as u64 }));
                        return;
                    }
                    if buf.len() < 4 + len {
                        break;
                    }
                    let opcode = buf[4];
                    let payload = &buf[5..4 + len];
                    match Request::decode(opcode, payload) {
                        Ok(req) => {
                            // CANCEL acts here, not in the handler: the
                            // handler may be mid-query and unable to look.
                            if matches!(req, Request::Cancel) {
                                cancels.cancel_all();
                            }
                            if tx.send(ConnEvent::Request(req)).is_err() {
                                return;
                            }
                        }
                        Err(e) => {
                            cancels.cancel_all();
                            let _ = tx.send(ConnEvent::Proto(e));
                            return;
                        }
                    }
                    buf.drain(..4 + len);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // No bytes this tick. Mid-frame silence is bounded by the
                // read timeout; idling at a frame boundary is free.
                if !buf.is_empty() && last_progress.elapsed() >= read_timeout {
                    cancels.cancel_all();
                    let _ = tx.send(ConnEvent::ReadTimeout);
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                cancels.cancel_all();
                let _ = tx.send(ConnEvent::Gone);
                return;
            }
        }
    }
}

/// Write a frame, treating failure as "client gone".
fn send(sock: &mut TcpStream, resp: &Response) -> bool {
    sock.write_all(&resp.encode()).is_ok()
}

fn handle_connection(sock: TcpStream, shared: Arc<Shared>, client_id: u64) {
    let cancels = Arc::new(CancelRegistry::new());
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = {
        let cancels = Arc::clone(&cancels);
        let read_timeout = shared.read_timeout;
        match sock.try_clone() {
            Ok(read_half) => std::thread::Builder::new()
                .name(format!("serve-read-{client_id}"))
                .spawn(move || reader_loop(read_half, tx, cancels, read_timeout))
                .ok(),
            Err(_) => None,
        }
    };
    if reader.is_some() {
        let mut sock = sock;
        handler_loop(&mut sock, &rx, &shared, &cancels, client_id);
        // Closing both halves kicks the reader out of its read loop.
        let _ = sock.shutdown(Shutdown::Both);
    }
    cancels.cancel_all();
    if let Some(r) = reader {
        let _ = r.join();
    }
    lock_recover(&shared.clients).remove(&client_id);
    shared.active.fetch_sub(1, Ordering::SeqCst);
}

fn handler_loop(
    sock: &mut TcpStream,
    rx: &Receiver<ConnEvent>,
    shared: &Arc<Shared>,
    cancels: &Arc<CancelRegistry>,
    client_id: u64,
) {
    loop {
        match rx.recv_timeout(TICK) {
            Ok(ConnEvent::Request(Request::Ping)) => {
                if !send(sock, &Response::Pong) {
                    return;
                }
            }
            Ok(ConnEvent::Request(Request::Cancel)) => {
                // The reader already fired the tokens; by the time the
                // event reaches us any affected query has unwound, so arm
                // the registry for the next one.
                cancels.reset();
            }
            Ok(ConnEvent::Request(Request::Shutdown)) => {
                shared.draining.store(true, Ordering::SeqCst);
                shared.admission.drain();
                // Unblock the accept loop the same way begin_shutdown does.
                if let Ok(addr) = sock.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                let _ = send(sock, &Response::Goodbye);
                return;
            }
            Ok(ConnEvent::Request(Request::Query {
                format,
                view,
                plan,
                xpath,
            })) => {
                if !handle_query(sock, shared, cancels, client_id, format, view, plan, xpath) {
                    return;
                }
            }
            Ok(ConnEvent::Request(Request::Stats)) => {
                let data = shared.stats_json().render().into_bytes();
                if !send(sock, &Response::Stats { data }) {
                    return;
                }
            }
            Ok(ConnEvent::Proto(e)) => {
                shared.metrics.counter("serve.protocol_errors").inc();
                let _ = send(
                    sock,
                    &Response::Error {
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    },
                );
                return;
            }
            Ok(ConnEvent::ReadTimeout) => {
                shared.metrics.counter("serve.read_timeouts").inc();
                let _ = send(
                    sock,
                    &Response::Error {
                        code: ErrorCode::Timeout,
                        message: format!(
                            "connection read timeout: partial frame stalled > {:?}",
                            shared.read_timeout
                        ),
                    },
                );
                return;
            }
            Ok(ConnEvent::Gone) => return,
            Err(RecvTimeoutError::Timeout) => {
                if shared.draining.load(Ordering::SeqCst) {
                    // Drained and idle: say goodbye and close.
                    let _ = send(sock, &Response::Goodbye);
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Serve one QUERY request end to end: admission, execution, response
/// frames, latency/throughput recording (cumulative + rolling windows),
/// the query-log record, and — for requests crossing `--slow-ms` — the
/// EXPLAIN ANALYZE profile and Chrome trace capture. Returns `false` when
/// the connection is over.
#[allow(clippy::too_many_arguments)]
fn handle_query(
    sock: &mut TcpStream,
    shared: &Arc<Shared>,
    cancels: &Arc<CancelRegistry>,
    client_id: u64,
    format: Format,
    view: ViewRef,
    plan: String,
    xpath: Option<String>,
) -> bool {
    shared.metrics.counter("serve.requests").inc();
    let seq = shared.request_seq.fetch_add(1, Ordering::SeqCst);
    if let Some(e) = lock_recover(&shared.clients).get_mut(&client_id) {
        e.queries += 1;
    }
    let mut record = QlogRecord {
        seq,
        client: client_id,
        view: match &view {
            ViewRef::Named(n) => n.clone(),
            // Inline source is not logged, only its size.
            ViewRef::Rxl(src) => format!("rxl:{}", src.len()),
        },
        plan: plan.clone(),
        xpath: xpath.clone().unwrap_or_default(),
        format,
        outcome: "ok".into(),
        ..QlogRecord::default()
    };

    let admit_started = Instant::now();
    let permit = match shared.admission.admit(client_id) {
        Ok(p) => p,
        Err(rej) => {
            record.queue_ms = ms_since(admit_started);
            record.total_ms = record.queue_ms;
            record.outcome = "busy".into();
            record.error = rej.to_string();
            if let Some(q) = &shared.qlog {
                q.emit(&record);
            }
            return send(
                sock,
                &Response::Busy {
                    message: rej.to_string(),
                },
            );
        }
    };
    record.queue_ms = ms_since(admit_started);

    // When slow capture is armed, every request runs under a fresh tracer;
    // only the slow ones pay for a trace *file* (tail sampling).
    let tracer = shared.slow_ms.map(|_| {
        let t = Arc::new(Tracer::new());
        t.name_current_thread(format!("serve-conn-{client_id}"));
        t
    });
    // The re-coster's feedback key: named views key by name, inline RXL by
    // its full source (a length-based key would alias distinct views).
    let view_key = match &view {
        ViewRef::Named(n) => n.clone(),
        ViewRef::Rxl(src) => format!("rxl:{src}"),
    };
    // An XPath query plans (and feeds back) against the *pruned* tree — a
    // different shape with its own edge set, so it must not share a greedy
    // plan-cache entry with the full view.
    let view_key = match &xpath {
        Some(p) => format!("{view_key}#xpath:{p}"),
        None => view_key,
    };
    let exec_started = Instant::now();
    let outcome = resolve_view(&shared.catalog, shared.engine.database(), &view).and_then(|tree| {
        let resolution = resolve_xpath(tree, xpath.as_deref())?;
        resolution.count(&shared.metrics);
        let tree = match resolution {
            XPathResolution::Full(tree) | XPathResolution::Pruned { tree, .. } => tree,
            XPathResolution::Empty { .. } => {
                // Statically empty document: nothing to plan or run.
                return Ok(RunStats {
                    done: crate::frame::DoneStats {
                        elapsed_us: exec_started.elapsed().as_micros().min(u64::MAX as u128) as u64,
                        ..Default::default()
                    },
                    plan_ms: ms_since(exec_started),
                    ..RunStats::default()
                });
            }
        };
        let recost = RecostContext {
            recoster: &shared.recoster,
            view_key: &view_key,
            engine: &shared.engine,
        };
        let spec = resolve_plan(&tree, &plan, Some(&recost))?;
        run_query(
            &shared.engine,
            &tree,
            format,
            spec,
            cancels,
            sock,
            tracer.as_ref(),
        )
    });
    drop(permit);

    let total_ms = ms_since(exec_started);
    record.total_ms = total_ms;
    let m = &shared.metrics;
    let us = (total_ms * 1e3) as u64;
    m.histogram("serve.request_us").record(us);
    m.windowed_histogram("serve.request_us").record(us);
    let slow = shared.slow_ms.is_some_and(|t| total_ms >= t as f64);
    record.slow = slow;
    if slow {
        m.counter("serve.slow").inc();
    }

    let (alive, sqls) = match outcome {
        Ok(run) => {
            record.streams = run.done.streams;
            record.cache_hit = run.cache_hit;
            record.plan_ms = run.plan_ms;
            record.encode_ms = run.encode_ms;
            record.exec_ms = (total_ms - run.plan_ms - run.encode_ms).max(0.0);
            record.rows = run.done.tuples;
            record.bytes = run.done.bytes;
            m.windowed_counter("serve.rows").add(run.done.tuples);
            m.windowed_counter("serve.bytes").add(run.done.bytes);
            // Close the cost-feedback loop: report each component stream's
            // actual cardinality so a later `greedy` request can re-plan.
            for (sql, &rows) in run.sqls.iter().zip(&run.per_stream_rows) {
                shared.recoster.observe(&view_key, sql, rows);
            }
            m.counter("recost.evictions")
                .set(shared.recoster.evictions());
            (send(sock, &Response::Done(run.done)), run.sqls)
        }
        Err(PipelineError::Typed { code, message }) => {
            if code == ErrorCode::Cancelled {
                m.counter("serve.cancelled").inc();
            }
            record.outcome = code.to_string();
            record.error = message.clone();
            (send(sock, &Response::Error { code, message }), Vec::new())
        }
        Err(PipelineError::ClientGone(e)) => {
            m.counter("serve.cancelled").inc();
            record.outcome = "gone".into();
            record.error = e.to_string();
            (false, Vec::new())
        }
    };

    // Slow capture happens after the response is on the wire, so the extra
    // work (trace render + EXPLAIN ANALYZE re-run) never delays the client.
    if slow {
        if let (Some(qlog), Some(tracer)) = (&shared.qlog, &tracer) {
            let trace_path = qlog.path().with_extension(format!("trace-{seq}.json"));
            if std::fs::write(&trace_path, tracer.to_chrome_json().render()).is_ok() {
                record.trace_file = Some(trace_path.to_string_lossy().into_owned());
            }
            let profiles: Vec<Json> = sqls
                .iter()
                .map(|sql| match shared.engine.explain_analyze(sql) {
                    Ok(a) => Json::obj(vec![
                        ("sql", Json::Str(sql.clone())),
                        ("analysis", a.to_json()),
                    ]),
                    Err(e) => Json::obj(vec![
                        ("sql", Json::Str(sql.clone())),
                        ("error", Json::Str(e.to_string())),
                    ]),
                })
                .collect();
            record.profile = Some(Json::Arr(profiles));
        }
    }
    if let Some(q) = &shared.qlog {
        q.emit(&record);
    }
    if alive {
        cancels.reset();
    }
    alive
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Waits until `done` holds, for at most five seconds.
    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn ended_connections_are_joined_on_the_next_accept() {
        let engine = Arc::new(Engine::new(Arc::new(sr_data::Database::new())));
        let handle = serve(engine, ViewCatalog::new(), ServeConfig::default()).expect("bind");
        let accepted = || {
            handle
                .shared
                .metrics
                .snapshot()
                .counter("serve.connections")
        };
        for n in 1..=50 {
            drop(TcpStream::connect(handle.local_addr()).expect("connect"));
            wait_for("the connection to end", || {
                accepted() == n
                    && handle.shared.active.load(Ordering::SeqCst) == 0
                    && lock_recover(&handle.conns).iter().all(|h| h.is_finished())
            });
        }
        let open = TcpStream::connect(handle.local_addr()).expect("connect");
        wait_for("the last accept", || accepted() == 51);
        assert_eq!(
            lock_recover(&handle.conns).len(),
            1,
            "one connection is open"
        );
        drop(open);
        handle.shutdown();
    }
}
