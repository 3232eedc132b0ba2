//! The "target RDBMS": executes SQL strings and answers cost-estimate
//! requests, exposing results as encoded tuple streams.
//!
//! This is the black box the paper's middle-ware talks to. The interface is
//! deliberately string-based: the planner/translator layers above must
//! produce real SQL text, exactly as SilkRoute had to (§3.4). The server:
//!
//! 1. parses and binds the SQL (`query` phase — measured),
//! 2. executes and **encodes** the sorted result into the wire format, and
//! 3. hands back a [`TupleStream`] that the client decodes row by row (the
//!    "bind and transfer" phase of the paper's *total time*).
//!
//! Every execution path — buffered, worker thread, inline, sharded — runs
//! one body, `Exec::run`, and differs only in where the encoded chunks go.

use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sr_data::column::ColumnBatch;
use sr_data::{Database, Row, Schema, Value};
use sr_obs::{MetricsRegistry, TraceSpan, Tracer};

use crate::analyze::ExplainAnalysis;
use crate::cancel::CancelToken;
use crate::cost::{estimate, estimate_with_nodes, Estimate};
use crate::error::EngineError;
use crate::exec::{execute_analyzed, execute_profiled_with, ExecProfile};
use crate::faults::{FaultInjector, FaultPlan, FaultSite};
use crate::lru::{lock_recover, Lru};
use crate::ordering::elide_sorts;
use crate::plan::Plan;
use crate::shard::split_plan;
use crate::sql::binder::bind;
use crate::sql::lexer::{lex, Spanned};
use crate::sql::parser::parse_tokens;
use crate::sql::shape::shape;
use crate::vexec::VecResultSet;
use crate::wire::{decode_row, encode_batch_into, CellArena};

/// Render a caught panic payload for an [`EngineError::Internal`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".into()
    }
}

/// Bump the failure counters a cooperative-cancellation error implies:
/// deadline overruns count as both a timeout and a mid-execution
/// cancellation; explicit cancels only as the latter.
fn note_exec_error(metrics: &MetricsRegistry, e: &EngineError) {
    match e {
        EngineError::Timeout { .. } => {
            metrics.counter("server.timeouts").inc();
            metrics.counter("server.cancelled").inc();
        }
        EngineError::Cancelled => {
            metrics.counter("server.cancelled").inc();
        }
        _ => {}
    }
}

/// Record the `shard.skew` histogram for one fully drained sharded stream:
/// the largest shard's row count relative to a perfectly uniform split,
/// ×1000 fixed point (1000 = no skew, 2000 = the hottest shard carried
/// twice its fair share). Uniform-split quality is exactly what the
/// stats-driven range planner is betting on, so this is its report card.
fn record_shard_skew(metrics: &MetricsRegistry, rows_per_shard: &[u64]) {
    if rows_per_shard.is_empty() {
        return;
    }
    let total: u64 = rows_per_shard.iter().sum();
    let max = rows_per_shard.iter().copied().max().unwrap_or(0);
    let ideal = total.div_ceil(rows_per_shard.len() as u64);
    let ratio = (max * 1000).checked_div(ideal).unwrap_or(1000);
    metrics.histogram("shard.skew").record(ratio);
}

/// Base delay of the transient-retry backoff; attempt `n` sleeps
/// `base × 2^(n-1)`.
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Most rows in one encoded chunk shipped over a stream.
const STREAM_CHUNK_ROWS: usize = 1024;
/// Bounded-channel depth: the producer runs at most this many chunks ahead
/// of the consumer, keeping in-flight memory proportional to chunk size.
const STREAM_CHANNEL_BOUND: usize = 8;

/// Admission control for streaming workers: at most `available_parallelism`
/// plans *execute* concurrently. Without this, submitting a partitioned
/// plan's ten component queries at once puts ten CPU-bound threads in the
/// scheduler's round-robin; on a small host their working sets evict each
/// other from cache and the pipelined path runs slower than the sequential
/// one it replaces. The permit covers only operator execution — never a
/// channel send, which can block on the consumer and would deadlock the
/// k-way merge (the tagger may be waiting on a stream whose worker is
/// queued for a permit).
struct ExecGate {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl ExecGate {
    fn new() -> Arc<ExecGate> {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecGate::with_permits(n)
    }

    /// A gate with an explicit permit count (tests: shard fan-out versus a
    /// starved gate).
    fn with_permits(n: usize) -> Arc<ExecGate> {
        Arc::new(ExecGate {
            permits: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        })
    }

    /// Block until a permit is free; released when the guard drops (also on
    /// panic, so a failed query never wedges the gate). The permit count is
    /// only ever mutated under the lock, so a poisoned mutex (a worker
    /// panicked while its guard was live) still holds a consistent count —
    /// recover it rather than cascading the panic into every later query.
    fn acquire(self: &Arc<Self>) -> ExecPermit {
        let mut n = lock_recover(&self.permits);
        while *n == 0 {
            n = self.cv.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
        *n -= 1;
        ExecPermit {
            gate: Arc::clone(self),
        }
    }
}

struct ExecPermit {
    gate: Arc<ExecGate>,
}

impl Drop for ExecPermit {
    fn drop(&mut self) {
        let mut n = lock_recover(&self.gate.permits);
        *n += 1;
        self.gate.cv.notify_one();
    }
}

/// Per-phase breakdown of one query's server-side time. Summing the fields
/// gives (within clock noise) [`TupleStream::query_time`]; the split is what
/// the paper's Figs. 13–15 need to attribute middle-ware cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryPhases {
    /// SQL text → bound algebra plan.
    pub parse_bind: Duration,
    /// Predicate push-down and plan rewrites.
    pub optimize: Duration,
    /// Operator execution (the dominant server cost).
    pub execute: Duration,
    /// Encoding the sorted result into the wire format.
    pub encode: Duration,
}

impl QueryPhases {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.parse_bind + self.optimize + self.execute + self.encode
    }
}

/// What one execution produced, shipped once its last chunk is out: the
/// metadata a [`TupleStream`] knows only at end of stream.
#[derive(Debug, Default)]
struct StreamSummary {
    row_count: usize,
    byte_size: usize,
    query_time: Duration,
    phases: QueryPhases,
}

impl StreamSummary {
    /// Fold another part's summary into this one (shards of one stream).
    fn add(&mut self, other: &StreamSummary) {
        self.row_count += other.row_count;
        self.byte_size += other.byte_size;
        self.query_time += other.query_time;
        self.phases.parse_bind += other.phases.parse_bind;
        self.phases.optimize += other.phases.optimize;
        self.phases.execute += other.phases.execute;
        self.phases.encode += other.phases.encode;
    }
}

/// One message on a streaming query's bounded channel.
#[derive(Debug)]
enum StreamItem {
    /// An encoded run of rows.
    Chunk(Bytes),
    /// Successful end of stream.
    Done(StreamSummary),
    /// The query failed server-side (including post-hoc timeouts).
    Failed(EngineError),
}

/// A channel already holding `chunks` and the terminal `last` item — what
/// inline execution and a cached fragment hand a stream.
fn queued(chunks: Vec<Bytes>, last: StreamItem) -> Receiver<StreamItem> {
    let (tx, rx) = sync_channel(chunks.len() + 1);
    for c in chunks {
        let _ = tx.send(StreamItem::Chunk(c));
    }
    let _ = tx.send(last);
    rx
}

/// Concatenate encoded chunks into one buffer. The wire format is
/// self-delimiting, so the bytes are those of the whole result encoded at
/// once.
fn concat(chunks: Vec<Bytes>) -> Bytes {
    match <[Bytes; 1]>::try_from(chunks) {
        Ok([one]) => one,
        Err(chunks) => {
            let mut buf = BytesMut::with_capacity(chunks.iter().map(Bytes::len).sum());
            for c in &chunks {
                buf.put_slice(c);
            }
            buf.freeze()
        }
    }
}

/// Where a [`TupleStream`]'s chunks come from.
#[derive(Debug)]
enum StreamSource {
    /// Fully materialized upfront ([`Server::execute_sql`]): one chunk,
    /// handed out once.
    Buffered(Bytes),
    /// Fed by one producer per part — a worker thread, or chunks queued up
    /// front by inline execution or a cached fragment — each over its own
    /// channel, consumed in order. Several parts are key-range shards
    /// whose ranges ascend, so this sequential concatenation *is* the
    /// order-preserving k-way merge: later shards fill their bounded
    /// channels and park while an earlier shard drains. Per-part summaries
    /// are aggregated into the stream's metadata at the final `Done`.
    Parts {
        parts: Vec<Receiver<StreamItem>>,
        /// The part being drained; `parts.len()` once the stream is over.
        idx: usize,
        agg: StreamSummary,
        rows_per_part: Vec<u64>,
        metrics: Arc<MetricsRegistry>,
    },
}

impl StreamSource {
    fn parts(parts: Vec<Receiver<StreamItem>>, metrics: &Arc<MetricsRegistry>) -> StreamSource {
        StreamSource::Parts {
            rows_per_part: Vec::with_capacity(parts.len()),
            parts,
            idx: 0,
            agg: StreamSummary::default(),
            metrics: Arc::clone(metrics),
        }
    }
}

/// A sorted tuple stream returned by the server.
///
/// The stream hands out whole wire chunks ([`TupleStream::next_chunk`]).
/// Decoding happens lazily on the client, one timed pass per chunk: the
/// tagger binds a chunk's cells into a reusable arena
/// ([`TupleStream::bind_next`]) and never owns a tuple;
/// [`TupleStream::next_row`] / [`TupleStream::collect_rows`] are the
/// owned-[`Row`] convenience over the same chunks. Either way the per-cell
/// cost is paid on the client, proportional to tuple count × width, and
/// accumulates into [`TupleStream::transfer_time`] — the paper's "bind and
/// transfer" component. For a streaming query, time spent
/// *blocked waiting* for the server worker accumulates separately into
/// [`TupleStream::stall_time`], and the metadata fields (`row_count`,
/// `byte_size`, `query_time`, `phases`) are only final once the stream has
/// been fully consumed.
#[derive(Debug)]
pub struct TupleStream {
    /// Result schema.
    pub schema: Schema,
    /// Number of encoded rows (streaming: known after full consumption).
    pub row_count: usize,
    /// Encoded size in bytes (streaming: known after full consumption).
    pub byte_size: usize,
    /// Server-side time: parse + bind + execute + encode (streaming: known
    /// after full consumption).
    pub query_time: Duration,
    /// Server-side time split by phase (streaming: known after full
    /// consumption).
    pub phases: QueryPhases,
    /// Client-side decode ("bind and transfer") time accumulated so far.
    pub transfer_time: Duration,
    /// Time spent blocked waiting on the streaming worker — overlap the
    /// pipeline did *not* hide. Always zero for buffered streams.
    pub stall_time: Duration,
    /// Rows decoded by the client so far.
    pub rows_decoded: usize,
    source: StreamSource,
    /// The part of the chunk last pulled by [`TupleStream::next_row`] that
    /// it has not decoded yet.
    current: Bytes,
    /// In-flight fragment-cache capture (streaming cache miss only): chunks
    /// are teed here as they are decoded and committed on a clean `Done`.
    capture: Option<FragmentCapture>,
    /// Trace sink for this stream's timeline (stall intervals, decode
    /// progress), recording onto the stream's own virtual lane.
    trace: Option<StreamTrace>,
    /// Cancel token shared with the server-side execution feeding this
    /// stream; fired by [`TupleStream::cancel`] and on drop.
    cancel: CancelToken,
}

/// A stream's handle onto a [`Tracer`]: events recorded by whichever
/// thread consumes the stream land on the stream's dedicated lane, so each
/// stream shows up as its own row in the trace viewer.
#[derive(Debug)]
struct StreamTrace {
    tracer: Arc<Tracer>,
    lane: u64,
}

impl TupleStream {
    fn new(schema: Schema, source: StreamSource, cancel: CancelToken) -> TupleStream {
        TupleStream {
            schema,
            row_count: 0,
            byte_size: 0,
            query_time: Duration::ZERO,
            phases: QueryPhases::default(),
            transfer_time: Duration::ZERO,
            stall_time: Duration::ZERO,
            rows_decoded: 0,
            source,
            current: Bytes::new(),
            capture: None,
            trace: None,
            cancel,
        }
    }

    fn set_summary(&mut self, sum: &StreamSummary) {
        self.row_count = sum.row_count;
        self.byte_size = sum.byte_size;
        self.query_time = sum.query_time;
        self.phases = sum.phases;
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

    /// Request cooperative cancellation of the server-side execution
    /// feeding this stream: the worker stops at its next per-chunk check
    /// and the stream's next blocking read surfaces
    /// [`EngineError::Cancelled`]. A no-op for buffered streams (execution
    /// already finished) and idempotent everywhere. Dropping the stream
    /// cancels implicitly.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the stream's cancel token, detachable from the stream
    /// itself. A serving front-end hands the stream to the tagger but must
    /// still be able to abort the producer when its client disconnects —
    /// cancelling through this handle is exactly [`TupleStream::cancel`]
    /// from another thread, without holding the stream.
    pub fn cancel_handle(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The next wire chunk — a whole number of encoded rows — or `None` at
    /// end of stream. Blocks on the server worker when none is ready (that
    /// wait is [`TupleStream::stall_time`]); no byte is decoded. Rows
    /// [`TupleStream::next_row`] left undecoded in its chunk come first.
    pub fn next_chunk(&mut self) -> Result<Option<Bytes>, EngineError> {
        if self.current.has_remaining() {
            return Ok(Some(std::mem::take(&mut self.current)));
        }
        loop {
            let rx = match &mut self.source {
                StreamSource::Buffered(data) => {
                    return Ok(Some(std::mem::take(data)).filter(|d| !d.is_empty()));
                }
                StreamSource::Parts { parts, idx, .. } => match parts.get(*idx) {
                    Some(rx) => rx,
                    None => return Ok(None),
                },
            };
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
                Ok(StreamItem::Done(sum)) => self.finish_part(sum),
                failed => {
                    self.capture = None;
                    // Stop the sibling shard workers too: the stream is
                    // dead, their output has no consumer.
                    self.cancel.cancel();
                    if let StreamSource::Parts { parts, idx, .. } = &mut self.source {
                        *idx = parts.len();
                    }
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
    }

    /// One producer drained cleanly: fold its summary into the stream's
    /// metadata and, once the last one has, commit the fragment capture —
    /// the captured chunks are then the complete result.
    fn finish_part(&mut self, sum: StreamSummary) {
        let StreamSource::Parts {
            parts,
            idx,
            agg,
            rows_per_part,
            metrics,
        } = &mut self.source
        else {
            return;
        };
        rows_per_part.push(sum.row_count as u64);
        agg.add(&sum);
        *idx += 1;
        if *idx < parts.len() {
            return;
        }
        if parts.len() > 1 {
            record_shard_skew(metrics, rows_per_part);
        }
        let total = std::mem::take(agg);
        self.set_summary(&total);
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

    /// Decode the next row, or `None` at end of stream.
    pub fn next_row(&mut self) -> Result<Option<Row>, EngineError> {
        if !self.current.has_remaining() {
            match self.next_chunk()? {
                Some(chunk) => self.current = chunk,
                None => return Ok(None),
            }
        }
        let start = Instant::now();
        let row = decode_row(&mut self.current);
        self.transfer_time += start.elapsed();
        if let Ok(Some(_)) = &row {
            self.rows_decoded += 1;
        }
        row
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
    /// completion for a consumer that is no longer there. (For fully
    /// consumed or buffered streams the token fires into nothing.)
    fn drop(&mut self) {
        self.cancel.cancel();
    }
}

/// The database server.
///
/// ```
/// use sr_data::{row, Database, DataType, Schema, Table};
/// use sr_engine::Server;
/// let mut db = Database::new();
/// let mut t = Table::new("T", Schema::of(&[("x", DataType::Int)]));
/// t.insert(row![7i64]).unwrap();
/// db.add_table(t);
/// let server = Server::new(std::sync::Arc::new(db));
/// let stream = server.execute_sql("SELECT t.x AS x FROM T t ORDER BY x").unwrap();
/// assert_eq!(stream.row_count, 1);
/// let est = server.estimate_sql("SELECT t.x AS x FROM T t").unwrap();
/// assert!(est.cardinality >= 1.0);
/// ```
pub struct Server {
    db: Arc<Database>,
    /// Per-query timeout; queries exceeding it report
    /// [`EngineError::Timeout`] (the paper used 5 minutes, §4).
    pub timeout: Option<Duration>,
    metrics: Arc<MetricsRegistry>,
    tracer: Option<Arc<Tracer>>,
    exec_gate: Arc<ExecGate>,
    stream_workers: bool,
    plan_cache_enabled: bool,
    /// Prepared-plan cache: statement shape (see [`crate::sql::shape`]) →
    /// the shape prepared once, so every later statement of the shape —
    /// the same component query, or one with other literals — costs a
    /// lookup, a plan clone and the binding of its literals. Sound while
    /// the database behind `db` is unchanged; [`Server::set_database`] and
    /// [`Server::invalidate_plan_cache`] flush it when the catalog moves.
    plan_cache: Mutex<Lru<Arc<Prepared>>>,
    /// Deterministic fault injector shared by every execution path; `None`
    /// in production (the common case pays one branch per site).
    faults: Option<Arc<FaultInjector>>,
    /// The plan behind [`Self::faults`], kept so sharded execution can give
    /// every shard a *fresh* injector over the same rules — `kind@site#n`
    /// then fires identically in each shard regardless of shard count.
    fault_plan: Option<FaultPlan>,
    /// Max retries of a [`EngineError::Transient`] execution failure.
    transient_retries: u32,
    /// Key-range shards per streaming query (1 = unsharded). Queries whose
    /// plan cannot be sharded safely fall back to one shard silently.
    shards: usize,
    /// Materialized-fragment cache (`None` = disabled): wire-encoded
    /// results of component queries, served back without re-execution.
    /// Shared behind an `Arc` so in-flight captures outlive the borrow of
    /// `self` that created them.
    fragment_cache: Option<Arc<Mutex<FragmentCache>>>,
}

/// A statement prepared once: parse → bind → push-down → estimate → sort
/// elision → schema, with its shape's parameter slots still in the plan.
struct Prepared {
    plan: Plan,
    schema: Schema,
    elided: usize,
    /// Taken before elision, as the estimate endpoint always has.
    estimate: Result<Estimate, EngineError>,
}

/// Entry cap for the prepared-plan cache; on overflow the least-recently
/// used shape is evicted (`cache.evictions` counts them).
const PLAN_CACHE_CAP: usize = 256;

/// Default number of transient-failure retries per query.
const DEFAULT_TRANSIENT_RETRIES: u32 = 2;

/// One cached materialized fragment: the wire-encoded chunks of a component
/// query's full result, plus the stream metadata a warm hit must replay.
#[derive(Debug, Clone)]
struct CachedFragment {
    schema: Schema,
    chunks: Vec<Bytes>,
    row_count: usize,
    byte_size: usize,
}

impl CachedFragment {
    /// Serve the fragment with zero server-side time: as one buffered chunk
    /// (the chunks concatenated), or with streaming semantics — every chunk
    /// plus the terminal summary pre-queued, the exact item sequence (and
    /// bytes) the live streaming path produced when it was captured.
    fn into_stream(self, buffered: bool, metrics: &Arc<MetricsRegistry>) -> TupleStream {
        let sum = StreamSummary {
            row_count: self.row_count,
            byte_size: self.byte_size,
            ..StreamSummary::default()
        };
        if buffered {
            let source = StreamSource::Buffered(concat(self.chunks));
            let mut stream = TupleStream::new(self.schema, source, CancelToken::unbounded());
            stream.set_summary(&sum);
            return stream;
        }
        let rx = queued(self.chunks, StreamItem::Done(sum));
        let source = StreamSource::parts(vec![rx], metrics);
        TupleStream::new(self.schema, source, CancelToken::unbounded())
    }
}

/// The materialized-fragment cache: an [`Lru`] held to a byte budget,
/// holding encoded results instead of plans. Keyed by shard spec + SQL —
/// the inputs that determine the produced chunk sequence. Invalidated
/// together with the plan cache ([`Server::set_database`] /
/// [`Server::invalidate_plan_cache`]): a fragment is only sound while the
/// database is unchanged.
#[derive(Debug)]
struct FragmentCache {
    map: Lru<CachedFragment>,
    budget: usize,
    bytes: usize,
}

/// A point-in-time view of the fragment cache for STATS exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentCacheInfo {
    /// Configured byte budget.
    pub budget: usize,
    /// Bytes currently held.
    pub bytes: usize,
    /// Fragments currently held.
    pub entries: usize,
}

impl FragmentCache {
    fn new(budget: usize) -> FragmentCache {
        FragmentCache {
            map: Lru::new(usize::MAX),
            budget,
            bytes: 0,
        }
    }

    /// Insert a fully captured fragment, evicting least-recently-used
    /// entries until it fits. A fragment larger than the whole budget is
    /// dropped outright. Returns the number of evictions.
    fn insert(&mut self, key: String, frag: CachedFragment) -> u64 {
        if frag.byte_size > self.budget {
            return 0;
        }
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.byte_size;
        }
        let mut evictions = 0;
        while self.bytes + frag.byte_size > self.budget {
            let Some(gone) = self.map.pop_lru() else {
                break;
            };
            self.bytes -= gone.byte_size;
            evictions += 1;
        }
        self.bytes += frag.byte_size;
        self.map.insert(key, frag);
        evictions
    }

    fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }
}

/// In-flight capture of a streaming query's chunks for the fragment cache.
/// Attached to a [`TupleStream`] on a cache miss; every chunk the consumer
/// decodes is also appended here, and only the clean terminal `Done`
/// commits the fragment. A `Failed` item, a decode error, or dropping the
/// stream mid-way discards the capture — a fault or cancellation can never
/// cache a partial fragment.
#[derive(Debug)]
struct FragmentCapture {
    cache: Arc<Mutex<FragmentCache>>,
    metrics: Arc<MetricsRegistry>,
    key: String,
    schema: Schema,
    chunks: Vec<Bytes>,
    size: usize,
    budget: usize,
}

impl FragmentCapture {
    /// Append one chunk; `false` once the capture outgrew the whole budget
    /// (the caller then drops the capture instead of buffering on).
    fn push(&mut self, bytes: &Bytes) -> bool {
        self.size += bytes.len();
        if self.size > self.budget {
            return false;
        }
        self.chunks.push(bytes.clone());
        true
    }

    /// Commit the completed fragment under its key.
    fn commit(self, row_count: usize, byte_size: usize) {
        let mut cache = lock_recover(&self.cache);
        let evicted = cache.insert(
            self.key,
            CachedFragment {
                schema: self.schema,
                chunks: self.chunks,
                row_count,
                byte_size,
            },
        );
        self.metrics
            .counter("cache.fragment.evictions")
            .add(evicted);
        self.metrics
            .counter("cache.fragment.bytes")
            .set(cache.bytes as u64);
    }
}

impl Server {
    /// A server over a database, with no timeout.
    pub fn new(db: Arc<Database>) -> Self {
        // A worker thread can only overlap execution with the consumer's
        // tagging when there is a second core to run on. On a single-CPU
        // host the handoff buys nothing and costs context switches and
        // cache interleaving, so streaming queries execute inline there.
        let parallel = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            > 1;
        Server {
            db,
            timeout: None,
            metrics: Arc::new(MetricsRegistry::new()),
            tracer: None,
            exec_gate: ExecGate::new(),
            stream_workers: parallel,
            plan_cache_enabled: true,
            plan_cache: Mutex::new(Lru::new(PLAN_CACHE_CAP)),
            faults: None,
            fault_plan: None,
            transient_retries: DEFAULT_TRANSIENT_RETRIES,
            shards: 1,
            fragment_cache: None,
        }
    }

    /// Enable the materialized-fragment cache with a byte budget (0
    /// disables it). Completed component-query results are kept as
    /// wire-encoded chunks and served back — byte-identically — without
    /// re-executing the SQL. Evicts least-recently-used fragments when over
    /// budget; flushed together with the plan cache on
    /// [`Server::set_database`] / [`Server::invalidate_plan_cache`].
    pub fn with_fragment_cache(mut self, budget_bytes: usize) -> Self {
        self.fragment_cache = if budget_bytes == 0 {
            None
        } else {
            Some(Arc::new(Mutex::new(FragmentCache::new(budget_bytes))))
        };
        self
    }

    /// A snapshot of the fragment cache's occupancy, or `None` when the
    /// cache is disabled. For STATS exposition and tests.
    pub fn fragment_cache_info(&self) -> Option<FragmentCacheInfo> {
        self.fragment_cache.as_ref().map(|fc| {
            let fc = lock_recover(fc);
            FragmentCacheInfo {
                budget: fc.budget,
                bytes: fc.bytes,
                entries: fc.map.len(),
            }
        })
    }

    /// The cache key for one fragment: shard spec and SQL — the inputs
    /// that determine the produced chunk sequence (chunks hold at most
    /// [`STREAM_CHUNK_ROWS`] rows, cut per shard).
    fn fragment_key(&self, sql: &str) -> String {
        format!("k{}|{}", self.shards, sql)
    }

    /// Look up `sql` in the fragment cache, bumping hit/miss counters.
    fn fragment_lookup(&self, sql: &str) -> Option<CachedFragment> {
        let fc = self.fragment_cache.as_ref()?;
        let hit = lock_recover(fc).map.get(&self.fragment_key(sql)).cloned();
        if hit.is_some() {
            self.metrics.counter("cache.fragment.hits").inc();
        } else {
            self.metrics.counter("cache.fragment.misses").inc();
        }
        hit
    }

    /// A capture ready to tee a cache-missed stream's chunks, if the
    /// fragment cache is enabled.
    fn fragment_capture(&self, sql: &str, schema: &Schema) -> Option<FragmentCapture> {
        let fc = self.fragment_cache.as_ref()?;
        let budget = lock_recover(fc).budget;
        Some(FragmentCapture {
            cache: Arc::clone(fc),
            metrics: Arc::clone(&self.metrics),
            key: self.fragment_key(sql),
            schema: schema.clone(),
            chunks: Vec::new(),
            size: 0,
            budget,
        })
    }

    /// The executor every query runs on — there is one, the vectorized
    /// (batch-at-a-time columnar) executor. Reported in result metadata.
    pub fn exec_mode(&self) -> &'static str {
        "vectorized"
    }

    /// Set the per-query timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Enable or disable the prepared-plan cache (on by default). Tests
    /// plan with it off as the reference a cached plan must match.
    pub fn with_plan_cache(mut self, on: bool) -> Self {
        self.plan_cache_enabled = on;
        lock_recover(&self.plan_cache).clear();
        self
    }

    /// Install a deterministic fault-injection plan: every execution path
    /// consults it at its scan/encode/send sites. Testing only.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(FaultInjector::new(plan.clone())));
        self.fault_plan = Some(plan);
        self
    }

    /// Split each streaming query into (up to) `k` key-range shards
    /// executed concurrently and re-merged in order (default 1 =
    /// unsharded). Sharding is best-effort: a plan without a usable integer
    /// sort key runs unsharded. Output is byte-identical for every `k`.
    pub fn with_shards(mut self, k: usize) -> Self {
        self.shards = k.max(1);
        self
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Replace the admission gate with one holding exactly `n` permits
    /// (testing only — production sizes it to `available_parallelism`).
    pub fn with_exec_permits(mut self, n: usize) -> Self {
        self.exec_gate = ExecGate::with_permits(n);
        self
    }

    /// Set how many times a query is retried after a
    /// [`EngineError::Transient`] execution failure (default 2). Each retry
    /// bumps `server.retries` and backs off exponentially.
    pub fn with_transient_retries(mut self, retries: u32) -> Self {
        self.transient_retries = retries;
        self
    }

    /// The installed fault injector, if any (for asserting on hit counts in
    /// tests).
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Drop every cached plan. Call after anything that changes what a SQL
    /// string should plan to — the cache cannot observe catalog changes on
    /// its own.
    pub fn invalidate_plan_cache(&self) {
        lock_recover(&self.plan_cache).clear();
        // Cached fragments are result bytes computed against the same
        // catalog the plans were — they go stale together.
        if let Some(fc) = &self.fragment_cache {
            lock_recover(fc).clear();
            self.metrics.counter("cache.fragment.bytes").set(0);
        }
    }

    /// Swap the underlying database and invalidate the plan cache: cached
    /// plans hold table/column bindings resolved against the old catalog,
    /// so serving them against a new one would be silently wrong.
    pub fn set_database(&mut self, db: Arc<Database>) {
        self.db = db;
        self.invalidate_plan_cache();
    }

    /// The cancel token governing one query: carries the server deadline if
    /// one is configured, and is always live so an explicit
    /// [`TupleStream::cancel`] (or drop) can stop the worker.
    fn cancel_token(&self) -> CancelToken {
        match self.timeout {
            Some(t) => CancelToken::with_timeout(t),
            None => CancelToken::unbounded(),
        }
    }

    /// Force streaming queries onto worker threads (or inline). By default
    /// workers are used only when the host has more than one CPU; tests
    /// exercise the worker path explicitly through this.
    pub fn with_stream_workers(mut self, on: bool) -> Self {
        self.stream_workers = on;
        self
    }

    /// Install a trace sink: server phases, gate waits, worker execution,
    /// and encode intervals are recorded into it. Without a tracer the
    /// execution paths construct no events at all.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The installed trace sink, if any — callers attach their own spans
    /// (and per-stream lanes via [`TupleStream::set_trace`]) to the same
    /// timeline.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The registry all queries record into. Counters: `server.queries`,
    /// `server.streams`, `server.analyze`, `server.rows`, `server.bytes`,
    /// `server.estimates`, `server.timeouts`, `server.plan_cache_hits`,
    /// `server.plan_cache_prepared`, `server.panics`, `server.cancelled`, `server.retries`,
    /// `cache.evictions`, `exec.sorts_elided`, `exec.{calls,rows,batches}.<op>`.
    /// Histograms: `server.<phase>_ns`, `server.query_ns`,
    /// `server.estimate_ns`, `oracle.qerror` (Q-error ×1000).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The underlying database (for direct catalog access in tests).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Parse, bind, and optimize a SQL string the way the execution paths
    /// do — predicate push-down, then sort elision. Returns the plan and the
    /// number of sorts elided (exposed for tests and plan inspection).
    pub fn optimized_plan(&self, sql: &str) -> Result<(Plan, usize), EngineError> {
        let (plan, _, elided) = self.plan_cached(sql)?;
        Ok((plan, elided))
    }

    /// Plan `sql` through the prepared-plan cache: a clone of its shape's
    /// prepared plan with the statement's own literals bound, so the
    /// executor sees a plain literal plan.
    fn plan_cached(&self, sql: &str) -> Result<(Plan, Schema, usize), EngineError> {
        let (p, params) = self.prepared(sql)?;
        let mut plan = p.plan.clone();
        plan.bind_params(&params);
        Ok((plan, p.schema.clone(), p.elided))
    }

    /// The prepared form of `sql` and the literals to bind into it. A hit
    /// on the statement's shape bumps `server.plan_cache_hits`; a miss
    /// prepares the shape (`server.plan_cache_prepared`) and keeps it
    /// unless its estimate would depend on the literals.
    fn prepared(&self, sql: &str) -> Result<(Arc<Prepared>, Vec<Value>), EngineError> {
        // The statement prepared from its own text, slots and cache unused.
        let unshaped = || Ok((Arc::new(self.prepare(lex(sql)?, &[])?.0), Vec::new()));
        if !self.plan_cache_enabled {
            return unshaped();
        }
        let shape = shape(sql)?;
        if let Some(hit) = lock_recover(&self.plan_cache).get(&shape.key) {
            self.metrics.counter("server.plan_cache_hits").inc();
            return Ok((Arc::clone(hit), shape.params));
        }
        self.metrics.counter("server.plan_cache_prepared").inc();
        let (p, generic) = match self.prepare(shape.tokens, &shape.params) {
            Ok(p) => p,
            // A slot can surface in an error message: report the error the
            // statement's own text gets.
            Err(_) => return unshaped(),
        };
        let p = Arc::new(p);
        if generic {
            let evicted = lock_recover(&self.plan_cache).insert(shape.key, Arc::clone(&p));
            self.metrics.counter("cache.evictions").add(evicted);
        }
        Ok((p, shape.params))
    }

    /// Parse → bind → push-down → estimate → elision → schema. Returns
    /// whether the result is generic — its slots still unbound, everything
    /// in it independent of their values; otherwise `params` are bound
    /// before the estimate.
    fn prepare(
        &self,
        tokens: Vec<Spanned>,
        params: &[Value],
    ) -> Result<(Prepared, bool), EngineError> {
        let mut plan = bind(&parse_tokens(tokens)?, &self.db)?;
        plan = crate::optimize::push_filters(plan, &self.db)?;
        let generic = plan.slots_face_columns();
        if !generic {
            plan.bind_params(params);
        }
        let estimate = estimate(&plan, &self.db);
        let (plan, elided) = elide_sorts(plan, &self.db);
        let schema = plan.schema(&self.db)?;
        let p = Prepared {
            plan,
            schema,
            elided,
            estimate,
        };
        Ok((p, generic))
    }

    /// The execution context of one plan run: `faults` and the trace
    /// `detail` differ between shards of one query, the rest is the
    /// server's.
    fn exec(
        &self,
        token: CancelToken,
        faults: Option<Arc<FaultInjector>>,
        detail: impl FnOnce() -> String,
    ) -> Exec {
        Exec {
            db: Arc::clone(&self.db),
            metrics: Arc::clone(&self.metrics),
            detail: self.tracer.as_ref().map(|_| detail()),
            tracer: self.tracer.clone(),
            token,
            faults,
            retries: self.transient_retries,
            timeout: self.timeout,
        }
    }

    /// Execute a SQL string, returning a fully buffered tuple stream: the
    /// result is materialized, sorted, and wire-encoded before the call
    /// returns. See [`Server::execute_sql_streaming`] for the pipelined
    /// variant.
    pub fn execute_sql(&self, sql: &str) -> Result<TupleStream, EngineError> {
        if let Some(frag) = self.fragment_lookup(sql) {
            return Ok(frag.into_stream(true, &self.metrics));
        }
        let start = Instant::now();
        let (plan, schema, elided) = {
            let _s = TraceSpan::new(self.tracer.as_deref(), "server.parse_bind");
            self.plan_cached(sql)?
        };
        let parse_bind = start.elapsed();
        self.metrics.counter("exec.sorts_elided").add(elided as u64);
        let exec = self.exec(self.cancel_token(), self.faults.clone(), || {
            sql_summary(sql)
        });
        let mut sink = Concat(Vec::new());
        let sum = exec.run(&plan, parse_bind, &mut sink)?;
        let data = concat(sink.0);
        // The buffered path completed cleanly — the encoded result is whole
        // and safe to cache as a single-chunk fragment.
        if let Some(mut cap) = self.fragment_capture(sql, &schema) {
            if cap.push(&data) {
                cap.commit(sum.row_count, sum.byte_size);
            }
        }
        let mut stream = TupleStream::new(schema, StreamSource::Buffered(data), exec.token);
        stream.set_summary(&sum);
        Ok(stream)
    }

    /// Execute a SQL string as a pipelined stream: the returned
    /// [`TupleStream`] is fed through a channel of encoded chunks, and the
    /// caller decodes (and tags) rows while the server is still executing
    /// and encoding later chunks on a worker thread. Parse/bind/optimize
    /// errors surface synchronously; execution errors and post-hoc timeouts
    /// surface from [`TupleStream::next_row`]. Dropping the stream early
    /// terminates the worker at its next send.
    ///
    /// Under [`Server::with_shards`] a query whose plan has a usable range
    /// key runs as one worker per key-range shard, all sharing one cancel
    /// token; the consumer drains them in shard order, which reproduces
    /// the unsharded stream byte for byte.
    ///
    /// On a single-CPU host (or after `with_stream_workers(false)`) the
    /// query instead executes inline and the chunks are queued up front —
    /// same stream semantics, none of the handoff overhead that buys
    /// nothing without a second core.
    pub fn execute_sql_streaming(&self, sql: &str) -> Result<TupleStream, EngineError> {
        if let Some(frag) = self.fragment_lookup(sql) {
            return Ok(frag.into_stream(false, &self.metrics));
        }
        let start = Instant::now();
        let (plan, schema, elided) = self.plan_cached(sql)?;
        let parse_bind = start.elapsed();
        self.metrics.counter("exec.sorts_elided").add(elided as u64);
        self.metrics.counter("server.streams").inc();

        let split = (self.shards > 1)
            .then(|| split_plan(&plan, &self.db, self.shards))
            .flatten();
        let (plans, sharded) = match split {
            Some(sp) => {
                self.metrics.counter("exec.shards").add(sp.len() as u64);
                (sp.plans, true)
            }
            None => (vec![plan], false),
        };
        let n = plans.len();
        let token = self.cancel_token();
        let mut parts = Vec::with_capacity(n);
        for (i, plan) in plans.into_iter().enumerate() {
            // Each shard gets a fresh injector over the same rules, so
            // `kind@site#n` fires identically per shard whatever the count.
            let faults = if sharded {
                self.shard_injector()
            } else {
                self.faults.clone()
            };
            let exec = self.exec(token.clone(), faults, || {
                if sharded {
                    format!("shard {i}/{n}: {}", sql_summary(sql))
                } else {
                    sql_summary(sql)
                }
            });
            // The SQL was parsed once; attribute that to the first part so
            // the aggregated phases count it exactly once.
            let parse_bind = if i == 0 { parse_bind } else { Duration::ZERO };
            if self.stream_workers {
                let lane = if sharded {
                    format!("server shard worker {i}")
                } else {
                    "server execute worker".into()
                };
                parts.push(self.spawn_worker(exec, plan, parse_bind, lane));
                continue;
            }
            let mut chunks = Vec::new();
            let (last, failed) = match exec.run(&plan, parse_bind, &mut chunks) {
                Ok(sum) => (StreamItem::Done(sum), false),
                Err(e) => (StreamItem::Failed(e), true),
            };
            parts.push(queued(chunks, last));
            // The stream ends at the failure; later shards never run.
            if failed {
                break;
            }
        }
        let mut stream = TupleStream::new(schema, StreamSource::parts(parts, &self.metrics), token);
        // Tee this miss's chunks into the cache; the capture commits only
        // on the stream's clean terminal item.
        stream.capture = self.fragment_capture(sql, &stream.schema);
        Ok(stream)
    }

    /// A fresh fault injector over the configured fault plan, so every
    /// shard counts its sites from zero — `kind@site#n` fires identically
    /// per shard under a fixed seed, independent of shard count.
    fn shard_injector(&self) -> Option<Arc<FaultInjector>> {
        self.fault_plan
            .as_ref()
            .map(|p| Arc::new(FaultInjector::new(p.clone())))
    }

    /// Run `plan` on a worker thread that ships its chunks over a bounded
    /// channel, executing and encoding under an admission permit (see
    /// [`ExecGate`]). The gate cannot deadlock under shard fan-out: no
    /// worker holds a permit across a blocking send, so a parked later
    /// shard always releases its permit to whichever shard the consumer is
    /// actually draining.
    fn spawn_worker(
        &self,
        exec: Exec,
        plan: Plan,
        parse_bind: Duration,
        lane_label: String,
    ) -> Receiver<StreamItem> {
        let (tx, rx) = sync_channel(STREAM_CHANNEL_BOUND);
        let gate = Arc::clone(&self.exec_gate);
        std::thread::spawn(move || {
            let lane = exec
                .tracer
                .as_ref()
                .map(|t| t.name_current_thread(lane_label));
            let mut sink = ChannelSink {
                tx,
                gate,
                permit: None,
                exec: &exec,
                lane,
            };
            sink.ready();
            let last = match exec.run(&plan, parse_bind, &mut sink) {
                Ok(sum) => StreamItem::Done(sum),
                Err(e) => StreamItem::Failed(e),
            };
            // Send the terminal item *after* releasing the permit: the
            // consumer may not be draining the channel, and a blocking send
            // under a permit could wedge the gate.
            sink.permit = None;
            let _ = sink.tx.send(last);
        });
        rx
    }

    /// Cost-estimate endpoint: the paper's oracle. Answers from catalog
    /// statistics without executing, with the estimate prepared for the
    /// statement's shape — the estimator never looks at a literal operand,
    /// so every statement of one shape gets the same answer.
    pub fn estimate_sql(&self, sql: &str) -> Result<Estimate, EngineError> {
        let start = Instant::now();
        let (p, _) = self.prepared(sql)?;
        self.metrics.counter("server.estimates").inc();
        self.metrics
            .histogram("server.estimate_ns")
            .record_duration(start.elapsed());
        p.estimate.clone()
    }

    /// Range-shard a SQL query the way the sharded execution path would,
    /// rendering each shard back to SQL text. `Ok(None)` when the plan
    /// cannot be sharded (no usable integer sort key, missing stats, range
    /// too narrow). The middle-ware's oracle feeds these through
    /// [`Server::estimate_sql`] to predict per-shard cardinalities — the
    /// stats-driven skew estimate behind the `--shards auto` decision.
    pub fn shard_sql(&self, sql: &str, k: usize) -> Result<Option<Vec<String>>, EngineError> {
        let (plan, _, _) = self.plan_cached(sql)?;
        match split_plan(&plan, &self.db, k) {
            Some(sp) => Ok(Some(
                sp.plans
                    .iter()
                    .map(|p| crate::sql::to_sql(p, &self.db))
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            None => Ok(None),
        }
    }

    /// `EXPLAIN ANALYZE`: plan the query (through the cache, so the
    /// analyzed plan is exactly the one the execution paths run), estimate
    /// every node's cardinality, then execute with per-node timing and
    /// combine the two into an annotated tree. The execution is real —
    /// its per-operator profile is exported to the registry — but it bumps
    /// `server.analyze` rather than `server.queries`, and every node with
    /// an estimate records its Q-error into the `oracle.qerror` histogram
    /// (×1000 fixed point, so 1.0 → 1000).
    pub fn explain_analyze(&self, sql: &str) -> Result<ExplainAnalysis, EngineError> {
        let (plan, _, elided) = self.plan_cached(sql)?;
        let (_, est_rows) = estimate_with_nodes(&plan, &self.db)?;
        let start = Instant::now();
        let (rs, profile, plan_profile) = {
            let _s = TraceSpan::with_detail(
                self.tracer.as_deref(),
                "query.analyze",
                self.tracer.as_ref().map(|_| sql_summary(sql)),
            );
            execute_analyzed(&plan, &self.db)?
        };
        let execute_time = start.elapsed();
        let m = &self.metrics;
        m.counter("server.analyze").inc();
        m.counter("exec.sorts_elided").add(elided as u64);
        profile.export_to(m);
        let analysis = ExplainAnalysis::assemble(
            &plan,
            &plan_profile,
            &est_rows,
            elided as u64,
            execute_time,
            rs.len() as u64,
            sql.to_string(),
        );
        for n in &analysis.nodes {
            if let Some(q) = n.q_error {
                m.histogram("oracle.qerror")
                    .record((q * 1000.0).round() as u64);
            }
        }
        Ok(analysis)
    }
}

/// Everything one plan execution needs, owned so a worker thread can carry
/// it.
struct Exec {
    db: Arc<Database>,
    metrics: Arc<MetricsRegistry>,
    tracer: Option<Arc<Tracer>>,
    /// Detail of the `query.execute` trace span (set only when tracing).
    detail: Option<String>,
    token: CancelToken,
    faults: Option<Arc<FaultInjector>>,
    retries: u32,
    timeout: Option<Duration>,
}

/// Where [`Exec::run`] puts the encoded chunks of a result.
trait ChunkSink {
    /// Whether chunks leave through a channel: the `Send` fault site fires
    /// per chunk only then (the buffered path has no send).
    const SENDS: bool = true;

    /// About to encode the next chunk (a worker re-takes its admission
    /// permit here).
    fn ready(&mut self) {}

    /// Take one encoded chunk; an error ends the execution.
    fn push(&mut self, chunk: Bytes) -> Result<(), EngineError>;
}

/// Inline streaming: chunks queue up for the stream's channel.
impl ChunkSink for Vec<Bytes> {
    fn push(&mut self, chunk: Bytes) -> Result<(), EngineError> {
        Vec::push(self, chunk);
        Ok(())
    }
}

/// The buffered path: chunks are concatenated into one buffer.
struct Concat(Vec<Bytes>);

impl ChunkSink for Concat {
    const SENDS: bool = false;

    fn push(&mut self, chunk: Bytes) -> Result<(), EngineError> {
        self.0.push(chunk);
        Ok(())
    }
}

/// A streaming worker's end of the channel, holding its admission permit
/// only while it executes and encodes.
struct ChannelSink<'a> {
    tx: SyncSender<StreamItem>,
    gate: Arc<ExecGate>,
    permit: Option<ExecPermit>,
    exec: &'a Exec,
    lane: Option<u64>,
}

impl ChunkSink for ChannelSink<'_> {
    /// Take a permit unless one is held. Time spent waiting for it is
    /// queueing, not work — it is excluded from the deadline budget.
    fn ready(&mut self) {
        if self.permit.is_some() {
            return;
        }
        let trace = self.exec.tracer.as_deref().zip(self.lane);
        if let Some((t, lane)) = trace {
            t.begin(lane, "exec.gate.wait", None);
        }
        let t_gate = Instant::now();
        self.permit = Some(self.gate.acquire());
        self.exec.token.exclude(t_gate.elapsed());
        if let Some((t, lane)) = trace {
            t.end(lane, "exec.gate.wait");
        }
    }

    /// Hand the chunk over without blocking if the channel has room; if it
    /// is full, release the permit first, so a slow consumer never holds up
    /// other plans' execution (or deadlocks the k-way merge). A consumer
    /// that dropped the stream cancels the execution.
    fn push(&mut self, chunk: Bytes) -> Result<(), EngineError> {
        match self.tx.try_send(StreamItem::Chunk(chunk)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(item)) => {
                self.permit = None;
                let _s = TraceSpan::new(self.exec.tracer.as_deref(), "send.backpressure");
                self.tx.send(item).map_err(|_| EngineError::Cancelled)
            }
            Err(TrySendError::Disconnected(_)) => Err(EngineError::Cancelled),
        }
    }
}

impl Exec {
    /// Execute `plan` and hand each encoded chunk to `sink` — the one
    /// execution body every path runs. Execution and encoding run under
    /// `catch_unwind`, so a bug in an operator surfaces as a typed
    /// `Internal` error rather than aborting the thread; transient failures
    /// retry; the cancel token is checked at every chunk boundary, so a
    /// dropped stream, an explicit cancel or a blown deadline stops within
    /// one chunk. A clean run records the `server.*` counters and
    /// histograms and the operator profile, then checks the post-hoc
    /// timeout. Returns the stream's summary, or the error that ends it.
    fn run<S: ChunkSink>(
        &self,
        plan: &Plan,
        parse_bind: Duration,
        sink: &mut S,
    ) -> Result<StreamSummary, EngineError> {
        let tracer = self.tracer.as_deref();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let t_exec = Instant::now();
            let (rs, profile) = {
                let _s = TraceSpan::with_detail(tracer, "query.execute", self.detail.clone());
                self.execute_with_retry(plan)?
            };
            let execute = t_exec.elapsed();
            let (mut encode, mut bytes) = (Duration::ZERO, 0);
            let mut chunks = Chunks::new(&rs);
            while chunks.left > 0 {
                self.token.check()?;
                sink.ready();
                self.fault(FaultSite::Encode)?;
                let t_enc = Instant::now();
                let chunk = {
                    let _s = TraceSpan::new(tracer, "encode");
                    chunks.next_chunk()
                };
                encode += t_enc.elapsed();
                bytes += chunk.len();
                if S::SENDS {
                    self.fault(FaultSite::Send)?;
                }
                sink.push(chunk)?;
            }
            Ok((rs.len(), bytes, execute, encode, profile))
        }));
        let (row_count, byte_size, execute, encode, profile) = match caught {
            Err(payload) => {
                self.metrics.counter("server.panics").inc();
                return Err(EngineError::Internal(panic_message(payload)));
            }
            Ok(Err(e)) => {
                note_exec_error(&self.metrics, &e);
                return Err(e);
            }
            Ok(Ok(v)) => v,
        };
        let query_time = parse_bind + execute + encode;
        let m = &self.metrics;
        m.counter("server.queries").inc();
        m.counter("server.rows").add(row_count as u64);
        m.counter("server.bytes").add(byte_size as u64);
        m.histogram("server.parse_bind_ns")
            .record_duration(parse_bind);
        m.histogram("server.execute_ns").record_duration(execute);
        m.histogram("server.encode_ns").record_duration(encode);
        m.histogram("server.query_ns").record_duration(query_time);
        profile.export_to(m);
        if let Some(limit) = self.timeout {
            if query_time > limit {
                m.counter("server.timeouts").inc();
                return Err(EngineError::Timeout {
                    elapsed_ms: query_time.as_millis() as u64,
                    limit_ms: limit.as_millis() as u64,
                });
            }
        }
        Ok(StreamSummary {
            row_count,
            byte_size,
            query_time,
            phases: QueryPhases {
                parse_bind,
                optimize: Duration::ZERO,
                execute,
                encode,
            },
        })
    }

    /// Execute with bounded retry on [`EngineError::Transient`]: each retry
    /// backs off exponentially, bumps `server.retries`, and re-checks the
    /// cancel token so retrying never outlives the query's deadline. All
    /// other errors (and success) pass straight through.
    fn execute_with_retry(&self, plan: &Plan) -> Result<(VecResultSet, ExecProfile), EngineError> {
        let mut attempt = 0u32;
        loop {
            match execute_profiled_with(plan, &self.db, &self.token, self.faults.as_deref()) {
                Err(EngineError::Transient(_)) if attempt < self.retries => {
                    attempt += 1;
                    self.metrics.counter("server.retries").inc();
                    std::thread::sleep(RETRY_BACKOFF_BASE * 2u32.saturating_pow(attempt - 1));
                    self.token.check()?;
                }
                other => return other,
            }
        }
    }

    fn fault(&self, site: FaultSite) -> Result<(), EngineError> {
        match &self.faults {
            Some(f) => f.hit(site),
            None => Ok(()),
        }
    }
}

/// Cuts a result into wire chunks of [`STREAM_CHUNK_ROWS`] rows, packing
/// consecutive batches together: chunk boundaries depend only on the row
/// count, never on how the plan's operators happened to batch their
/// output, so cached fragments and forwarded frames have one shape.
struct Chunks<'a> {
    batches: &'a [ColumnBatch],
    /// Position of the next row: batch index, row within it.
    batch: usize,
    row: usize,
    /// Rows not yet encoded.
    left: usize,
}

impl<'a> Chunks<'a> {
    fn new(rs: &'a VecResultSet) -> Chunks<'a> {
        Chunks {
            batches: &rs.batches,
            batch: 0,
            row: 0,
            left: rs.len(),
        }
    }

    /// The pieces of the next chunk: `(batch, rows)` spans.
    fn spans(&self) -> impl Iterator<Item = (&'a ColumnBatch, Range<usize>)> {
        let (batches, mut row) = (self.batches, self.row);
        let mut want = STREAM_CHUNK_ROWS.min(self.left);
        batches[self.batch..].iter().map_while(move |b| {
            let n = (b.len() - row).min(want);
            let span = (b, row..row + n);
            want -= n;
            row = 0;
            (n > 0 || b.is_empty()).then_some(span)
        })
    }

    /// Encode the next chunk (empty once every row is out).
    fn next_chunk(&mut self) -> Bytes {
        // Sized from the pieces' share of their batch's wire width: exact
        // for whole batches, an estimate for partial ones.
        let cap = self
            .spans()
            .map(|(b, r)| (b.wire_width() * r.len()).div_ceil(b.len().max(1)) + 4 * r.len())
            .sum();
        let mut buf = BytesMut::with_capacity(cap);
        for (b, rows) in self.spans() {
            encode_batch_into(b, rows.clone(), &mut buf);
            self.left -= rows.len();
            self.row = rows.end;
            if rows.end == b.len() {
                self.batch += 1;
                self.row = 0;
            }
        }
        buf.freeze()
    }
}

/// A short, single-line rendition of a SQL statement for trace details.
fn sql_summary(sql: &str) -> String {
    let mut s: String = sql.split_whitespace().collect::<Vec<_>>().join(" ");
    if s.len() > 120 {
        let cut = (0..=120)
            .rev()
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(0);
        s.truncate(cut);
        s.push('…');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_data::{row, DataType, Table};
    use std::collections::HashMap;

    fn server() -> Server {
        let mut db = Database::new();
        let mut t = Table::new(
            "Item",
            Schema::of(&[("id", DataType::Int), ("label", DataType::Str)]),
        );
        for i in 0..50i64 {
            t.insert(row![i, format!("item-{i}")]).unwrap();
        }
        db.add_table(t);
        Server::new(Arc::new(db))
    }

    #[test]
    fn execute_returns_decodable_stream() {
        let s = server();
        let stream = s
            .execute_sql("SELECT i.id AS id, i.label AS label FROM Item i ORDER BY id")
            .unwrap();
        assert_eq!(stream.row_count, 50);
        assert!(stream.byte_size > 0);
        let rows = stream.collect_rows().unwrap();
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[0].get(0), &Value::Int(0));
        assert_eq!(rows[49].get(1), &Value::str("item-49"));
    }

    #[test]
    fn parse_errors_propagate() {
        let s = server();
        assert!(s.execute_sql("SELECT FROM").is_err());
        assert!(s.execute_sql("SELECT x.y FROM Item i").is_err());
    }

    #[test]
    fn estimate_without_execution() {
        let s = server();
        let e = s
            .estimate_sql("SELECT i.id AS id FROM Item i WHERE i.id = 7")
            .unwrap();
        assert!((e.cardinality - 1.0).abs() < 1e-6);
    }

    #[test]
    fn concurrent_streams_keep_their_own_results() {
        // Both queries are submitted before either is read, so on a
        // multi-core host their workers run side by side; each stream must
        // still deliver exactly its own rows.
        let s = server();
        let streams = [
            "SELECT i.id AS id FROM Item i WHERE i.id < 10 ORDER BY id",
            "SELECT i.id AS id FROM Item i WHERE i.id >= 40 ORDER BY id",
        ]
        .map(|q| s.execute_sql_streaming(q).unwrap());
        let [a, b] = streams.map(|st| st.collect_rows().unwrap());
        assert_eq!(a.len(), 10);
        assert_eq!(b.len(), 10);
        assert_eq!(a[0].get(0), &sr_data::Value::Int(0));
        assert_eq!(b[0].get(0), &sr_data::Value::Int(40));
    }

    #[test]
    fn zero_timeout_trips() {
        let s = server().with_timeout(Duration::from_nanos(1));
        match s.execute_sql("SELECT i.id AS id FROM Item i") {
            Err(EngineError::Timeout { .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn phases_sum_to_query_time_and_metrics_record() {
        let s = server();
        let stream = s
            .execute_sql("SELECT i.id AS id FROM Item i ORDER BY id")
            .unwrap();
        assert!(stream.phases.total() <= stream.query_time);
        assert!(stream.phases.execute > Duration::ZERO);
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("server.queries"), 1);
        assert_eq!(snap.counter("server.rows"), 50);
        assert_eq!(snap.counter("exec.rows.scan"), 50);
        assert_eq!(snap.counter("exec.calls.sort"), 1);
        assert_eq!(
            snap.histogram("server.execute_ns").map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn transfer_time_accumulates_during_decode() {
        let s = server();
        let mut stream = s
            .execute_sql("SELECT i.id AS id, i.label AS label FROM Item i ORDER BY id")
            .unwrap();
        assert_eq!(stream.transfer_time, Duration::ZERO);
        while stream.next_row().unwrap().is_some() {}
        assert_eq!(stream.rows_decoded, 50);
        assert!(stream.transfer_time > Duration::ZERO);
    }

    #[test]
    fn stream_iteration_matches_row_count() {
        let s = server();
        let mut stream = s
            .execute_sql("SELECT i.id AS id FROM Item i WHERE i.id < 5 ORDER BY id")
            .unwrap();
        let mut n = 0;
        while stream.next_row().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn streaming_matches_buffered() {
        // Pin each streaming mode explicitly so the test is identical on
        // single- and multi-core hosts.
        for workers in [true, false] {
            let s = server().with_stream_workers(workers);
            let sql = "SELECT i.id AS id, i.label AS label FROM Item i ORDER BY id";
            let buffered = s.execute_sql(sql).unwrap().collect_rows().unwrap();
            let mut stream = s.execute_sql_streaming(sql).unwrap();
            let mut rows = Vec::new();
            while let Some(r) = stream.next_row().unwrap() {
                rows.push(r);
            }
            assert_eq!(rows, buffered);
            // Metadata is final after full consumption.
            assert_eq!(stream.row_count, 50);
            assert!(stream.byte_size > 0);
            assert!(stream.query_time > Duration::ZERO);
            assert_eq!(stream.rows_decoded, 50);
            let snap = s.metrics().snapshot();
            assert_eq!(snap.counter("server.queries"), 2);
            assert_eq!(snap.counter("server.streams"), 1);
        }
    }

    #[test]
    fn streaming_parse_errors_are_synchronous() {
        let s = server();
        assert!(s.execute_sql_streaming("SELECT FROM").is_err());
        assert!(s.execute_sql_streaming("SELECT x.y FROM Item i").is_err());
    }

    #[test]
    fn streaming_zero_timeout_fails_before_first_chunk() {
        for workers in [true, false] {
            let s = server()
                .with_timeout(Duration::from_nanos(1))
                .with_stream_workers(workers);
            let mut stream = s
                .execute_sql_streaming("SELECT i.id AS id FROM Item i ORDER BY id")
                .unwrap();
            // The deadline is checked cooperatively at every chunk boundary,
            // so an already-expired budget stops the stream before any rows
            // are shipped — not post-hoc after the whole result was encoded.
            let err = match stream.next_row() {
                Ok(Some(_)) => panic!("no rows should ship past an expired deadline"),
                Ok(None) => panic!("expected timeout error"),
                Err(e) => e,
            };
            assert!(matches!(err, EngineError::Timeout { .. }));
            let snap = s.metrics().snapshot();
            assert_eq!(snap.counter("server.timeouts"), 1);
            assert_eq!(snap.counter("server.cancelled"), 1);
        }
    }

    #[test]
    fn cancelling_stream_stops_worker_mid_flight() {
        // Hold the worker in an injected 50ms scan delay so the cancel
        // deterministically lands before the first chunk-boundary check.
        let s = server()
            .with_stream_workers(true)
            .with_faults(FaultPlan::parse("delay50@scan#1", 1).unwrap());
        let mut stream = s
            .execute_sql_streaming("SELECT i.id AS id FROM Item i ORDER BY id")
            .unwrap();
        stream.cancel();
        let err = match stream.next_row() {
            Ok(Some(_)) => panic!("no rows should ship after cancel"),
            Ok(None) => panic!("expected cancellation error"),
            Err(e) => e,
        };
        assert!(matches!(err, EngineError::Cancelled), "{err:?}");
        assert_eq!(s.metrics().snapshot().counter("server.cancelled"), 1);
    }

    #[test]
    fn gate_recovers_from_poisoned_lock() {
        let gate = ExecGate::new();
        let g2 = Arc::clone(&gate);
        let _ = std::thread::spawn(move || {
            let _guard = g2.permits.lock().unwrap();
            panic!("poison the gate");
        })
        .join();
        assert!(gate.permits.is_poisoned());
        // Acquire and release must still work — and keep working.
        drop(gate.acquire());
        drop(gate.acquire());
    }

    #[test]
    fn permit_released_when_holder_panics() {
        let gate = ExecGate::new();
        let before = *lock_recover(&gate.permits);
        let g2 = Arc::clone(&gate);
        let _ = std::thread::spawn(move || {
            let _permit = g2.acquire();
            panic!("worker died holding a permit");
        })
        .join();
        // The drop-guard ran during unwinding: no permit leaked.
        assert_eq!(*lock_recover(&gate.permits), before);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let mut c = Lru::new(2);
        assert_eq!(c.insert("a".into(), 1), 0);
        assert_eq!(c.insert("b".into(), 2), 0);
        assert!(c.get("a").is_some()); // refresh: "b" is now the LRU entry
        assert_eq!(c.insert("c".into(), 3), 1);
        assert!(c.get("b").is_none(), "LRU entry evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        // Overwriting a resident key never evicts.
        assert_eq!(c.insert("a".into(), 4), 0);
        assert_eq!(c.get("a"), Some(&mut 4));
    }

    #[test]
    fn plan_cache_eviction_counter_records() {
        let s = server();
        // Fill past the cap with distinct shapes (an alias is part of the
        // shape, a literal operand is not); the overflow must evict one LRU
        // entry at a time, not flush the whole cache.
        for i in 0..=PLAN_CACHE_CAP {
            let sql = format!("SELECT i.id AS id{i} FROM Item i WHERE i.id = {i}");
            s.optimized_plan(&sql).unwrap();
        }
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("cache.evictions"), 1);
        // The most recent shape is still cached, whatever its literal.
        let sql = format!("SELECT i.id AS id{PLAN_CACHE_CAP} FROM Item i WHERE i.id = 7");
        s.optimized_plan(&sql).unwrap();
        assert_eq!(snap.counter("server.plan_cache_hits"), 0);
        assert_eq!(s.metrics().snapshot().counter("server.plan_cache_hits"), 1);
    }

    #[test]
    fn invalidation_clears_cached_plans() {
        let s = server();
        let sql = "SELECT i.id AS id FROM Item i";
        let _ = s.execute_sql(sql).unwrap();
        let _ = s.execute_sql(sql).unwrap();
        assert_eq!(s.metrics().snapshot().counter("server.plan_cache_hits"), 1);
        s.invalidate_plan_cache();
        let _ = s.execute_sql(sql).unwrap();
        assert_eq!(s.metrics().snapshot().counter("server.plan_cache_hits"), 1);
    }

    #[test]
    fn set_database_invalidates_plans() {
        let mut s = server();
        let sql = "SELECT i.id AS id FROM Item i ORDER BY id";
        assert_eq!(s.execute_sql(sql).unwrap().row_count, 50);
        let mut db = Database::new();
        let mut t = Table::new(
            "Item",
            Schema::of(&[("id", DataType::Int), ("label", DataType::Str)]),
        );
        for i in 0..3i64 {
            t.insert(row![i, format!("new-{i}")]).unwrap();
        }
        db.add_table(t);
        s.set_database(Arc::new(db));
        // The same SQL must re-plan against the new catalog, not serve the
        // plan bound to the old one.
        assert_eq!(s.execute_sql(sql).unwrap().row_count, 3);
        assert_eq!(s.metrics().snapshot().counter("server.plan_cache_hits"), 0);
    }

    #[test]
    fn vanished_worker_surfaces_truncation() {
        let (tx, rx) = sync_channel(1);
        let source = StreamSource::parts(vec![rx], &Arc::new(MetricsRegistry::new()));
        let mut stream = TupleStream::new(
            Schema::of(&[("x", DataType::Int)]),
            source,
            CancelToken::none(),
        );
        // The sender vanishes without a Done/Failed terminator — the reader
        // must see a hard truncation error, not a clean end of stream.
        drop(tx);
        match stream.next_row() {
            Err(EngineError::TruncatedStream { rows_decoded: 0 }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn transient_faults_retry_and_succeed() {
        // One transient failure at the first scan hit: the retry re-runs
        // the query and the client never sees the fault.
        for workers in [true, false] {
            let s = server()
                .with_stream_workers(workers)
                .with_faults(FaultPlan::parse("transient@scan#1", 1).unwrap());
            let rows = s
                .execute_sql_streaming("SELECT i.id AS id FROM Item i ORDER BY id")
                .unwrap()
                .collect_rows()
                .unwrap();
            assert_eq!(rows.len(), 50);
            assert_eq!(s.metrics().snapshot().counter("server.retries"), 1);
        }
    }

    #[test]
    fn transient_faults_exhaust_bounded_retries() {
        let s = server()
            .with_transient_retries(2)
            .with_faults(FaultPlan::parse("transient@scan", 1).unwrap());
        match s.execute_sql("SELECT i.id AS id FROM Item i") {
            Err(EngineError::Transient(_)) => {}
            other => panic!("expected transient failure, got {other:?}"),
        }
        // 1 initial try + 2 retries, all failed.
        assert_eq!(s.metrics().snapshot().counter("server.retries"), 2);
    }

    #[test]
    fn dropping_stream_terminates_worker() {
        let s = server().with_stream_workers(true);
        let stream = s
            .execute_sql_streaming("SELECT i.id AS id FROM Item i ORDER BY id")
            .unwrap();
        drop(stream); // worker's next send errors; must not hang or panic
    }

    #[test]
    fn literal_sensitive_shapes_are_prepared_per_statement() {
        // Push-down through the constant projection makes `q.one = k` the
        // literal comparison `1 = k`, which the estimator prices by value.
        let sql = |k: i64| {
            format!(
                "SELECT q.id AS id FROM (SELECT 1 AS one, i.id AS id FROM Item i) AS q \
                 WHERE q.one = {k}"
            )
        };
        let s = server();
        let reference = server().with_plan_cache(false);
        let mut cardinalities = Vec::new();
        for k in [1, 2, 1] {
            let est = s.estimate_sql(&sql(k)).unwrap();
            assert_eq!(est, reference.estimate_sql(&sql(k)).unwrap(), "k = {k}");
            cardinalities.push(est.cardinality);
            let rows = s.execute_sql(&sql(k)).unwrap().collect_rows().unwrap();
            assert_eq!(rows.len(), if k == 1 { 50 } else { 0 });
        }
        assert_ne!(cardinalities[0], cardinalities[1]);
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("server.plan_cache_hits"), 0);
        assert_eq!(snap.counter("server.plan_cache_prepared"), 6);
    }

    #[test]
    fn plan_cache_hits_on_repeated_sql() {
        let s = server();
        let sql = "SELECT i.id AS id, i.label AS label FROM Item i ORDER BY id";
        let first = s.execute_sql(sql).unwrap().collect_rows().unwrap();
        assert_eq!(s.metrics().snapshot().counter("server.plan_cache_hits"), 0);
        let second = s.execute_sql(sql).unwrap().collect_rows().unwrap();
        let mut stream = s.execute_sql_streaming(sql).unwrap();
        let mut third = Vec::new();
        while let Some(r) = stream.next_row().unwrap() {
            third.push(r);
        }
        assert_eq!(first, second);
        assert_eq!(first, third);
        assert_eq!(s.metrics().snapshot().counter("server.plan_cache_hits"), 2);
        // A different statement misses.
        let _ = s.execute_sql("SELECT i.id AS id FROM Item i").unwrap();
        assert_eq!(s.metrics().snapshot().counter("server.plan_cache_hits"), 2);
    }

    #[test]
    fn explain_analyze_annotates_every_operator() {
        let s = server();
        let analysis = s
            .explain_analyze("SELECT i.id AS id FROM Item i WHERE i.id < 10 ORDER BY id")
            .unwrap();
        assert_eq!(analysis.row_count, 10);
        assert!(!analysis.nodes.is_empty());
        for n in &analysis.nodes {
            assert!(n.calls >= 1, "{n:?}");
            let q = n.q_error.expect("every operator estimated");
            assert!(q.is_finite() && q >= 1.0, "{n:?}");
        }
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("server.analyze"), 1);
        assert_eq!(snap.counter("server.queries"), 0, "analyze is not a query");
        let qerr = snap.histogram("oracle.qerror").expect("qerror recorded");
        assert_eq!(qerr.count, analysis.nodes.len() as u64);
        // ×1000 fixed point: every recorded value is >= 1000 (q >= 1).
        assert!(qerr.min >= 1000);
        // Actual rows agree with the exported kind-level counters (fresh
        // server: only this execution recorded).
        for (op, stat) in [("scan", 50u64), ("filter", 10u64)] {
            assert_eq!(snap.counter(&format!("exec.rows.{op}")), stat);
            let from_nodes: u64 = analysis
                .nodes
                .iter()
                .filter(|n| n.op == op)
                .map(|n| n.actual_rows)
                .sum();
            assert_eq!(from_nodes, stat);
        }
    }

    #[test]
    fn tracer_records_server_spans_on_all_paths() {
        for workers in [true, false] {
            let tracer = Arc::new(Tracer::new());
            let s = server()
                .with_stream_workers(workers)
                .with_tracer(Arc::clone(&tracer));
            let sql = "SELECT i.id AS id FROM Item i ORDER BY id";
            let _ = s.execute_sql(sql).unwrap().collect_rows().unwrap();
            let mut stream = s.execute_sql_streaming(sql).unwrap();
            stream.set_trace(&tracer, "0");
            while stream.next_row().unwrap().is_some() {}
            let events = tracer.events();
            let names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
            assert!(names.contains(&"server.parse_bind"), "{names:?}");
            assert!(names.contains(&"query.execute"), "{names:?}");
            assert!(names.contains(&"encode"), "{names:?}");
            if workers {
                assert!(names.contains(&"exec.gate.wait"), "{names:?}");
                assert!(names.contains(&"stream.stall"), "{names:?}");
            }
            assert!(
                tracer.lanes().iter().any(|(_, n)| n == "stream 0"),
                "stream lane registered"
            );
            // Balanced per lane.
            let mut open: HashMap<u64, Vec<&str>> = HashMap::new();
            for e in &events {
                match e.phase {
                    sr_obs::TracePhase::Begin => {
                        open.entry(e.lane).or_default().push(e.name.as_ref())
                    }
                    sr_obs::TracePhase::End => {
                        assert_eq!(open.entry(e.lane).or_default().pop(), Some(e.name.as_ref()));
                    }
                    _ => {}
                }
            }
            assert!(open.values().all(|v| v.is_empty()), "unclosed spans");
        }
    }

    #[test]
    fn no_tracer_means_no_stream_trace() {
        let s = server();
        let stream = s
            .execute_sql("SELECT i.id AS id FROM Item i ORDER BY id")
            .unwrap();
        assert!(stream.trace.is_none());
        assert!(s.tracer().is_none());
    }

    #[test]
    fn sort_elision_counted_on_clustered_table() {
        let mut db = Database::new();
        let mut t = Table::new("T", Schema::of(&[("k", DataType::Int)]));
        for i in 0..10i64 {
            t.insert(row![i]).unwrap();
        }
        db.add_table(t);
        db.declare_key("T", &["k"]).unwrap();
        db.declare_clustered_by("T", &["k"]).unwrap();
        let s = Server::new(Arc::new(db));
        let sql = "SELECT t.k AS k FROM T t ORDER BY k";
        let (plan, elided) = s.optimized_plan(sql).unwrap();
        assert_eq!(elided, 1);
        let mut has_sort = false;
        plan.visit(&mut |p| has_sort |= matches!(p, Plan::Sort { .. }));
        assert!(!has_sort, "sort should be elided:\n{plan}");
        let rows = s.execute_sql(sql).unwrap().collect_rows().unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].get(0), &Value::Int(0));
        assert_eq!(rows[9].get(0), &Value::Int(9));
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("exec.sorts_elided"), 1);
        assert_eq!(snap.counter("exec.calls.sort"), 0);
    }

    const SHARD_SQL: &str = "SELECT i.id AS id, i.label AS label FROM Item i ORDER BY id";

    #[test]
    fn sharded_stream_matches_unsharded_on_both_paths() {
        let reference = server()
            .execute_sql(SHARD_SQL)
            .unwrap()
            .collect_rows()
            .unwrap();
        for workers in [true, false] {
            for k in [1usize, 2, 4] {
                let s = server().with_stream_workers(workers).with_shards(k);
                let mut stream = s.execute_sql_streaming(SHARD_SQL).unwrap();
                let mut rows = Vec::new();
                while let Some(r) = stream.next_row().unwrap() {
                    rows.push(r);
                }
                assert_eq!(rows, reference, "workers={workers} k={k}");
                // Aggregated metadata is final after full consumption.
                assert_eq!(stream.row_count, 50);
                assert!(stream.byte_size > 0);
                assert!(stream.query_time > Duration::ZERO);
                let snap = s.metrics().snapshot();
                assert_eq!(snap.counter("server.streams"), 1);
                if k > 1 {
                    assert_eq!(snap.counter("exec.shards"), k as u64);
                    assert_eq!(snap.counter("server.queries"), k as u64);
                    assert_eq!(
                        snap.histogram("shard.skew").map(|h| h.count),
                        Some(1),
                        "skew recorded once per drained sharded stream"
                    );
                } else {
                    assert_eq!(snap.counter("exec.shards"), 0);
                }
                // Rows and bytes sum correctly over the disjoint ranges.
                assert_eq!(snap.counter("server.rows"), 50);
                assert_eq!(snap.counter("server.bytes"), stream.byte_size as u64);
            }
        }
    }

    #[test]
    fn shard_fanout_survives_one_permit_gate() {
        // Regression: 4 shard workers over a single admission permit must
        // serialize, not deadlock — no worker holds a permit across a
        // blocking send, so the permit always circulates back.
        let s = server()
            .with_stream_workers(true)
            .with_shards(4)
            .with_exec_permits(1);
        let rows = s
            .execute_sql_streaming(SHARD_SQL)
            .unwrap()
            .collect_rows()
            .unwrap();
        assert_eq!(rows.len(), 50);
        assert_eq!(s.metrics().snapshot().counter("exec.shards"), 4);
    }

    #[test]
    fn faults_fire_identically_per_shard() {
        // transient@scan#1 is counted per injector; each shard gets a fresh
        // injector over the same seeded plan, so with 2 shards the fault
        // fires (and retries to success) once in *each* shard, on both
        // execution paths.
        for workers in [true, false] {
            let s = server()
                .with_stream_workers(workers)
                .with_shards(2)
                .with_faults(FaultPlan::parse("transient@scan#1", 7).unwrap());
            let rows = s
                .execute_sql_streaming(SHARD_SQL)
                .unwrap()
                .collect_rows()
                .unwrap();
            assert_eq!(rows.len(), 50, "workers={workers}");
            let snap = s.metrics().snapshot();
            assert_eq!(snap.counter("server.retries"), 2, "workers={workers}");
        }
    }

    #[test]
    fn unshardable_query_falls_back_to_single_stream() {
        // A string sort key cannot be range-sharded; the query must still
        // run (unsharded) with no shard accounting.
        let s = server().with_stream_workers(true).with_shards(4);
        let sql = "SELECT i.label AS label FROM Item i ORDER BY label";
        let rows = s
            .execute_sql_streaming(sql)
            .unwrap()
            .collect_rows()
            .unwrap();
        assert_eq!(rows.len(), 50);
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("exec.shards"), 0);
        assert_eq!(snap.counter("server.queries"), 1);
    }

    #[test]
    fn dropping_sharded_stream_cancels_workers() {
        // Hold shard workers in an injected scan delay; dropping the stream
        // cancels the shared token and every worker stops cooperatively.
        let s = server()
            .with_stream_workers(true)
            .with_shards(2)
            .with_faults(FaultPlan::parse("delay50@scan", 1).unwrap());
        let stream = s.execute_sql_streaming(SHARD_SQL).unwrap();
        drop(stream);
        // Cancellation is cooperative: give the workers a beat to observe
        // it, then check that at least one execution was cancelled.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let cancelled = s.metrics().snapshot().counter("server.cancelled");
            if cancelled > 0 {
                break;
            }
            assert!(Instant::now() < deadline, "workers never saw the cancel");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The reference executor's rows for `sql`, planned as the server plans it.
    fn reference_rows(s: &Server, sql: &str) -> Vec<Row> {
        let (plan, _) = s.optimized_plan(sql).unwrap();
        crate::reference::execute(&plan, s.database()).unwrap().rows
    }

    #[test]
    fn vectorized_buffered_matches_tuple_bytes() {
        let sql = "SELECT i.id AS id, i.label AS label FROM Item i WHERE i.id >= 10 ORDER BY id";
        let v = server();
        assert_eq!(v.exec_mode(), "vectorized");
        let tuple_rows = reference_rows(&v, sql);
        let mut vs = v.execute_sql(sql).unwrap();
        assert_eq!(vs.row_count, 40);
        let bytes = vs.next_chunk().unwrap().unwrap();
        assert_eq!(bytes, crate::wire::encode_rows(&tuple_rows));
        assert_eq!(vs.byte_size, bytes.len());
        let snap = v.metrics().snapshot();
        assert!(snap.counter("exec.batches") > 0, "batch counters exported");
    }

    #[test]
    fn vectorized_streaming_matches_tuple_for_all_shard_counts() {
        let sql = "SELECT i.id AS id, i.label AS label FROM Item i ORDER BY id";
        let base = reference_rows(&server(), sql);
        for shards in [1usize, 2, 4] {
            for workers in [false, true] {
                let s = server().with_shards(shards).with_stream_workers(workers);
                let mut stream = s.execute_sql_streaming(sql).unwrap();
                let mut rows = Vec::new();
                while let Some(r) = stream.next_row().unwrap() {
                    rows.push(r);
                }
                assert_eq!(rows, base, "shards={shards} workers={workers}");
            }
        }
    }

    #[test]
    fn vectorized_scan_fault_surfaces_as_typed_error() {
        let s = server().with_faults(FaultPlan::parse("panic@scan", 1).unwrap());
        match s.execute_sql("SELECT i.id AS id FROM Item i ORDER BY id") {
            Err(EngineError::Internal(msg)) => {
                assert!(msg.contains("injected fault"), "unexpected: {msg}")
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        assert_eq!(s.metrics().snapshot().counter("server.panics"), 1);
    }

    #[test]
    fn shard_sql_renders_estimable_range_queries() {
        let s = server();
        let shards = s.shard_sql(SHARD_SQL, 2).unwrap().expect("shardable");
        assert_eq!(shards.len(), 2);
        let mut total = 0.0;
        for sql in &shards {
            assert!(sql.contains("ORDER BY"), "shard keeps the sort: {sql}");
            let est = s.estimate_sql(sql).expect("shard SQL round-trips");
            total += est.cardinality;
        }
        // The per-shard estimates decompose the whole query's cardinality.
        assert!(total > 0.0);
        let unshardable = "SELECT i.label AS label FROM Item i ORDER BY label";
        assert!(s.shard_sql(unshardable, 2).unwrap().is_none());
    }

    #[test]
    fn chunks_pack_partial_batches_into_full_chunks() {
        // The filter leaves the first scan batch short (1014 rows) and the
        // rest whole: packed, every path cuts chunks by row count alone,
        // and the buffered path's one chunk is the same bytes.
        let mut db = Database::new();
        let mut t = Table::new(
            "Item",
            Schema::of(&[("id", DataType::Int), ("label", DataType::Str)]),
        );
        for i in 0..3000i64 {
            t.insert(row![i, format!("item-{i}")]).unwrap();
        }
        db.add_table(t);
        let db = Arc::new(db);
        let sql = "SELECT i.id AS id, i.label AS label FROM Item i WHERE i.id >= 10";
        let rows = |c: &Bytes| crate::wire::row_prefix(c, usize::MAX).unwrap().1;
        for workers in [true, false] {
            let s = Server::new(Arc::clone(&db)).with_stream_workers(workers);
            let mut stream = s.execute_sql_streaming(sql).unwrap();
            let (mut sizes, mut bytes) = (Vec::new(), Vec::new());
            while let Some(c) = stream.next_chunk().unwrap() {
                sizes.push(rows(&c));
                bytes.extend_from_slice(&c);
            }
            assert_eq!(sizes, [1024, 1024, 942], "workers={workers}");
            let mut buffered = s.execute_sql(sql).unwrap();
            assert_eq!(
                buffered.next_chunk().unwrap().unwrap().as_ref(),
                bytes.as_slice()
            );
        }
    }

    /// Decode a stream into rows, also returning the terminal metadata.
    fn drain(mut stream: TupleStream) -> (Vec<Row>, usize) {
        let mut rows = Vec::new();
        while let Some(r) = stream.next_row().unwrap() {
            rows.push(r);
        }
        (rows, stream.row_count)
    }

    const FRAG_SQL: &str = "SELECT i.id AS id, i.label AS label FROM Item i ORDER BY id";

    #[test]
    fn fragment_cache_warm_hit_is_byte_identical_buffered() {
        let s = server().with_fragment_cache(1 << 20);
        let cold = s.execute_sql(FRAG_SQL).unwrap();
        let cold_bytes = (cold.row_count, cold.byte_size);
        let cold_rows = cold.collect_rows().unwrap();
        let warm = s.execute_sql(FRAG_SQL).unwrap();
        assert_eq!((warm.row_count, warm.byte_size), cold_bytes);
        assert_eq!(warm.query_time, Duration::ZERO, "hit skips execution");
        assert_eq!(warm.collect_rows().unwrap(), cold_rows);
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("cache.fragment.hits"), 1);
        assert_eq!(snap.counter("cache.fragment.misses"), 1);
        assert_eq!(snap.counter("server.queries"), 1, "executed once");
        let info = s.fragment_cache_info().unwrap();
        assert_eq!(info.entries, 1);
        assert!(info.bytes > 0);
    }

    #[test]
    fn fragment_cache_warm_hit_is_byte_identical_streaming() {
        for workers in [false, true] {
            let s = server()
                .with_fragment_cache(1 << 20)
                .with_stream_workers(workers);
            let (cold_rows, cold_count) = drain(s.execute_sql_streaming(FRAG_SQL).unwrap());
            let (warm_rows, warm_count) = drain(s.execute_sql_streaming(FRAG_SQL).unwrap());
            assert_eq!(warm_rows, cold_rows, "workers={workers}");
            assert_eq!(warm_count, cold_count);
            assert_eq!(s.metrics().snapshot().counter("cache.fragment.hits"), 1);
        }
    }

    #[test]
    fn fragment_cache_serves_across_buffered_and_streaming() {
        // Same key space: a fragment captured by the buffered path serves
        // the streaming path (and vice versa) — same shards.
        let s = server().with_fragment_cache(1 << 20);
        let cold = s.execute_sql(FRAG_SQL).unwrap().collect_rows().unwrap();
        let (warm, _) = drain(s.execute_sql_streaming(FRAG_SQL).unwrap());
        assert_eq!(warm, cold);
        assert_eq!(s.metrics().snapshot().counter("cache.fragment.hits"), 1);
    }

    #[test]
    fn fragment_cache_sharded_warm_hit_matches_cold() {
        for k in [2usize, 4] {
            let s = server().with_fragment_cache(1 << 20).with_shards(k);
            let (cold_rows, _) = drain(s.execute_sql_streaming(FRAG_SQL).unwrap());
            let (warm_rows, _) = drain(s.execute_sql_streaming(FRAG_SQL).unwrap());
            assert_eq!(warm_rows, cold_rows, "shards={k}");
            assert_eq!(s.metrics().snapshot().counter("cache.fragment.hits"), 1);
        }
    }

    #[test]
    fn fragment_cache_key_separates_shard_specs() {
        // k=1 and k=2 chunk differently; their fragments must not collide.
        let s1 = server().with_fragment_cache(1 << 20);
        drain(s1.execute_sql_streaming(FRAG_SQL).unwrap());
        assert_eq!(s1.fragment_key(FRAG_SQL), format!("k1|{FRAG_SQL}"));
        let s2 = server().with_fragment_cache(1 << 20).with_shards(2);
        assert_ne!(s1.fragment_key(FRAG_SQL), s2.fragment_key(FRAG_SQL));
    }

    #[test]
    fn set_database_invalidates_fragments() {
        let mut s = server().with_fragment_cache(1 << 20);
        assert_eq!(s.execute_sql(FRAG_SQL).unwrap().row_count, 50);
        let mut db = Database::new();
        let mut t = Table::new(
            "Item",
            Schema::of(&[("id", DataType::Int), ("label", DataType::Str)]),
        );
        for i in 0..3i64 {
            t.insert(row![i, format!("new-{i}")]).unwrap();
        }
        db.add_table(t);
        s.set_database(Arc::new(db));
        assert_eq!(s.fragment_cache_info().unwrap().entries, 0);
        let warm = s.execute_sql(FRAG_SQL).unwrap();
        assert_eq!(warm.row_count, 3, "stale fragment must not be served");
        let rows = warm.collect_rows().unwrap();
        assert_eq!(rows[0].get(1), &Value::str("new-0"));
        assert_eq!(s.metrics().snapshot().counter("cache.fragment.hits"), 0);
    }

    #[test]
    fn fragment_cache_evicts_under_tiny_budget() {
        // Budget fits roughly one result: the second distinct query evicts
        // the first (LRU), and oversized fragments are never admitted.
        let s = server().with_fragment_cache(1 << 20);
        let probe = s.execute_sql(FRAG_SQL).unwrap();
        let one = probe.byte_size;
        drop(probe);
        let s = server().with_fragment_cache(one + one / 2);
        drain(s.execute_sql_streaming(FRAG_SQL).unwrap());
        let other = "SELECT i.label AS label FROM Item i ORDER BY label";
        drain(s.execute_sql_streaming(other).unwrap());
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("cache.fragment.evictions"), 1);
        let info = s.fragment_cache_info().unwrap();
        assert_eq!(info.entries, 1);
        assert!(info.bytes <= info.budget);
        // The survivor is the label query; re-running it hits.
        drain(s.execute_sql_streaming(other).unwrap());
        assert_eq!(snap.counter("cache.fragment.hits"), 0);
        assert_eq!(s.metrics().snapshot().counter("cache.fragment.hits"), 1);
    }

    #[test]
    fn fragment_cache_never_caches_a_failed_stream() {
        let s = server()
            .with_fragment_cache(1 << 20)
            .with_faults(FaultPlan::parse("panic@scan", 1).unwrap())
            .with_stream_workers(true);
        let mut stream = s.execute_sql_streaming(FRAG_SQL).unwrap();
        let mut failed = false;
        loop {
            match stream.next_row() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "injected fault must surface");
        assert_eq!(
            s.fragment_cache_info().unwrap().entries,
            0,
            "a failed stream must never commit a fragment"
        );
    }

    #[test]
    fn fragment_cache_abandoned_stream_commits_nothing() {
        let s = server()
            .with_fragment_cache(1 << 20)
            .with_stream_workers(false);
        let mut stream = s.execute_sql_streaming(FRAG_SQL).unwrap();
        // Decode a few rows, then drop mid-stream: the capture must be
        // discarded, not committed as a short fragment.
        for _ in 0..5 {
            stream.next_row().unwrap();
        }
        drop(stream);
        assert_eq!(s.fragment_cache_info().unwrap().entries, 0);
        // The next run executes for real and serves the full result.
        let (rows, _) = drain(s.execute_sql_streaming(FRAG_SQL).unwrap());
        assert_eq!(rows.len(), 50);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// Interleaving queries with invalidations never serves a stale
        /// fragment: after any operation sequence, every query's rows match
        /// a cache-less server over the same (current) database.
        #[test]
        fn fragment_cache_interleaving_never_stale(ops in proptest::collection::vec(0u8..4, 1..24)) {
            let mut cached = server().with_fragment_cache(1 << 20);
            let plain = server();
            let queries = [
                FRAG_SQL,
                "SELECT i.id AS id FROM Item i WHERE i.id < 10 ORDER BY id",
                "SELECT i.label AS label, i.id AS id FROM Item i ORDER BY label",
            ];
            for op in ops {
                match op {
                    0..=2 => {
                        let sql = queries[op as usize];
                        let got = cached.execute_sql(sql).unwrap().collect_rows().unwrap();
                        let want = plain.execute_sql(sql).unwrap().collect_rows().unwrap();
                        proptest::prop_assert_eq!(got, want);
                    }
                    _ => {
                        // Refresh to an identical catalog: contents do not
                        // change, but every cached fragment must be dropped
                        // (set_database cannot see that the data matches).
                        let mut db = Database::new();
                        let mut t = Table::new(
                            "Item",
                            Schema::of(&[("id", DataType::Int), ("label", DataType::Str)]),
                        );
                        for i in 0..50i64 {
                            t.insert(row![i, format!("item-{i}")]).unwrap();
                        }
                        db.add_table(t);
                        cached.set_database(Arc::new(db));
                        proptest::prop_assert_eq!(
                            cached.fragment_cache_info().unwrap().entries, 0
                        );
                    }
                }
            }
        }
    }
}
