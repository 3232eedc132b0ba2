//! The one execution body every server path runs, [`Exec::run`], and where
//! its encoded chunks go: a queue for inline execution, a bounded channel
//! for a worker thread under the admission gate.

use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use sr_data::column::ColumnBatch;
use sr_data::Database;
use sr_obs::{lock_recover, MetricsRegistry, TraceSpan, Tracer};

use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::exec::{execute_analyzed, execute_profiled_with, ExecProfile, PlanProfile};
use crate::faults::{FaultInjector, FaultSite};
use crate::plan::Plan;
use crate::stream::{StreamItem, StreamSummary};
use crate::vexec::VecResultSet;
use crate::wire::{encode_batch_into, CHUNK_ROWS};

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

/// Base delay of the transient-retry backoff; attempt `n` sleeps
/// `base × 2^(n-1)`.
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(1);

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
pub(crate) struct ExecGate {
    pub(crate) permits: Mutex<usize>,
    cv: Condvar,
}

impl ExecGate {
    /// A gate with `n` permits (at least one).
    pub(crate) fn new(n: usize) -> Arc<ExecGate> {
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
    pub(crate) fn acquire(self: &Arc<Self>) -> ExecPermit {
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

pub(crate) struct ExecPermit {
    gate: Arc<ExecGate>,
}

impl Drop for ExecPermit {
    fn drop(&mut self) {
        let mut n = lock_recover(&self.gate.permits);
        *n += 1;
        self.gate.cv.notify_one();
    }
}

/// Everything one plan execution needs, owned so a worker thread can carry
/// it.
pub(crate) struct Exec {
    pub(crate) db: Arc<Database>,
    pub(crate) metrics: Arc<MetricsRegistry>,
    pub(crate) tracer: Option<Arc<Tracer>>,
    /// Detail of the execution's trace span (set only when tracing).
    pub(crate) detail: Option<String>,
    pub(crate) token: CancelToken,
    pub(crate) faults: Option<Arc<FaultInjector>>,
    pub(crate) retries: u32,
    pub(crate) timeout: Option<Duration>,
}

/// Where [`Exec::run`] puts the encoded chunks of a result.
pub(crate) trait ChunkSink {
    /// About to encode the next chunk (a worker re-takes its admission
    /// permit here).
    fn ready(&mut self) {}

    /// Take one encoded chunk; an error ends the execution.
    fn push(&mut self, chunk: Bytes) -> Result<(), EngineError>;
}

/// Inline execution: chunks queue up for the stream's channel.
impl ChunkSink for Vec<Bytes> {
    fn push(&mut self, chunk: Bytes) -> Result<(), EngineError> {
        Vec::push(self, chunk);
        Ok(())
    }
}

/// `EXPLAIN ANALYZE`: the result is encoded like a query's, then dropped.
impl ChunkSink for () {
    fn push(&mut self, _: Bytes) -> Result<(), EngineError> {
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

/// Run `plan` on a worker thread that ships its chunks over a bounded
/// channel, executing and encoding under an admission permit from `gate`.
/// The gate cannot deadlock when a consumer drains several component
/// streams chunk by chunk: no worker holds a permit across a blocking send,
/// so a worker parked on a full channel always releases its permit to
/// whichever stream the consumer is actually draining.
pub(crate) fn spawn_worker(
    exec: Exec,
    gate: Arc<ExecGate>,
    plan: Plan,
    parse_bind: Duration,
) -> Receiver<StreamItem> {
    let (tx, rx) = sync_channel(STREAM_CHANNEL_BOUND);
    std::thread::spawn(move || {
        let lane = exec
            .tracer
            .as_ref()
            .map(|t| t.name_current_thread("server execute worker"));
        let mut sink = ChannelSink {
            tx,
            gate,
            permit: None,
            exec: &exec,
            lane,
        };
        sink.ready();
        let last = match exec.run(&plan, parse_bind, &mut sink, None) {
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
    ///
    /// With `analyze`, the run also fills in per-node stats for
    /// `EXPLAIN ANALYZE` and counts as `server.analyze`, not as a query.
    pub(crate) fn run<S: ChunkSink>(
        &self,
        plan: &Plan,
        parse_bind: Duration,
        sink: &mut S,
        analyze: Option<&mut PlanProfile>,
    ) -> Result<StreamSummary, EngineError> {
        let tracer = self.tracer.as_deref();
        let analyzed = analyze.is_some();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let t_exec = Instant::now();
            let (rs, profile) = {
                let _s = TraceSpan::with_detail(tracer, "query.execute", self.detail.clone());
                self.execute_with_retry(plan, analyze)?
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
                self.fault(FaultSite::Send)?;
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
        if analyzed {
            m.counter("server.analyze").inc();
        } else {
            m.counter("server.queries").inc();
            m.counter("server.rows").add(row_count as u64);
            m.counter("server.bytes").add(byte_size as u64);
            m.histogram("server.parse_bind_ns")
                .record_duration(parse_bind);
            m.histogram("server.execute_ns").record_duration(execute);
            m.histogram("server.encode_ns").record_duration(encode);
            m.histogram("server.query_ns").record_duration(query_time);
        }
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
        })
    }

    /// Execute with bounded retry on [`EngineError::Transient`]: each retry
    /// backs off exponentially, bumps `server.retries`, and re-checks the
    /// cancel token so retrying never outlives the query's deadline. All
    /// other errors (and success) pass straight through.
    fn execute_with_retry(
        &self,
        plan: &Plan,
        mut analyze: Option<&mut PlanProfile>,
    ) -> Result<(VecResultSet, ExecProfile), EngineError> {
        let mut attempt = 0u32;
        loop {
            let run = match analyze.as_deref_mut() {
                Some(nodes) => execute_analyzed(plan, &self.db, &self.token).map(|(rs, p, n)| {
                    *nodes = n;
                    (rs, p)
                }),
                None => execute_profiled_with(plan, &self.db, &self.token, self.faults.as_deref()),
            };
            match run {
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

/// Cuts a result into wire chunks of [`CHUNK_ROWS`] rows, packing
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
        let mut want = CHUNK_ROWS.min(self.left);
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
