//! The "target RDBMS": executes SQL strings and answers cost-estimate
//! requests, exposing results as encoded tuple streams.
//!
//! This is the black box the paper's middle-ware talks to. The interface is
//! deliberately string-based: the planner/translator layers above must
//! produce real SQL text, exactly as SilkRoute had to (§3.4). The server:
//!
//! 1. parses and binds the SQL (`query` phase — measured),
//! 2. executes and **encodes** the sorted result into the wire format, and
//! 3. hands back a [`TupleStream`] that the client decodes chunk by chunk
//!    (the "bind and transfer" phase of the paper's *total time*).
//!
//! Every execution — inline, worker thread, `EXPLAIN ANALYZE` — runs one
//! body, `Exec::run` in the `run` module, and differs only in
//! where the encoded chunks go.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sr_data::{Database, Schema, Value};
use sr_obs::{lock_recover, MetricsRegistry, TraceSpan, Tracer};

use crate::analyze::ExplainAnalysis;
use crate::cancel::CancelToken;
use crate::cost::{estimate, estimate_with_nodes, Estimate};
use crate::error::EngineError;
use crate::exec::PlanProfile;
use crate::faults::{FaultInjector, FaultPlan};
use crate::fragment::{CachedFragment, FragmentCache, FragmentCacheInfo, FragmentCapture};
use crate::lru::Lru;
use crate::optimize::{prune_columns, push_filters};
use crate::ordering::elide_sorts;
use crate::plan::Plan;
use crate::run::{spawn_worker, Exec, ExecGate};
use crate::sql::binder::bind;
use crate::sql::lexer::{lex, Spanned};
use crate::sql::parser::parse_tokens;
use crate::sql::shape::shape;
use crate::stream::{queued, StreamItem, TupleStream};

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
    /// An immutable snapshot: every cache below is sound for as long as
    /// the server lives.
    db: Arc<Database>,
    /// Per-query timeout; queries exceeding it report
    /// [`EngineError::Timeout`] (the paper used 5 minutes, §4).
    timeout: Option<Duration>,
    metrics: Arc<MetricsRegistry>,
    tracer: Option<Arc<Tracer>>,
    exec_gate: Arc<ExecGate>,
    stream_workers: bool,
    plan_cache_enabled: bool,
    /// Prepared-plan cache: statement shape (see [`crate::sql::shape`]) →
    /// the shape prepared once, so every later statement of the shape —
    /// the same component query, or one with other literals — costs a
    /// lookup, a plan clone and the binding of its literals.
    plan_cache: Mutex<Lru<Arc<Prepared>>>,
    /// Named prepared statements (see [`Server::estimate_named`]): a name
    /// → an alias of the generic shape entry it was first rendered to.
    names: Mutex<Lru<Named>>,
    /// Deterministic fault injector shared by every execution path; `None`
    /// in production (the common case pays one branch per site).
    faults: Option<Arc<FaultInjector>>,
    /// Max retries of a [`EngineError::Transient`] execution failure.
    transient_retries: u32,
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

/// A kept name: the shape's prepared entry and its shape key.
#[derive(Clone)]
struct Named {
    prepared: Arc<Prepared>,
    shape: Arc<str>,
}

/// The answer to [`Server::estimate_named`].
#[derive(Debug, Clone)]
pub struct NamedEstimate {
    /// The estimate of the statement the name stands for.
    pub estimate: Estimate,
    /// What was estimated: the shape key when the name is kept, so every
    /// name aliasing one shape reports the same statement; otherwise the
    /// rendered SQL text.
    pub statement: Arc<str>,
}

/// Entry cap for the named statements; on overflow the least-recently
/// used name is dropped (the shape's cache entry is not).
const NAMES_CAP: usize = 1024;

/// What [`Server::prepared`] yields: the prepared statement, the literals
/// to bind into it, and the shape key when it is the generic cache entry.
type PreparedFor = (Arc<Prepared>, Vec<Value>, Option<String>);

/// Entry cap for the prepared-plan cache; on overflow the least-recently
/// used shape is evicted (`cache.evictions` counts them).
const PLAN_CACHE_CAP: usize = 256;

/// Default number of transient-failure retries per query.
const DEFAULT_TRANSIENT_RETRIES: u32 = 2;

impl Server {
    /// A server over a database, with no timeout.
    pub fn new(db: Arc<Database>) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Server {
            db,
            timeout: None,
            metrics: Arc::new(MetricsRegistry::new()),
            tracer: None,
            exec_gate: ExecGate::new(cores),
            // A worker thread can only overlap execution with the
            // consumer's tagging when there is a second core to run on. On
            // a single-CPU host the handoff buys nothing and costs context
            // switches and cache interleaving, so streams execute inline.
            stream_workers: cores > 1,
            plan_cache_enabled: true,
            plan_cache: Mutex::new(Lru::new(PLAN_CACHE_CAP)),
            names: Mutex::new(Lru::new(NAMES_CAP)),
            faults: None,
            transient_retries: DEFAULT_TRANSIENT_RETRIES,
            fragment_cache: None,
        }
    }

    /// Enable the materialized-fragment cache with a byte budget (0
    /// disables it). Completed component-query results are kept as
    /// wire-encoded chunks and served back — byte-identically — without
    /// re-executing the SQL. Evicts least-recently-used fragments when over
    /// budget.
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
        self.fragment_cache
            .as_ref()
            .map(|fc| lock_recover(fc).info())
    }

    /// Look up `sql` in the fragment cache, bumping hit/miss counters. The
    /// key is the SQL text: it alone determines the produced chunk sequence
    /// (chunks hold [`crate::wire::CHUNK_ROWS`] rows, the last one fewer).
    fn fragment_lookup(&self, sql: &str) -> Option<CachedFragment> {
        let fc = self.fragment_cache.as_ref()?;
        let hit = lock_recover(fc).get(sql);
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
        Some(FragmentCapture::new(
            fc,
            &self.metrics,
            sql.to_string(),
            schema.clone(),
        ))
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

    /// Enable or disable the prepared-plan cache (on by default), and
    /// with it the named statements. Tests plan with it off as the
    /// reference a cached plan must match.
    pub fn with_plan_cache(mut self, on: bool) -> Self {
        self.plan_cache_enabled = on;
        lock_recover(&self.plan_cache).clear();
        lock_recover(&self.names).clear();
        self
    }

    /// Install a deterministic fault-injection plan: every execution path
    /// consults it at its scan/encode/send sites. Testing only.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(FaultInjector::new(plan)));
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

    /// The cancel token governing one query: carries the server deadline if
    /// one is configured, and is always live so dropping the stream (or
    /// cancelling its [`TupleStream::cancel_handle`]) can stop the worker.
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
    /// `server.plan_cache_prepared`, `server.named_hits`,
    /// `server.named_kept`, `server.panics`, `server.cancelled`, `server.retries`,
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
    /// do — predicate push-down, sort elision, then column pruning. Returns
    /// the plan and the number of sorts elided (exposed for tests and plan
    /// inspection).
    pub fn optimized_plan(&self, sql: &str) -> Result<(Plan, usize), EngineError> {
        let (plan, _, elided) = self.plan_cached(sql)?;
        Ok((plan, elided))
    }

    /// Plan `sql` through the prepared-plan cache: a clone of its shape's
    /// prepared plan with the statement's own literals bound, so the
    /// executor sees a plain literal plan.
    fn plan_cached(&self, sql: &str) -> Result<(Plan, Schema, usize), EngineError> {
        let (p, params, _) = self.prepared(sql)?;
        let mut plan = p.plan.clone();
        plan.bind_params(&params);
        Ok((plan, p.schema.clone(), p.elided))
    }

    /// The prepared form of `sql`, the literals to bind into it, and the
    /// shape key when the prepared form is the generic one the cache holds.
    /// A hit on the statement's shape bumps `server.plan_cache_hits`; a
    /// miss prepares the shape (`server.plan_cache_prepared`) and keeps it
    /// unless its estimate would depend on the literals.
    fn prepared(&self, sql: &str) -> Result<PreparedFor, EngineError> {
        // The statement prepared from its own text, slots and cache unused.
        let unshaped = || Ok((Arc::new(self.prepare(lex(sql)?, &[])?.0), Vec::new(), None));
        if !self.plan_cache_enabled {
            return unshaped();
        }
        let shape = shape(sql)?;
        if let Some(hit) = lock_recover(&self.plan_cache).get(&shape.key) {
            self.metrics.counter("server.plan_cache_hits").inc();
            return Ok((Arc::clone(hit), shape.params, Some(shape.key)));
        }
        self.metrics.counter("server.plan_cache_prepared").inc();
        let (p, generic) = match self.prepare(shape.tokens, &shape.params) {
            Ok(p) => p,
            // A slot can surface in an error message: report the error the
            // statement's own text gets.
            Err(_) => return unshaped(),
        };
        let p = Arc::new(p);
        if !generic {
            return Ok((p, shape.params, None));
        }
        let evicted = lock_recover(&self.plan_cache).insert(shape.key.clone(), Arc::clone(&p));
        self.metrics.counter("cache.evictions").add(evicted);
        Ok((p, shape.params, Some(shape.key)))
    }

    /// Parse → bind → push-down → estimate → elision → column pruning →
    /// schema. Pruning runs last, so it moves no estimate and no sort
    /// decision. Returns whether the result is generic — its slots still
    /// unbound, everything in it independent of their values; otherwise
    /// `params` are bound before the estimate.
    fn prepare(
        &self,
        tokens: Vec<Spanned>,
        params: &[Value],
    ) -> Result<(Prepared, bool), EngineError> {
        let mut plan = bind(&parse_tokens(tokens)?, &self.db)?;
        plan = push_filters(plan, &self.db)?;
        let generic = plan.slots_face_columns();
        if !generic {
            plan.bind_params(params);
        }
        let estimate = estimate(&plan, &self.db);
        let (plan, elided) = elide_sorts(plan, &self.db);
        let plan = prune_columns(plan, &self.db)?;
        let schema = plan.schema(&self.db)?;
        let p = Prepared {
            plan,
            schema,
            elided,
            estimate,
        };
        Ok((p, generic))
    }

    /// The execution context of one run of `sql`, with a fresh cancel
    /// token; `faults` is the server's injector, or `None` where an
    /// execution must not shift its hit counts.
    fn exec(&self, sql: &str, faults: Option<Arc<FaultInjector>>) -> Exec {
        Exec {
            db: Arc::clone(&self.db),
            metrics: Arc::clone(&self.metrics),
            detail: self.tracer.as_ref().map(|_| sql_summary(sql)),
            tracer: self.tracer.clone(),
            token: self.cancel_token(),
            faults,
            retries: self.transient_retries,
            timeout: self.timeout,
        }
    }

    /// Execute a SQL string inline: the result is executed, sorted, and
    /// wire-encoded before the call returns, so execution errors surface
    /// here and the stream's metadata is already final. See
    /// [`Server::execute_sql_streaming`] for the pipelined variant.
    pub fn execute_sql(&self, sql: &str) -> Result<TupleStream, EngineError> {
        if let Some(frag) = self.fragment_lookup(sql) {
            return Ok(frag.into_stream());
        }
        let start = Instant::now();
        let (plan, schema, elided) = {
            let _s = TraceSpan::new(self.tracer.as_deref(), "server.parse_bind");
            self.plan_cached(sql)?
        };
        let parse_bind = start.elapsed();
        self.metrics.counter("exec.sorts_elided").add(elided as u64);
        let exec = self.exec(sql, self.faults.clone());
        let mut chunks = Vec::new();
        let sum = exec.run(&plan, parse_bind, &mut chunks, None)?;
        let rx = queued(chunks, StreamItem::Done(sum));
        let mut stream = TupleStream::new(schema, rx, exec.token);
        stream.set_summary(&sum);
        stream.capture = self.fragment_capture(sql, &stream.schema);
        Ok(stream)
    }

    /// Execute a SQL string as a pipelined stream: the returned
    /// [`TupleStream`] is fed through a channel of encoded chunks, and the
    /// caller decodes (and tags) rows while the server is still executing
    /// and encoding later chunks on a worker thread. Parse/bind/optimize
    /// errors surface synchronously; execution errors and post-hoc timeouts
    /// surface from [`TupleStream::next_chunk`]. Dropping the stream early
    /// terminates the worker at its next send.
    ///
    /// On a single-CPU host (or after `with_stream_workers(false)`) the
    /// query instead executes inline and the chunks are queued up front —
    /// same stream semantics, none of the handoff overhead that buys
    /// nothing without a second core.
    pub fn execute_sql_streaming(&self, sql: &str) -> Result<TupleStream, EngineError> {
        if let Some(frag) = self.fragment_lookup(sql) {
            return Ok(frag.into_stream());
        }
        let start = Instant::now();
        let (plan, schema, elided) = self.plan_cached(sql)?;
        let parse_bind = start.elapsed();
        self.metrics.counter("exec.sorts_elided").add(elided as u64);
        self.metrics.counter("server.streams").inc();

        let exec = self.exec(sql, self.faults.clone());
        let token = exec.token.clone();
        let rx = if self.stream_workers {
            let gate = Arc::clone(&self.exec_gate);
            spawn_worker(exec, gate, plan, parse_bind)
        } else {
            let mut chunks = Vec::new();
            let last = match exec.run(&plan, parse_bind, &mut chunks, None) {
                Ok(sum) => StreamItem::Done(sum),
                Err(e) => StreamItem::Failed(e),
            };
            queued(chunks, last)
        };
        let mut stream = TupleStream::new(schema, rx, token);
        // Tee this miss's chunks into the cache; the capture commits only
        // on the stream's clean terminal item.
        stream.capture = self.fragment_capture(sql, &stream.schema);
        Ok(stream)
    }

    /// Cost-estimate endpoint: the paper's oracle. Answers from catalog
    /// statistics without executing, with the estimate prepared for the
    /// statement's shape — the estimator never looks at a literal operand,
    /// so every statement of one shape gets the same answer.
    pub fn estimate_sql(&self, sql: &str) -> Result<Estimate, EngineError> {
        let start = Instant::now();
        let (p, _, _) = self.prepared(sql)?;
        self.record_estimate(start);
        p.estimate.clone()
    }

    /// The estimate endpoint for a named prepared statement, as a real
    /// RDBMS's `PREPARE name AS …` / `EXPLAIN EXECUTE name`. A kept name
    /// answers from the statement it stands for (`server.named_hits`)
    /// without calling `render`. Otherwise `render` yields the SQL text,
    /// which is estimated like [`Server::estimate_sql`]'s, and the name is
    /// kept (`server.named_kept`) only if the statement's shape is generic
    /// — its estimate independent of every literal — so the name is an
    /// alias of that shape's prepared entry. The database is an immutable
    /// snapshot, so a kept name stays sound for the server's lifetime.
    /// With the plan cache off no name is kept.
    ///
    /// The caller owns the naming: two statements under one name must
    /// differ at most in the literals the shape lifts into slots.
    pub fn estimate_named(
        &self,
        name: &str,
        render: impl FnOnce() -> Result<String, EngineError>,
    ) -> Result<NamedEstimate, EngineError> {
        let hit = lock_recover(&self.names).get(name).cloned();
        let (start, prepared, statement) = match hit {
            Some(n) => {
                self.metrics.counter("server.named_hits").inc();
                (Instant::now(), n.prepared, n.shape)
            }
            None => {
                let sql = render()?;
                let start = Instant::now();
                let (p, _, key) = self.prepared(&sql)?;
                let statement: Arc<str> = match key {
                    Some(key) => {
                        let shape: Arc<str> = key.into();
                        let named = Named {
                            prepared: Arc::clone(&p),
                            shape: Arc::clone(&shape),
                        };
                        lock_recover(&self.names).insert(name.to_string(), named);
                        self.metrics.counter("server.named_kept").inc();
                        shape
                    }
                    None => sql.into(),
                };
                (start, p, statement)
            }
        };
        self.record_estimate(start);
        Ok(NamedEstimate {
            estimate: prepared.estimate.clone()?,
            statement,
        })
    }

    /// Count one answered estimate request and its time since `start`.
    fn record_estimate(&self, start: Instant) {
        self.metrics.counter("server.estimates").inc();
        self.metrics
            .histogram("server.estimate_ns")
            .record_duration(start.elapsed());
    }

    /// `EXPLAIN ANALYZE`: plan the query (through the cache, so the
    /// analyzed plan is exactly the one the execution paths run), estimate
    /// every node's cardinality, then execute with per-node timing and
    /// combine the two into an annotated tree. The execution is real and
    /// bounded like any query's — deadline, panic isolation — and its
    /// per-operator profile is exported to the registry, but it bumps
    /// `server.analyze` rather than `server.queries`, and every node with
    /// an estimate records its Q-error into the `oracle.qerror` histogram
    /// (×1000 fixed point, so 1.0 → 1000).
    pub fn explain_analyze(&self, sql: &str) -> Result<ExplainAnalysis, EngineError> {
        let (plan, _, elided) = self.plan_cached(sql)?;
        let (_, est_rows) = estimate_with_nodes(&plan, &self.db)?;
        // No fault injector: re-running a query to analyze it must not
        // shift the `kind@site#n` hit counts of the queries themselves.
        let exec = self.exec(sql, None);
        let mut profile = PlanProfile::default();
        let sum = exec.run(&plan, Duration::ZERO, &mut (), Some(&mut profile))?;
        let m = &self.metrics;
        m.counter("exec.sorts_elided").add(elided as u64);
        let analysis = ExplainAnalysis::assemble(
            &plan,
            &profile,
            &est_rows,
            elided as u64,
            // The root node's wall time is the whole plan's execution.
            profile.nodes[0].total_time,
            sum.row_count as u64,
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
    use crate::wire::{Cell, CellArena};
    use sr_data::{row, DataType, Row, Table};
    use std::collections::HashMap;

    impl Server {
        /// Replace the admission gate with one holding exactly `n` permits
        /// (production sizes it to `available_parallelism`).
        fn with_exec_permits(mut self, n: usize) -> Self {
            self.exec_gate = ExecGate::new(n);
            self
        }
    }

    fn server() -> Server {
        item_server(50)
    }

    /// A server over one table `Item(id, label)` of `n` rows.
    fn item_server(n: i64) -> Server {
        let mut db = Database::new();
        let mut t = Table::new(
            "Item",
            Schema::of(&[("id", DataType::Int), ("label", DataType::Str)]),
        );
        for i in 0..n {
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
        s.execute_sql("SELECT i.id AS id FROM Item i ORDER BY id")
            .unwrap();
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
        decode(&mut stream);
        assert_eq!(stream.rows_decoded, 50);
        assert!(stream.transfer_time > Duration::ZERO);
    }

    #[test]
    fn stream_iteration_matches_row_count() {
        let s = server();
        let mut stream = s
            .execute_sql("SELECT i.id AS id FROM Item i WHERE i.id < 5 ORDER BY id")
            .unwrap();
        assert_eq!(decode(&mut stream).len(), 5);
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
            assert_eq!(decode(&mut stream), buffered);
            // Metadata is final after full consumption.
            assert_eq!(stream.row_count, 50);
            assert!(stream.byte_size > 0);
            assert!(stream.query_time > Duration::ZERO);
            assert_eq!(stream.rows_decoded, 50);
            let snap = s.metrics().snapshot();
            assert_eq!(snap.counter("server.queries"), 2);
            assert_eq!(snap.counter("server.streams"), 1);
            assert_eq!(snap.counter("server.rows"), 100);
            assert_eq!(snap.counter("server.bytes"), 2 * stream.byte_size as u64);
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
            let err = match stream.next_chunk() {
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
        stream.cancel_handle().cancel();
        let err = match stream.next_chunk() {
            Ok(Some(_)) => panic!("no rows should ship after cancel"),
            Ok(None) => panic!("expected cancellation error"),
            Err(e) => e,
        };
        assert!(matches!(err, EngineError::Cancelled), "{err:?}");
        assert_eq!(s.metrics().snapshot().counter("server.cancelled"), 1);
    }

    #[test]
    fn gate_recovers_from_poisoned_lock() {
        let gate = ExecGate::new(2);
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
        let gate = ExecGate::new(2);
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
    fn vanished_worker_surfaces_truncation() {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let mut stream =
            TupleStream::new(Schema::of(&[("x", DataType::Int)]), rx, CancelToken::none());
        // The sender vanishes without a Done/Failed terminator — the reader
        // must see a hard truncation error, not a clean end of stream.
        drop(tx);
        match stream.next_chunk() {
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
        let third = s
            .execute_sql_streaming(sql)
            .unwrap()
            .collect_rows()
            .unwrap();
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
    fn explain_analyze_is_bounded_like_a_query() {
        let sql = "SELECT i.id AS id FROM Item i ORDER BY id";
        let s = server().with_timeout(Duration::ZERO);
        assert!(matches!(
            s.execute_sql(sql),
            Err(EngineError::Timeout { .. })
        ));
        match s.explain_analyze(sql) {
            Err(EngineError::Timeout { .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("server.timeouts"), 2);
        assert_eq!(snap.counter("server.analyze"), 0);
        // Analyze runs leave the fault injector alone: its hit counts
        // belong to the queries.
        let s = server().with_faults(FaultPlan::parse("panic@scan", 1).unwrap());
        assert_eq!(s.explain_analyze(sql).unwrap().row_count, 50);
        let hits = s.fault_injector().unwrap().hits();
        assert!(hits.iter().all(|&(_, n)| n == 0), "{hits:?}");
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
            decode(&mut stream);
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

    /// Bind a stream to its end through a cell arena, the tagger's path,
    /// returning its rows.
    fn decode(stream: &mut TupleStream) -> Vec<Row> {
        let mut arena = CellArena::new(stream.schema.arity());
        let mut rows = Vec::new();
        while stream.bind_next(&mut arena).unwrap() {
            for r in 0..arena.rows() {
                let row = (0..stream.schema.arity()).map(|c| match arena.cell(r, c) {
                    Cell::Null => Value::Null,
                    Cell::Int(i) => Value::Int(i),
                    Cell::Float(x) => Value::Float(x),
                    Cell::Str(b) => Value::str(std::str::from_utf8(b).unwrap()),
                });
                rows.push(Row::new(row.collect()));
            }
        }
        rows
    }

    #[test]
    fn component_streams_survive_one_permit_gate() {
        // Regression: four component streams whose workers share a single
        // admission permit, drained round-robin chunk by chunk as the
        // tagger's k-way merge drains them, must serialize, not deadlock.
        // Each result overflows its channel, so every worker parks on a
        // full channel; none holds the permit across that blocking send,
        // so the permit always circulates to the stream being drained.
        let s = item_server(20_000)
            .with_stream_workers(true)
            .with_exec_permits(1);
        let sqls: Vec<String> = (0..4)
            .map(|i| format!("SELECT i.id AS id, i.label AS l{i} FROM Item i ORDER BY id"))
            .collect();
        let mut streams: Vec<TupleStream> = sqls
            .iter()
            .map(|sql| s.execute_sql_streaming(sql).unwrap())
            .collect();
        let mut rows = [0usize; 4];
        let mut open = [true; 4];
        while open.contains(&true) {
            for (i, stream) in streams.iter_mut().enumerate() {
                if !open[i] {
                    continue;
                }
                match stream.next_chunk().unwrap() {
                    Some(chunk) => {
                        rows[i] += crate::wire::row_prefix(&chunk, usize::MAX).unwrap().1
                    }
                    None => open[i] = false,
                }
            }
        }
        for (i, stream) in streams.iter().enumerate() {
            assert_eq!(rows[i], 20_000, "stream {i}");
            assert_eq!(stream.row_count, 20_000, "stream {i}");
        }
        assert_eq!(s.metrics().snapshot().counter("server.streams"), 4);
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
    fn vectorized_streaming_matches_tuple() {
        let sql = "SELECT i.id AS id, i.label AS label FROM Item i ORDER BY id";
        let base = reference_rows(&server(), sql);
        for workers in [false, true] {
            let s = server().with_stream_workers(workers);
            let rows = s
                .execute_sql_streaming(sql)
                .unwrap()
                .collect_rows()
                .unwrap();
            assert_eq!(rows, base, "workers={workers}");
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
    fn chunks_pack_partial_batches_into_full_chunks() {
        // The filter leaves the first scan batch short (1014 rows) and the
        // rest whole: packed, every path cuts chunks by row count alone.
        let sql = "SELECT i.id AS id, i.label AS label FROM Item i WHERE i.id >= 10";
        let chunks = |mut stream: TupleStream| {
            let mut chunks = Vec::new();
            while let Some(c) = stream.next_chunk().unwrap() {
                chunks.push(c);
            }
            chunks
        };
        for workers in [true, false] {
            let s = item_server(3000).with_stream_workers(workers);
            let streamed = chunks(s.execute_sql_streaming(sql).unwrap());
            let sizes: Vec<usize> = streamed
                .iter()
                .map(|c| crate::wire::row_prefix(c, usize::MAX).unwrap().1)
                .collect();
            assert_eq!(sizes, [1024, 1024, 942], "workers={workers}");
            assert_eq!(chunks(s.execute_sql(sql).unwrap()), streamed);
        }
    }

    /// Decode a stream into rows, also returning the terminal metadata.
    fn drain(mut stream: TupleStream) -> (Vec<Row>, usize) {
        let rows = decode(&mut stream);
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
        // the streaming path (and vice versa).
        let s = server().with_fragment_cache(1 << 20);
        let cold = s.execute_sql(FRAG_SQL).unwrap().collect_rows().unwrap();
        let (warm, _) = drain(s.execute_sql_streaming(FRAG_SQL).unwrap());
        assert_eq!(warm, cold);
        assert_eq!(s.metrics().snapshot().counter("cache.fragment.hits"), 1);
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
        let failed = loop {
            match stream.next_chunk() {
                Ok(Some(_)) => {}
                Ok(None) => break false,
                Err(_) => break true,
            }
        };
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
        // Take the first chunk, then drop mid-stream: the capture must be
        // discarded, not committed as a short fragment.
        stream.next_chunk().unwrap();
        drop(stream);
        assert_eq!(s.fragment_cache_info().unwrap().entries, 0);
        // The next run executes for real and serves the full result.
        let (rows, _) = drain(s.execute_sql_streaming(FRAG_SQL).unwrap());
        assert_eq!(rows.len(), 50);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// Interleaving queries on both paths never serves a wrong
        /// fragment: after any operation sequence, every query's rows match
        /// a cache-less server over the same database.
        #[test]
        fn fragment_cache_interleaving_never_stale(ops in proptest::collection::vec(0u8..6, 1..24)) {
            let cached = server().with_fragment_cache(1 << 20);
            let plain = server();
            let queries = [
                FRAG_SQL,
                "SELECT i.id AS id FROM Item i WHERE i.id < 10 ORDER BY id",
                "SELECT i.label AS label, i.id AS id FROM Item i ORDER BY label",
            ];
            for op in ops {
                let sql = queries[op as usize % 3];
                let stream = if op < 3 {
                    cached.execute_sql(sql)
                } else {
                    cached.execute_sql_streaming(sql)
                };
                let got = stream.unwrap().collect_rows().unwrap();
                let want = plain.execute_sql(sql).unwrap().collect_rows().unwrap();
                proptest::prop_assert_eq!(got, want);
            }
        }
    }
}
