//! Request execution: resolve a view, compose its XPath, plan it, run the
//! component queries, and tag the result.
//!
//! [`publish`] is the paper's middle-ware loop (§1, Fig. 7) and the only
//! copy of it: submit one SQL string per component, read back the sorted
//! tuple streams, and merge and tag them into the document. Every entry
//! point runs it — the library's `materialize` family and `query_view`, the
//! CLI, the experiment harness, and [`run_query`] for a connection, which
//! points it at a chunking frame writer and registers every stream's cancel
//! handle so a disconnect (or an explicit CANCEL frame) aborts the
//! producers mid-query.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sr_engine::{EngineError, Server, TupleStream};
use sr_obs::{MetricsRegistry, Tracer};
use sr_plan::Recoster;
use sr_sqlgen::{generate_queries, GeneratedQuery, PlanSpec, QueryStyle};
use sr_tagger::{tag_streams_traced, RowSource, StreamInput, TagError, TagStats};
use sr_viewtree::ViewTree;
use sr_xpath::{ComposeError, XPathError};

use crate::frame::{ChunkFrame, DoneStats, ErrorCode, Format, ViewRef, DOC_CHANNEL};

/// Named views the server is willing to materialize. Built by the caller
/// (the CLI registers the paper's `query1` / `query2`); sr-serve itself has
/// no opinion about which views exist.
#[derive(Default)]
pub struct ViewCatalog {
    views: BTreeMap<String, Arc<ViewTree>>,
}

impl ViewCatalog {
    /// An empty catalog (only inline RXL requests will resolve).
    pub fn new() -> ViewCatalog {
        ViewCatalog::default()
    }

    /// Register a view under a name; replaces any previous binding.
    pub fn insert(&mut self, name: impl Into<String>, tree: ViewTree) -> &mut Self {
        self.views.insert(name.into(), Arc::new(tree));
        self
    }

    /// Look up a registered view.
    pub fn get(&self, name: &str) -> Option<Arc<ViewTree>> {
        self.views.get(name).cloned()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.views.keys().map(String::as_str).collect()
    }
}

/// A failure while serving one request.
#[derive(Debug)]
pub enum PipelineError {
    /// Reportable to the client as an error frame.
    Typed {
        /// Wire error category.
        code: ErrorCode,
        /// Detail message.
        message: String,
    },
    /// The client connection itself broke while writing the response;
    /// there is nobody left to send an error frame to.
    ClientGone(std::io::Error),
}

impl PipelineError {
    fn typed(code: ErrorCode, message: impl Into<String>) -> PipelineError {
        PipelineError::Typed {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Typed { message, .. } => f.write_str(message),
            PipelineError::ClientGone(e) => write!(f, "client connection lost: {e}"),
        }
    }
}

/// Map an engine failure onto its wire error category.
fn engine_code(e: &EngineError) -> ErrorCode {
    match e {
        EngineError::Timeout { .. } => ErrorCode::Timeout,
        EngineError::Cancelled => ErrorCode::Cancelled,
        EngineError::Internal(_) | EngineError::TruncatedStream { .. } => ErrorCode::Internal,
        _ => ErrorCode::Engine,
    }
}

fn engine_err(e: EngineError) -> PipelineError {
    PipelineError::typed(engine_code(&e), e.to_string())
}

/// Map a tagging failure onto the response: an Io failure is the *client*
/// socket, not the engine — the peer went away mid-response.
fn tag_err(e: TagError) -> PipelineError {
    match e {
        TagError::Io(e) => PipelineError::ClientGone(e),
        TagError::Engine(e) => engine_err(e),
        e @ (TagError::Structure(_) | TagError::MalformedTree(_)) => {
            PipelineError::typed(ErrorCode::Internal, e.to_string())
        }
    }
}

/// Resolve the request's view reference against the catalog (named) or the
/// RXL front-end (inline source).
pub fn resolve_view(
    catalog: &ViewCatalog,
    db: &sr_data::Database,
    view: &ViewRef,
) -> Result<Arc<ViewTree>, PipelineError> {
    match view {
        ViewRef::Named(name) => catalog.get(name).ok_or_else(|| {
            PipelineError::typed(
                ErrorCode::UnknownView,
                format!(
                    "unknown view {name:?}; registered: {}",
                    catalog.names().join(", ")
                ),
            )
        }),
        ViewRef::Rxl(src) => {
            // Inline source is untrusted client input: anything wrong with
            // the *text* — including tripping the parser's nesting-depth
            // guard — is the client's BAD_QUERY, not a server-side Engine
            // failure.
            let q = sr_rxl::parse(src).map_err(|e| {
                PipelineError::typed(ErrorCode::BadQuery, format!("parse error: {e}"))
            })?;
            let tree = sr_viewtree::build(&q, db).map_err(|e| {
                PipelineError::typed(ErrorCode::BadQuery, format!("build error: {e}"))
            })?;
            Ok(Arc::new(tree))
        }
    }
}

/// Why a virtual-view query failed.
#[derive(Debug)]
pub enum QueryError {
    /// The XPath text did not parse.
    Parse(XPathError),
    /// The path parsed but cannot be composed with this view.
    Compose(ComposeError),
    /// The pruned materialization failed downstream.
    Tag(TagError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Compose(e) => write!(f, "{e}"),
            QueryError::Tag(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<XPathError> for QueryError {
    fn from(e: XPathError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<TagError> for QueryError {
    fn from(e: TagError) -> Self {
        QueryError::Tag(e)
    }
}

/// What composing a request's XPath with its view produced.
pub enum XPathResolution {
    /// No XPath on the request: materialize the full view.
    Full(Arc<ViewTree>),
    /// The view tree pruned to what the path touches, predicates pushed
    /// into the retained rule bodies.
    Pruned {
        /// The pruned tree the request plans and runs against.
        tree: Arc<ViewTree>,
        /// Nodes the path pruned away (for `query.pruned_nodes`).
        pruned_nodes: usize,
    },
    /// The path statically matches nothing: the response is an empty
    /// document and no SQL runs at all.
    Empty {
        /// The whole view counts as pruned.
        pruned_nodes: usize,
    },
}

impl XPathResolution {
    /// Count a composed path: `query.view_hits` once, `query.pruned_nodes`
    /// by what it pruned — the one place either counter moves. A request
    /// without a path, or with one that failed to compose, counts nothing.
    pub fn count(&self, metrics: &MetricsRegistry) {
        let pruned_nodes = match self {
            XPathResolution::Full(_) => return,
            XPathResolution::Pruned { pruned_nodes, .. }
            | XPathResolution::Empty { pruned_nodes } => *pruned_nodes,
        };
        metrics.counter("query.view_hits").inc();
        metrics
            .counter("query.pruned_nodes")
            .add(pruned_nodes as u64);
    }
}

/// Compose an XPath with a view: [`XPathResolution::Pruned`], or
/// [`XPathResolution::Empty`] when the path statically matches nothing.
/// The typed core of [`resolve_xpath`], for callers that tell a path that
/// does not parse from one this view cannot answer (predicate across a
/// `*`/`+` edge, multi-node step, …).
pub fn compose_xpath(tree: &ViewTree, xpath: &str) -> Result<XPathResolution, QueryError> {
    let path = sr_xpath::parse(xpath)?;
    match sr_xpath::compose(tree, &path) {
        Ok(c) => Ok(XPathResolution::Pruned {
            pruned_nodes: c.pruned_nodes,
            tree: Arc::new(c.tree),
        }),
        Err(ComposeError::NoMatch) => Ok(XPathResolution::Empty {
            pruned_nodes: tree.nodes.len(),
        }),
        Err(e) => Err(QueryError::Compose(e)),
    }
}

/// Compose the request's optional XPath with the resolved view. Either
/// failure of [`compose_xpath`] is the client's [`ErrorCode::BadQuery`].
pub fn resolve_xpath(
    tree: Arc<ViewTree>,
    xpath: Option<&str>,
) -> Result<XPathResolution, PipelineError> {
    match xpath {
        None => Ok(XPathResolution::Full(tree)),
        Some(src) => compose_xpath(&tree, src)
            .map_err(|e| PipelineError::typed(ErrorCode::BadQuery, format!("xpath error: {e}"))),
    }
}

/// The server-side context that makes `greedy` a servable plan spec: a
/// shared [`Recoster`] (learned re-costing state), the view's feedback key,
/// and the engine whose catalog and stats planning runs against.
pub struct RecostContext<'a> {
    /// Shared learned-actuals + per-view plan state.
    pub recoster: &'a Recoster,
    /// Feedback key identifying the view (name, or inline source).
    pub view_key: &'a str,
    /// The engine to plan against.
    pub engine: &'a Server,
}

/// Parse a wire plan-spec string with [`PlanSpec::parse`], reduced and
/// outer-join style. `greedy` consults the cost oracle and is only servable
/// when the caller supplies a [`RecostContext`] — the learned re-coster then
/// plans the view (serving a cached spec until accumulated Q-error triggers
/// a re-plan); without one, requesting it over the wire remains a typed
/// error.
pub fn resolve_plan(
    tree: &ViewTree,
    plan: &str,
    recost: Option<&RecostContext<'_>>,
) -> Result<PlanSpec, PipelineError> {
    let bad_plan = |message: String| PipelineError::typed(ErrorCode::BadPlan, message);
    match PlanSpec::parse(tree, plan, true, QueryStyle::OuterJoin).map_err(bad_plan)? {
        Some(spec) => Ok(spec),
        None => match recost {
            Some(rc) => rc
                .recoster
                .plan(rc.view_key, tree, rc.engine)
                .map_err(engine_err),
            None => Err(bad_plan(
                "greedy planning needs the server's re-coster; pick a plan with \
                 `silkroute plan` and submit it as edges:<bits>"
                    .into(),
            )),
        },
    }
}

/// The cancel tokens of every component stream a connection currently has
/// in flight, plus a sticky cancelled flag so a disconnect that races
/// stream registration still wins.
#[derive(Default)]
pub struct CancelRegistry {
    inner: Mutex<RegistryState>,
}

#[derive(Default)]
struct RegistryState {
    tokens: Vec<sr_engine::CancelToken>,
    cancelled: bool,
}

impl CancelRegistry {
    /// Empty registry.
    pub fn new() -> CancelRegistry {
        CancelRegistry::default()
    }

    /// Register a stream's cancel handle. If the connection already died,
    /// the token is cancelled on the spot instead of stored.
    pub fn register(&self, token: sr_engine::CancelToken) {
        let mut st = self.inner.lock().expect("cancel registry lock");
        if st.cancelled {
            token.cancel();
        } else {
            st.tokens.push(token);
        }
    }

    /// Cancel everything registered and everything registered later.
    pub fn cancel_all(&self) {
        let mut st = self.inner.lock().expect("cancel registry lock");
        st.cancelled = true;
        for t in st.tokens.drain(..) {
            t.cancel();
        }
    }

    /// Whether [`CancelRegistry::cancel_all`] has fired.
    pub fn is_cancelled(&self) -> bool {
        self.inner.lock().expect("cancel registry lock").cancelled
    }

    /// Forget the current request's tokens (it completed); the sticky
    /// cancelled flag is cleared so the connection can run another query.
    pub fn reset(&self) {
        let mut st = self.inner.lock().expect("cancel registry lock");
        st.tokens.clear();
        st.cancelled = false;
    }
}

/// How [`publish`] runs one request.
pub struct Publish<'a> {
    /// When the request started: plan time runs from here to the call of
    /// [`publish`], total time to its return.
    pub started: Instant,
    /// Submit every query up front on the streaming path, so server-side
    /// execution overlaps with decode and tagging; otherwise run each query
    /// to completion before submitting the next, which keeps per-stream
    /// server times disjoint wall-clock intervals.
    pub streaming: bool,
    /// Indent the XML.
    pub pretty: bool,
    /// Register every stream's cancel handle here.
    pub cancels: Option<&'a CancelRegistry>,
    /// Record a lane per stream (`stream 0..n`) and the tagger merge here.
    pub tracer: Option<&'a Arc<Tracer>>,
}

/// What [`publish`] did.
#[derive(Debug, Clone)]
pub struct Published {
    /// The SQL text of each stream, in stream order.
    pub sqls: Vec<String>,
    /// Tagger statistics, per stream and in total.
    pub stats: TagStats,
    /// From [`Publish::started`] to the first submission.
    pub plan_time: Duration,
    /// Inside the tagger, stream decode and stalls included.
    pub tag_time: Duration,
    /// From [`Publish::started`] to the last byte written.
    pub total_time: Duration,
}

impl Publish<'_> {
    /// Submit component query `i` of a request, with its cancel handle
    /// registered and its trace lane named `stream {i}`.
    fn submit(&self, server: &Server, sql: &str, i: usize) -> Result<TupleStream, EngineError> {
        let mut stream = if self.streaming {
            server.execute_sql_streaming(sql)?
        } else {
            server.execute_sql(sql)?
        };
        if let Some(cancels) = self.cancels {
            cancels.register(stream.cancel_handle());
        }
        if let Some(t) = self.tracer {
            stream.set_trace(t, &i.to_string());
        }
        Ok(stream)
    }
}

/// Submit every generated query to `server` and merge and tag the tuple
/// streams into `out` — the one function that feeds server streams to the
/// tagger.
pub fn publish<W: Write>(
    server: &Server,
    tree: &ViewTree,
    queries: Vec<GeneratedQuery>,
    out: W,
    args: Publish<'_>,
) -> Result<(Published, W), TagError> {
    let plan_time = args.started.elapsed();
    let mut sqls = Vec::with_capacity(queries.len());
    let mut inputs = Vec::with_capacity(queries.len());
    for (i, q) in queries.into_iter().enumerate() {
        let stream = args.submit(server, &q.sql, i)?;
        sqls.push(q.sql);
        inputs.push(StreamInput {
            schema: stream.schema.clone(),
            rows: RowSource::Stream(Box::new(stream)),
            reduced: q.reduced,
        });
    }
    let tag_start = Instant::now();
    let tracer = args.tracer.map(|t| &**t);
    let (stats, out) = tag_streams_traced(tree, inputs, out, args.pretty, tracer)?;
    let published = Published {
        sqls,
        stats,
        plan_time,
        tag_time: tag_start.elapsed(),
        total_time: args.started.elapsed(),
    };
    Ok((published, out))
}

/// Target payload size for a chunk frame. Small enough that cancellation
/// latency stays low (the writer surfaces between chunks), large enough
/// that framing overhead disappears into the noise.
const CHUNK_BYTES: usize = 32 * 1024;

/// Rows per tuple-mode chunk.
const CHUNK_ROWS: usize = 1024;

/// An `io::Write` that packages bytes into `RESP_CHUNK` frames on an
/// underlying writer. The tagger writes the XML document into this.
struct FrameChunkWriter<'a, W: Write> {
    out: &'a mut W,
    frame: ChunkFrame,
    shipped: u64,
    /// Time spent inside the underlying writer (frame encode + socket
    /// write, i.e. client backpressure) — the `encode_ms` of the request's
    /// timing breakdown.
    write_ns: u64,
}

impl<'a, W: Write> FrameChunkWriter<'a, W> {
    fn new(out: &'a mut W) -> Self {
        FrameChunkWriter {
            out,
            frame: ChunkFrame::with_capacity(CHUNK_BYTES),
            shipped: 0,
            write_ns: 0,
        }
    }

    fn ship(&mut self, channel: u16) -> std::io::Result<()> {
        self.shipped += self.frame.payload_len() as u64;
        let started = Instant::now();
        let r = self.frame.write_to(channel, self.out);
        self.write_ns += started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        r
    }
}

impl<W: Write> Write for FrameChunkWriter<'_, W> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.frame.extend(data);
        if self.frame.payload_len() >= CHUNK_BYTES {
            self.ship(DOC_CHANNEL)?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.ship(DOC_CHANNEL)?;
        self.out.flush()
    }
}

/// What [`run_query`] reports beyond the wire-visible [`DoneStats`]: the
/// per-phase timing breakdown and per-request context for the query log
/// and the windowed instruments.
#[derive(Debug, Default)]
pub struct RunStats {
    /// The DONE-frame summary.
    pub done: DoneStats,
    /// View planning + SQL generation time.
    pub plan_ms: f64,
    /// Time inside the response writer (frame encode + socket write,
    /// including client backpressure).
    pub encode_ms: f64,
    /// Whether every component plan came out of the prepared-plan cache
    /// (best-effort: sampled from the shared counter, so concurrent
    /// requests can inflate it).
    pub cache_hit: bool,
    /// The generated component SQL, in stream order — what a slow-query
    /// capture re-runs under EXPLAIN ANALYZE.
    pub sqls: Vec<String>,
    /// Actual rows each component stream produced, in stream order
    /// (parallel to `sqls`) — the feedback the learned re-coster consumes.
    pub per_stream_rows: Vec<u64>,
}

/// Execute one already-admitted query request end to end, writing chunk
/// frames to `out`. Returns the stats for the DONE frame plus the timing
/// breakdown; the caller sends DONE / ERROR itself.
///
/// An XML request is a [`publish`] into a chunking frame writer; a tuple
/// request submits the same way but forwards each component stream's wire
/// chunks untagged. When `tracer` is set, every component stream (and, for
/// XML, the tagger merge) records into it — the serve layer arms one per
/// request when `--slow-ms` is active and writes the trace out only if the
/// request turns out slow.
pub fn run_query<W: Write>(
    engine: &Server,
    tree: &ViewTree,
    format: Format,
    spec: PlanSpec,
    cancels: &CancelRegistry,
    out: &mut W,
    tracer: Option<&Arc<Tracer>>,
) -> Result<RunStats, PipelineError> {
    let started = Instant::now();
    if cancels.is_cancelled() {
        return Err(engine_err(EngineError::Cancelled));
    }
    let queries = generate_queries(tree, engine.database(), spec).map_err(engine_err)?;
    let streams = queries.len() as u64;
    let plan_ms = started.elapsed().as_secs_f64() * 1e3;
    let plan_cache_hits = engine.metrics().counter("server.plan_cache_hits");
    let cache_hits_before = plan_cache_hits.get();
    let mut writer = FrameChunkWriter::new(out);
    let args = Publish {
        started,
        streaming: true,
        pretty: false,
        cancels: Some(cancels),
        tracer,
    };

    let (sqls, per_stream_rows, elements) = match format {
        Format::Xml => {
            let (p, _) = publish(engine, tree, queries, &mut writer, args).map_err(tag_err)?;
            writer.flush().map_err(PipelineError::ClientGone)?;
            let rows = p.stats.per_stream.iter().map(|s| s.tuples).collect();
            (p.sqls, rows, p.stats.elements)
        }
        Format::Tuples => {
            let mut sqls = Vec::with_capacity(queries.len());
            let mut per_stream_rows = Vec::with_capacity(queries.len());
            for (i, q) in queries.into_iter().enumerate() {
                let mut stream = args.submit(engine, &q.sql, i).map_err(engine_err)?;
                sqls.push(q.sql);
                // The engine's chunks are already the response's bytes:
                // forward them as they are, cut on row boundaries so that
                // no frame carries more than `CHUNK_ROWS` rows.
                let mut stream_rows = 0u64;
                while let Some(chunk) = stream.next_chunk().map_err(engine_err)? {
                    let mut rest: &[u8] = &chunk;
                    while !rest.is_empty() {
                        let (len, rows) =
                            sr_engine::wire::row_prefix(rest, CHUNK_ROWS).map_err(engine_err)?;
                        stream_rows += rows as u64;
                        writer.frame.extend(&rest[..len]);
                        writer.ship(i as u16).map_err(PipelineError::ClientGone)?;
                        rest = &rest[len..];
                    }
                }
                per_stream_rows.push(stream_rows);
            }
            writer.out.flush().map_err(PipelineError::ClientGone)?;
            (sqls, per_stream_rows, 0)
        }
    };
    Ok(RunStats {
        done: DoneStats {
            tuples: per_stream_rows.iter().sum(),
            elements,
            bytes: writer.shipped,
            streams,
            elapsed_us: started.elapsed().as_micros().min(u64::MAX as u128) as u64,
        },
        plan_ms,
        encode_ms: writer.write_ns as f64 / 1e6,
        cache_hit: streams > 0 && plan_cache_hits.get() - cache_hits_before >= streams,
        sqls,
        per_stream_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_specs_parse() {
        let db = sr_tpch::generate(sr_tpch::Scale::mb(0.05)).expect("tpch");
        let tree = {
            let q = sr_rxl::parse(
                "from Supplier $s construct <supplier> <name>$s.name</name> </supplier>",
            )
            .expect("rxl");
            sr_viewtree::build(&q, &db).expect("build")
        };
        assert!(resolve_plan(&tree, "unified", None).is_ok());
        assert!(resolve_plan(&tree, "", None).is_ok());
        assert!(resolve_plan(&tree, "partitioned", None).is_ok());
        assert!(resolve_plan(&tree, "outer-union", None).is_ok());
        assert!(resolve_plan(&tree, "edges:0", None).is_ok());
        // Without a re-coster, `greedy` stays a typed error; with one it
        // plans the view (and caches the spec under the feedback key).
        for bad in ["greedy", "edges:x", "bogus"] {
            match resolve_plan(&tree, bad, None) {
                Err(PipelineError::Typed { code, .. }) => assert_eq!(code, ErrorCode::BadPlan),
                other => panic!("{bad}: expected BadPlan, got {other:?}"),
            }
        }
        let engine = Server::new(Arc::new(db));
        let recoster = Recoster::new(sr_plan::RecostConfig::default());
        let ctx = RecostContext {
            recoster: &recoster,
            view_key: "v",
            engine: &engine,
        };
        assert!(resolve_plan(&tree, "greedy", Some(&ctx)).is_ok());
        assert_eq!(recoster.plan_count("v"), 1);
    }

    #[test]
    fn tuple_responses_forward_engine_chunks_cut_on_row_boundaries() {
        let db = Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(0.5)).expect("tpch"));
        let tree = silkroute::query1_tree(&db);
        let spec = resolve_plan(&tree, "partitioned", None).expect("plan");
        let sqls: Vec<String> = generate_queries(&tree, &db, spec)
            .expect("component queries")
            .into_iter()
            .map(|q| q.sql)
            .collect();
        // Cold, the engine streams chunks of at most `CHUNK_ROWS` rows;
        // primed through the buffered path, the fragment cache hands each
        // stream back as one chunk however long. Same frames either way.
        let cold = Server::new(Arc::clone(&db));
        let primed = Server::new(Arc::clone(&db)).with_fragment_cache(64 << 20);
        let mut expect = Vec::new();
        for sql in &sqls {
            let rows = primed
                .execute_sql(sql)
                .expect("prime")
                .collect_rows()
                .expect("rows");
            expect.push(sr_engine::wire::encode_rows(&rows).to_vec());
        }
        assert!(
            expect
                .iter()
                .any(|e| sr_engine::wire::row_prefix(e, usize::MAX).unwrap().1 > CHUNK_ROWS),
            "the fixture must have a stream longer than one frame"
        );

        for engine in [&cold, &primed] {
            let mut wire = Vec::new();
            let cancels = CancelRegistry::new();
            let stats = run_query(
                engine,
                &tree,
                Format::Tuples,
                spec,
                &cancels,
                &mut wire,
                None,
            )
            .expect("tuple request");
            let mut got = vec![Vec::new(); sqls.len()];
            let mut frames = &wire[..];
            while let Some(resp) = crate::frame::read_response(&mut frames).expect("frame") {
                let crate::frame::Response::Chunk { channel, data } = resp else {
                    panic!("only chunk frames are written here");
                };
                let (len, rows) = sr_engine::wire::row_prefix(&data, usize::MAX).expect("rows");
                assert_eq!(len, data.len(), "a frame holds whole rows");
                assert!((1..=CHUNK_ROWS).contains(&rows), "{rows} rows in one frame");
                got[channel as usize].extend_from_slice(&data);
            }
            assert!(
                got == expect,
                "forwarded payload differs from the re-encoded rows"
            );
            let total: usize = expect.iter().map(Vec::len).sum();
            assert_eq!(stats.done.bytes, total as u64);
            let rows = |e: &Vec<u8>| sr_engine::wire::row_prefix(e, usize::MAX).unwrap().1 as u64;
            assert_eq!(stats.done.tuples, expect.iter().map(rows).sum::<u64>());
            assert_eq!(stats.done.streams, sqls.len() as u64);
        }
        let hits = primed.metrics().snapshot().counter("cache.fragment.hits");
        assert_eq!(
            hits,
            sqls.len() as u64,
            "the primed engine served from its cache"
        );
    }

    /// A tuple-format request feeds the re-coster exactly what the same XML
    /// request does: one actual row count per component query, in order.
    #[test]
    fn tuple_requests_feed_the_recoster_like_xml_requests() {
        let db = Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(0.1)).expect("tpch"));
        let tree = silkroute::query1_tree(&db);
        let engine = Server::new(Arc::clone(&db));
        let mut observed = Vec::new();
        for format in [Format::Xml, Format::Tuples] {
            let recoster = Recoster::new(sr_plan::RecostConfig::default());
            let ctx = RecostContext {
                recoster: &recoster,
                view_key: "query1",
                engine: &engine,
            };
            let spec = resolve_plan(&tree, "greedy", Some(&ctx)).expect("greedy plan");
            let cancels = CancelRegistry::new();
            let stats = run_query(
                &engine,
                &tree,
                format,
                spec,
                &cancels,
                &mut Vec::new(),
                None,
            )
            .expect("request");
            assert_eq!(stats.sqls.len() as u64, stats.done.streams);
            assert_eq!(stats.per_stream_rows.len(), stats.sqls.len(), "{format:?}");
            // What the serve loop does with a finished request.
            let accum: Vec<f64> = stats
                .sqls
                .iter()
                .zip(&stats.per_stream_rows)
                .map(|(sql, &rows)| recoster.observe("query1", sql, rows))
                .collect();
            let actuals: Vec<Option<u64>> = stats
                .sqls
                .iter()
                .map(|sql| recoster.actuals().get(sql))
                .collect();
            assert_eq!(recoster.actuals().len(), stats.sqls.len());
            observed.push((stats.sqls, stats.per_stream_rows, accum, actuals));
        }
        assert_eq!(observed[0], observed[1], "tuple and XML requests diverge");
    }

    #[test]
    fn cancel_registry_is_sticky() {
        let reg = CancelRegistry::new();
        let tok = sr_engine::CancelToken::unbounded();
        reg.register(tok.clone());
        assert!(!tok.is_cancelled());
        reg.cancel_all();
        assert!(tok.is_cancelled());
        // Late registration after the connection died: cancelled on entry.
        let late = sr_engine::CancelToken::unbounded();
        reg.register(late.clone());
        assert!(late.is_cancelled());
        reg.reset();
        let fresh = sr_engine::CancelToken::unbounded();
        reg.register(fresh.clone());
        assert!(!fresh.is_cancelled());
    }
}
