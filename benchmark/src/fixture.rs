//! Workload definitions and set-up: the database, the views, the plans,
//! the request schedule with its reference outputs, and the one function
//! that runs a request the way a user of the system would.
//!
//! Everything the program under test sees is generated here from the seed;
//! the program itself never sees the seed.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silkroute::{calibrated_params, materialize, materialize_buffered, query_view};
use sr_engine::{EngineError, Server};
use sr_plan::{gen_plan, GreedyResult, Oracle};
use sr_serve::{Client, Format, ServeConfig, ServeHandle, ViewCatalog, ViewRef};
use sr_sqlgen::{generate_queries, PlanSpec, QueryStyle};
use sr_tpch::Scale;
use sr_viewtree::ViewTree;

use crate::measure::{Digest, HashSink};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `materialize` under the `genPlan`-recommended plan; engine-bound.
    PublishGreedy,
    /// Fully partitioned plan served from a warm fragment cache;
    /// decode + merge + tag + XML write bound.
    PublishPartitionedWarm,
    /// Short XPath requests planned per request; front-end bound.
    XpathSelective,
    /// A request mix over TCP on two connections.
    ServeMixed,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] = [
        Kind::PublishGreedy,
        Kind::PublishPartitionedWarm,
        Kind::XpathSelective,
        Kind::ServeMixed,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PublishGreedy => "publish_greedy",
            Kind::PublishPartitionedWarm => "publish_partitioned_warm",
            Kind::XpathSelective => "xpath_selective",
            Kind::ServeMixed => "serve_mixed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop callers: one, except the two connections of the serve
    /// workload (the host has two cores; the load generator shares them
    /// with the program under test).
    pub fn callers(self) -> usize {
        match self {
            Kind::ServeMixed => 2,
            _ => 1,
        }
    }

    /// Warm-up ops run at the end of set-up (a tenth of that in quick mode).
    pub fn warmup_ops(self, quick: bool) -> usize {
        let full = match self {
            Kind::ServeMixed => 40,
            _ => 20,
        };
        if quick {
            full / 10
        } else {
            full
        }
    }
}

/// Database size: the paper's Config A, a quarter of it in quick mode.
pub fn scale_mb(quick: bool) -> f64 {
    if quick {
        0.25
    } else {
        1.0
    }
}

/// Which plan a request runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanChoice {
    /// One SQL query (outer-join style).
    Unified,
    /// One SQL query per view-tree node.
    Partitioned,
    /// What `genPlan` recommends: planned once in set-up by
    /// `publish_greedy`, per request by `xpath_selective`, by the server's
    /// re-coster in `serve_mixed`.
    Greedy,
}

impl PlanChoice {
    /// The plan-spec string of the serve protocol.
    pub fn wire(self) -> &'static str {
        match self {
            PlanChoice::Unified => "unified",
            PlanChoice::Partitioned => "partitioned",
            PlanChoice::Greedy => "greedy",
        }
    }
}

/// The two named views, in `Request::view` order.
pub const VIEW_NAMES: [&str; 2] = ["query1", "query2"];

/// One op of a workload's schedule.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index into [`VIEW_NAMES`].
    pub view: usize,
    /// XPath over the virtual view, if any.
    pub xpath: Option<String>,
    /// Plan to run under.
    pub plan: PlanChoice,
    /// Response encoding (always XML in process).
    pub format: Format,
    /// The reference output.
    pub expect: Expect,
}

/// What a correct response looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Length and hash of the payload bytes.
    pub digest: Digest,
    /// Decoded row count (tuple format only; 0 for XML).
    pub rows: u64,
}

/// One executed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Submit → last byte in the sink / DONE frame.
    pub wall_ms: f64,
    /// Submit → first byte in the sink / first CHUNK frame.
    pub ttfb_ms: f64,
    /// Completed and byte-identical to the reference.
    pub ok: bool,
    /// Time the tagger sat blocked on its streams (in-process ops).
    pub stall_ms: f64,
    /// CHUNK frames received (serve ops).
    pub chunks: u64,
    /// Payload bytes received.
    pub bytes: u64,
}

/// Layer timings and counts that only exist during set-up. Always
/// collected — they are a handful of clock reads — and reported by the
/// traced run.
#[derive(Debug, Clone, Default)]
pub struct SetupLayers {
    /// `sr_tpch::generate`.
    pub generate: Duration,
    /// Rows in the generated database.
    pub db_rows: usize,
    /// Bytes in the generated database.
    pub db_bytes: usize,
    /// `sr_rxl::parse`, summed over the two views.
    pub rxl_parse: Duration,
    /// `sr_viewtree::build`, summed over the two views.
    pub tree_build: Duration,
    /// `gen_plan` calls made in set-up, their total time, and the oracle
    /// traffic they caused.
    pub genplan: PlanLayer,
}

/// Accumulated cost of `genPlan` calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanLayer {
    /// Calls made.
    pub calls: u64,
    /// Wall time inside `gen_plan`.
    pub time: Duration,
    /// Distinct estimate requests sent to the server.
    pub oracle_requests: u64,
    /// Wall time inside the server's estimate endpoint.
    pub oracle_time: Duration,
}

impl PlanLayer {
    /// Account one `gen_plan` call.
    pub fn add(&mut self, took: Duration, r: &GreedyResult) {
        self.calls += 1;
        self.time += took;
        self.oracle_requests += r.oracle_requests as u64;
        self.oracle_time += r.oracle_time;
    }
}

/// A running `sr-serve` front-end and the connections that load it.
pub struct Serve {
    handle: Option<ServeHandle>,
    /// One connection per closed-loop caller; caller `k` locks `clients[k]`
    /// for the length of an op and nobody else ever wants it.
    pub clients: Vec<Mutex<Client>>,
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

/// A workload, set up and warm.
pub struct Fixture {
    /// Which workload.
    pub kind: Kind,
    /// Database scale (size and seed).
    pub scale: Scale,
    /// The engine, built with the defaults a user gets.
    pub server: Arc<Server>,
    /// The compiled views, in [`VIEW_NAMES`] order.
    pub trees: [Arc<ViewTree>; 2],
    /// The `genPlan`-recommended plan per view (`publish_greedy` only).
    pub greedy: Option<[PlanSpec; 2]>,
    /// The op schedule; op `i` is `requests[i % requests.len()]`.
    pub requests: Vec<Request>,
    /// The TCP front-end (`serve_mixed` only).
    pub serve: Option<Serve>,
    /// Ops already run as warm-up; the timed run continues the schedule.
    pub warmup_ops: usize,
    /// Set-up-only layer numbers.
    pub layers: SetupLayers,
}

/// Run `genPlan` over a fresh oracle and return its recommended plan.
pub fn greedy_plan(
    tree: &ViewTree,
    server: &Server,
    scale: Scale,
) -> Result<(PlanSpec, GreedyResult), EngineError> {
    let oracle = Oracle::new(server, calibrated_params(scale));
    let r = gen_plan(tree, server.database(), &oracle, true)?;
    let spec = PlanSpec {
        edges: r.recommended(),
        reduce: true,
        style: QueryStyle::OuterJoin,
    };
    Ok((spec, r))
}

/// The reference XML of `(tree, xpath)`: built by the buffered path under
/// the sorted outer-union plan — a path and a plan no workload times. The
/// document is defined by the view tree, not by the plan that produced it.
fn reference_xml(server: &Server, tree: &ViewTree, xpath: Option<&str>) -> Expect {
    let composed;
    let tree = match xpath {
        None => tree,
        Some(x) => {
            let path = sr_xpath::parse(x).expect("workload xpath parses");
            composed = sr_xpath::compose(tree, &path).expect("workload xpath matches the view");
            &composed.tree
        }
    };
    let (_, sink) = materialize_buffered(
        tree,
        server,
        PlanSpec::sorted_outer_union(tree),
        HashSink::new(),
    )
    .expect("reference document");
    let digest = sink.digest();
    assert!(digest.bytes > 0, "reference for {xpath:?} is empty");
    Expect { digest, rows: 0 }
}

/// The reference tuple streams of `(tree, spec)`: each component query run
/// to completion in process, decoded, and re-encoded in one piece.
fn reference_tuples(server: &Server, tree: &ViewTree, spec: PlanSpec) -> Expect {
    let mut sink = HashSink::new();
    let mut rows = 0u64;
    for q in generate_queries(tree, server.database(), spec).expect("reference SQL") {
        let stream = server.execute_sql(&q.sql).expect("reference stream");
        let decoded = stream.collect_rows().expect("reference rows");
        rows += decoded.len() as u64;
        sink.write_all(&sr_engine::wire::encode_rows(&decoded))
            .expect("HashSink never fails");
    }
    Expect {
        digest: sink.digest(),
        rows,
    }
}

/// Part names that occur in the data, `n` of them drawn by seed.
fn part_names(server: &Server, rng: &mut StdRng, n: usize) -> Vec<String> {
    let part = server.database().table("Part").expect("Part table");
    let col = part.schema().require("name").expect("Part.name");
    (0..n)
        .map(|_| {
            let row = &part.rows()[rng.gen_range(0..part.len())];
            row.get(col)
                .as_str()
                .expect("Part.name is text")
                .to_string()
        })
        .collect()
}

/// An order-key bound that keeps 4–9 % of the orders.
fn orderkey_bound(scale: Scale, rng: &mut StdRng) -> i64 {
    let orders = scale.orders() as i64;
    rng.gen_range(orders * 4 / 100..orders * 9 / 100)
}

impl Fixture {
    /// Set a workload up: generate the database, compile the views, plan,
    /// build the schedule and its references, start the server if the
    /// workload has one, and run the warm-up ops.
    pub fn setup(kind: Kind, seed: u64, quick: bool) -> Fixture {
        let scale = Scale {
            mb: scale_mb(quick),
            seed,
        };
        let mut layers = SetupLayers::default();

        let t = Instant::now();
        let db = sr_tpch::generate(scale).expect("TPC-H generation");
        layers.generate = t.elapsed();
        layers.db_rows = db.row_count();
        layers.db_bytes = db.byte_size();

        let server = Server::new(Arc::new(db));
        let server = Arc::new(match kind {
            // Sized to hold every fragment of both views many times over.
            Kind::PublishPartitionedWarm => server.with_fragment_cache(256 << 20),
            _ => server,
        });

        let trees = [silkroute::QUERY1_RXL, silkroute::QUERY2_RXL].map(|src| {
            let t = Instant::now();
            let view = sr_rxl::parse(src).expect("view parses");
            layers.rxl_parse += t.elapsed();
            let t = Instant::now();
            let tree = sr_viewtree::build(&view, server.database()).expect("view builds");
            layers.tree_build += t.elapsed();
            Arc::new(tree)
        });

        let greedy = (kind == Kind::PublishGreedy).then(|| {
            [0, 1].map(|v| {
                let t = Instant::now();
                let (spec, r) = greedy_plan(&trees[v], &server, scale).expect("genPlan");
                layers.genplan.add(t.elapsed(), &r);
                spec
            })
        });

        // The request mix is drawn from the seed, decorrelated from the
        // data generator's use of the same seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut fx = Fixture {
            kind,
            scale,
            server,
            trees,
            greedy,
            requests: Vec::new(),
            serve: None,
            warmup_ops: 0,
            layers,
        };
        let templates = match kind {
            Kind::PublishGreedy => publish_schedule(PlanChoice::Greedy),
            Kind::PublishPartitionedWarm => publish_schedule(PlanChoice::Partitioned),
            Kind::XpathSelective => xpath_schedule(&fx, &mut rng, quick),
            Kind::ServeMixed => serve_schedule(&fx, &mut rng),
        };
        fx.requests = fx.with_references(templates);
        if kind == Kind::ServeMixed {
            fx.serve = Some(fx.start_server());
        }
        fx.warm_up(kind.warmup_ops(quick));
        fx
    }

    /// Attach the reference output to every template, building each
    /// distinct reference once.
    fn with_references(&self, templates: Vec<Template>) -> Vec<Request> {
        let mut xml: HashMap<(usize, Option<String>), Expect> = HashMap::new();
        let mut tuples: HashMap<(usize, PlanChoice), Expect> = HashMap::new();
        templates
            .into_iter()
            .map(|t| {
                let tree = &self.trees[t.view];
                let expect = match t.format {
                    Format::Xml => *xml
                        .entry((t.view, t.xpath.clone()))
                        .or_insert_with(|| reference_xml(&self.server, tree, t.xpath.as_deref())),
                    Format::Tuples => *tuples.entry((t.view, t.plan)).or_insert_with(|| {
                        let spec = match t.plan {
                            PlanChoice::Unified => PlanSpec::unified(tree),
                            PlanChoice::Partitioned => PlanSpec::fully_partitioned(),
                            PlanChoice::Greedy => {
                                unreachable!("tuple requests use fixed plans")
                            }
                        };
                        reference_tuples(&self.server, tree, spec)
                    }),
                };
                Request {
                    view: t.view,
                    xpath: t.xpath,
                    plan: t.plan,
                    format: t.format,
                    expect,
                }
            })
            .collect()
    }

    fn start_server(&self) -> Serve {
        let mut catalog = ViewCatalog::new();
        for (name, tree) in VIEW_NAMES.iter().zip(&self.trees) {
            catalog.insert(*name, ViewTree::clone(tree));
        }
        let handle = sr_serve::serve(Arc::clone(&self.server), catalog, ServeConfig::default())
            .expect("bind 127.0.0.1:0");
        let addr = handle.local_addr();
        let clients = (0..self.kind.callers())
            .map(|_| Mutex::new(Client::connect(addr).expect("connect to the server under test")))
            .collect();
        Serve {
            handle: Some(handle),
            clients,
        }
    }

    /// Run the first `n` ops of the schedule untimed. They warm the plan
    /// cache, the fragment cache and the server's re-coster, and they must
    /// already be correct.
    fn warm_up(&mut self, n: usize) {
        for i in 0..n {
            let s = self.run_op(i, 0);
            assert!(s.ok, "{}: warm-up op {i} failed", self.kind.name());
        }
        self.warmup_ops = n;
    }

    /// The request op `i` runs.
    pub fn request(&self, i: usize) -> &Request {
        &self.requests[i % self.requests.len()]
    }

    /// Run op `i` the way a user would — through `materialize`,
    /// `query_view`, or the TCP connection of closed-loop caller `caller`
    /// — and check its output.
    pub fn run_op(&self, i: usize, caller: usize) -> Sample {
        let req = self.request(i);
        match &self.serve {
            Some(serve) => {
                let mut client = serve.clients[caller]
                    .lock()
                    .expect("a caller panicked mid-request");
                run_over_tcp(req, &mut client)
            }
            None => self.run_in_process(req),
        }
    }

    fn run_in_process(&self, req: &Request) -> Sample {
        let tree = &self.trees[req.view];
        let server = &*self.server;
        let sink = BufWriter::new(HashSink::new());
        let mut plan_failed = false;
        let start = Instant::now();
        let done = match (&req.xpath, req.plan) {
            (None, plan) => {
                let spec = match plan {
                    PlanChoice::Unified => PlanSpec::unified(tree),
                    PlanChoice::Partitioned => PlanSpec::fully_partitioned(),
                    PlanChoice::Greedy => {
                        self.greedy.expect("greedy plans are made in set-up")[req.view]
                    }
                };
                materialize(tree, server, spec, sink)
                    .map(|(m, w)| (m.stats.total_stall_time(), w))
                    .map_err(|e| e.to_string())
            }
            (Some(xpath), _) => query_view(
                tree,
                server,
                xpath,
                |pruned| match greedy_plan(pruned, server, self.scale) {
                    Ok((spec, _)) => spec,
                    Err(_) => {
                        plan_failed = true;
                        PlanSpec::fully_partitioned()
                    }
                },
                sink,
            )
            .map(|(o, w)| {
                let stall = o.materialization.map(|m| m.stats.total_stall_time());
                (stall.unwrap_or_default(), w)
            })
            .map_err(|e| e.to_string()),
        };
        let wall = start.elapsed();
        let Ok((stall, sink)) = done else {
            return Sample::failed(wall);
        };
        let Ok(sink) = sink.into_inner() else {
            return Sample::failed(wall);
        };
        let ttfb = sink.first_byte().map_or(wall, |t| t - start);
        let digest = sink.digest();
        Sample {
            wall_ms: ms(wall),
            ttfb_ms: ms(ttfb),
            ok: !plan_failed && digest == req.expect.digest,
            stall_ms: ms(stall),
            chunks: 0,
            bytes: digest.bytes,
        }
    }
}

impl Sample {
    fn failed(wall: Duration) -> Sample {
        Sample {
            wall_ms: ms(wall),
            ttfb_ms: ms(wall),
            ok: false,
            stall_ms: 0.0,
            chunks: 0,
            bytes: 0,
        }
    }
}

/// Milliseconds, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One request over the wire: time to the first CHUNK and to DONE, payload
/// hashed as it arrives. Tuple payloads are kept and decoded after the
/// clock stops, to count rows.
fn run_over_tcp(req: &Request, client: &mut Client) -> Sample {
    let mut sink = HashSink::new();
    let mut chunks = 0u64;
    let mut tuple_bytes = Vec::new();
    let start = Instant::now();
    let mut exchange = || -> Result<(), sr_serve::ClientError> {
        client.send(&sr_serve::Request::Query {
            format: req.format,
            view: ViewRef::Named(VIEW_NAMES[req.view].into()),
            plan: req.plan.wire().into(),
            xpath: req.xpath.clone(),
        })?;
        loop {
            match client.read()? {
                Some(sr_serve::Response::Chunk { data, .. }) => {
                    chunks += 1;
                    sink.write_all(&data).expect("HashSink never fails");
                    if req.format == Format::Tuples {
                        tuple_bytes.extend_from_slice(&data);
                    }
                }
                Some(sr_serve::Response::Done(_)) => return Ok(()),
                // ERROR, BUSY, a stray frame or EOF: the op failed.
                other => {
                    return Err(sr_serve::ClientError::Unexpected(format!("{other:?}")));
                }
            }
        }
    };
    let outcome = exchange();
    let wall = start.elapsed();
    if outcome.is_err() {
        return Sample::failed(wall);
    }
    let ttfb = sink.first_byte().map_or(wall, |t| t - start);
    let digest = sink.digest();
    let mut rows = 0u64;
    let mut buf = bytes::Bytes::from(tuple_bytes);
    while let Ok(Some(_)) = sr_engine::wire::decode_row(&mut buf) {
        rows += 1;
    }
    Sample {
        wall_ms: ms(wall),
        ttfb_ms: ms(ttfb),
        ok: digest == req.expect.digest && rows == req.expect.rows,
        stall_ms: 0.0,
        chunks,
        bytes: digest.bytes,
    }
}

/// A request before its reference is attached.
struct Template {
    view: usize,
    xpath: Option<String>,
    plan: PlanChoice,
    format: Format,
}

/// Whole documents under one plan: `query1`, `query2`, `query2`. The two
/// views take different times, so a 1:1 mix would put the median in the gap
/// between the two modes, where it flips from one to the other between
/// runs; at 1:2 the median lies inside `query2`'s times and the 95th
/// percentile inside `query1`'s.
fn publish_schedule(plan: PlanChoice) -> Vec<Template> {
    [0, 1, 1]
        .map(|view| Template {
            view,
            xpath: None,
            plan,
            format: Format::Xml,
        })
        .into()
}

/// Requests over `query1` in three shapes, round robin, each with its own
/// literal drawn from the data. The pool is a cycle far longer than the
/// engine's 256-entry prepared-plan cache can hold (each request plans
/// several component queries, plus `genPlan`'s estimates), so a request
/// misses that cache when the cycle comes round again, exactly as a never
/// repeated literal would — but its reference can be built in set-up.
fn xpath_schedule(fx: &Fixture, rng: &mut StdRng, quick: bool) -> Vec<Template> {
    let per_shape = if quick { 10 } else { 100 };
    let names = part_names(&fx.server, rng, per_shape);
    let mut out = Vec::with_capacity(3 * per_shape);
    for name in names {
        let bound = orderkey_bound(fx.scale, rng);
        for xpath in [
            "/supplier/name".to_string(),
            format!("/supplier/part[name = \"{name}\"]/order"),
            format!("//order[orderkey < {bound}]"),
        ] {
            out.push(Template {
                view: 0,
                xpath: Some(xpath),
                plan: PlanChoice::Greedy,
                format: Format::Xml,
            });
        }
    }
    out
}

/// A hundred requests in fixed proportions, shuffled by seed: plan
/// unified 30 / partitioned 30 / greedy 40; tuple format 20 (fixed plans
/// only — a greedy plan's streams depend on what the re-coster learned,
/// so they have no fixed reference), XML 80 of which 12 carry an XPath;
/// views alternate within every class.
fn serve_schedule(fx: &Fixture, rng: &mut StdRng) -> Vec<Template> {
    use PlanChoice::{Greedy, Partitioned, Unified};
    let name = part_names(&fx.server, rng, 1).remove(0);
    let bound = orderkey_bound(fx.scale, rng);
    let xpaths = [
        "/supplier/name".to_string(),
        format!("/supplier/part[name = \"{name}\"]"),
        format!("//order[orderkey < {bound}]"),
    ];
    let mut out = Vec::with_capacity(100);
    let mut push = |n: usize, plan: PlanChoice, format: Format, with_xpath: bool| {
        for k in 0..n {
            out.push(Template {
                view: k % 2,
                xpath: with_xpath.then(|| xpaths[k % xpaths.len()].clone()),
                plan,
                format,
            });
        }
    };
    push(10, Unified, Format::Tuples, false);
    push(10, Partitioned, Format::Tuples, false);
    push(17, Unified, Format::Xml, false);
    push(17, Partitioned, Format::Xml, false);
    push(34, Greedy, Format::Xml, false);
    push(3, Unified, Format::Xml, true);
    push(3, Partitioned, Format::Xml, true);
    push(6, Greedy, Format::Xml, true);
    // Fisher–Yates, so the classes interleave the same way for one seed.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::digest_of;

    #[test]
    fn every_workload_sets_up_and_answers_correctly() {
        for kind in Kind::ALL {
            let fx = Fixture::setup(kind, 7, true);
            assert!(fx.warmup_ops > 0);
            for i in fx.warmup_ops..fx.warmup_ops + 6 {
                let s = fx.run_op(i, 0);
                assert!(s.ok, "{} op {i}", kind.name());
                assert!(s.bytes > 0 && s.ttfb_ms <= s.wall_ms);
            }
        }
    }

    #[test]
    fn a_wrong_reference_is_a_failed_op() {
        let mut fx = Fixture::setup(Kind::PublishGreedy, 7, true);
        fx.requests[0].expect.digest = digest_of(b"not the document");
        assert!(!fx.run_op(0, 0).ok);
        assert!(fx.run_op(1, 0).ok);
    }
}
