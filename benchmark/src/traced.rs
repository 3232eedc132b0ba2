//! The traced run: where the time goes, layer by layer.
//!
//! A fixed slice of the workload's schedule is re-executed **disassembled**:
//! the harness itself calls `sr_xpath::compose` → `sr_plan::gen_plan` →
//! `sr_sqlgen::generate_queries` → per stream `Server::optimized_plan`,
//! `Server::execute_sql`, a drain of `TupleStream::next_row` →
//! `sr_tagger::tag_streams`, with a span around every call. Spans live in
//! an in-memory [`Tracer`] until the run ends. A layer's self time is its
//! span minus the spans nested in it; what is left of the op after every
//! layer's self time is `silkroute.unattributed_ms`, the ledger's residual.
//!
//! The slice is a fixed number of ops, not a time window, so that counts
//! (tuples, bytes, oracle requests, …) repeat exactly from run to run.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::sync::Arc;
use std::time::Instant;

use silkroute::materialize;
use sr_obs::{Json, TracePhase, TraceSpan, Tracer};
use sr_plan::{RecostConfig, Recoster};
use sr_serve::pipeline::{
    resolve_plan, resolve_xpath, run_query, CancelRegistry, RecostContext, XPathResolution,
};
use sr_serve::Format;
use sr_sqlgen::{generate_queries, PlanSpec};
use sr_tagger::{tag_streams, RowSource, StreamInput};
use sr_viewtree::ViewTree;

use crate::alloc::allocations;
use crate::fixture::{
    greedy_plan, ms, us, Fixture, Kind, PlanChoice, PlanLayer, Request, Sample, VIEW_NAMES,
};
use crate::measure::{median, peak_rss_mb, HashSink};
use crate::Metric;

/// Ops in the traced slice (a tenth of that in quick mode).
pub fn traced_ops(quick: bool) -> usize {
    if quick {
        6
    } else {
        60
    }
}

/// The outcome of a traced run.
pub struct Traced {
    /// Ops executed (disassembled, assembled and over TCP).
    pub attempted: usize,
    /// Ops whose output differed from the reference.
    pub failed: usize,
    /// The per-layer metrics of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Share of the traced op wall no layer span accounts for.
    pub unattributed_share: f64,
    /// The spans, as a Chrome trace.
    pub chrome: Json,
}

/// Counts read at the layer boundaries, from return values and from the
/// server's public metrics registry, summed over the traced slice.
#[derive(Default)]
struct Counts {
    pruned_nodes: u64,
    plan: PlanLayer,
    streams: u64,
    sql_bytes: u64,
    frontend_hits: u64,
    sorts_elided: u64,
    tuples: u64,
    wire_bytes: u64,
    engine_allocs: u64,
    tagged_tuples: u64,
    tagger_allocs: u64,
    elements: u64,
    xml_bytes: u64,
}

fn span<'a>(t: &'a Tracer, name: &'static str) -> TraceSpan<'a> {
    TraceSpan::new(Some(t), name)
}

/// Execute one request disassembled, a span per layer call, and check the
/// output against the request's reference. `spec` overrides the plan
/// choice (the serve workload's plans come from the server's re-coster).
fn traced_op(
    fx: &Fixture,
    op: usize,
    req: &Request,
    spec: Option<PlanSpec>,
    t: &Tracer,
    c: &mut Counts,
) -> bool {
    let server = &*fx.server;
    let db = server.database();
    let detail = format!(
        "op={op} view={} plan={} xpath={}",
        VIEW_NAMES[req.view],
        req.plan.wire(),
        req.xpath.as_deref().unwrap_or("-")
    );
    let _op = TraceSpan::with_detail(Some(t), "op", Some(detail));

    let composed;
    let tree: &ViewTree = match &req.xpath {
        None => &fx.trees[req.view],
        Some(x) => {
            let _s = span(t, "sr-xpath.compose");
            let Ok(path) = sr_xpath::parse(x) else {
                return false;
            };
            let Ok(done) = sr_xpath::compose(&fx.trees[req.view], &path) else {
                return false;
            };
            c.pruned_nodes += done.pruned_nodes as u64;
            composed = done;
            &composed.tree
        }
    };

    let spec = match (spec, req.plan, fx.greedy) {
        (Some(spec), _, _) => spec,
        (None, PlanChoice::Unified, _) => PlanSpec::unified(tree),
        (None, PlanChoice::Partitioned, _) => PlanSpec::fully_partitioned(),
        (None, PlanChoice::Greedy, Some(planned)) => planned[req.view],
        (None, PlanChoice::Greedy, None) => {
            let _s = span(t, "sr-plan.genplan");
            let started = Instant::now();
            let Ok((spec, r)) = greedy_plan(tree, server, fx.scale) else {
                return false;
            };
            c.plan.add(started.elapsed(), &r);
            spec
        }
    };

    let queries = {
        let _s = span(t, "sr-sqlgen.generate");
        match generate_queries(tree, db, spec) {
            Ok(q) => q,
            Err(_) => return false,
        }
    };
    c.streams += queries.len() as u64;
    c.sql_bytes += queries.iter().map(|q| q.sql.len() as u64).sum::<u64>();

    let plan_cache_hits = server.metrics().counter("server.plan_cache_hits");
    let mut inputs = Vec::with_capacity(queries.len());
    for q in queries {
        {
            let _s = span(t, "sr-engine.frontend");
            let before = plan_cache_hits.get();
            let Ok((_, elided)) = server.optimized_plan(&q.sql) else {
                return false;
            };
            c.frontend_hits += plan_cache_hits.get() - before;
            c.sorts_elided += elided as u64;
        }
        let stream = {
            let _s = span(t, "sr-engine.execute");
            let before = allocations();
            let Ok(stream) = server.execute_sql(&q.sql) else {
                return false;
            };
            c.engine_allocs += allocations() - before;
            stream
        };
        c.tuples += stream.row_count as u64;
        c.wire_bytes += stream.byte_size as u64;
        let schema = stream.schema.clone();
        let rows = {
            let _s = span(t, "sr-engine.decode");
            match stream.collect_rows() {
                Ok(rows) => rows,
                Err(_) => return false,
            }
        };
        inputs.push((rows, schema, q.reduced));
    }

    match req.format {
        Format::Xml => {
            let inputs: Vec<StreamInput> = inputs
                .into_iter()
                .map(|(rows, schema, reduced)| StreamInput {
                    rows: RowSource::Materialized(rows.into_iter()),
                    schema,
                    reduced,
                })
                .collect();
            let _s = span(t, "sr-tagger.tag");
            let before = allocations();
            let out = BufWriter::new(HashSink::new());
            let Ok((stats, out)) = tag_streams(tree, inputs, out, false) else {
                return false;
            };
            c.tagger_allocs += allocations() - before;
            c.tagged_tuples += stats.tuples;
            c.elements += stats.elements;
            c.xml_bytes += stats.bytes;
            out.into_inner()
                .is_ok_and(|sink| sink.digest() == req.expect.digest)
        }
        Format::Tuples => {
            // What the serve pipeline does with a tuple request: re-encode
            // the decoded rows, a thousand to a chunk.
            let _s = span(t, "sr-serve.tuple_encode");
            let mut sink = HashSink::new();
            let mut rows = 0u64;
            for (stream_rows, _, _) in &inputs {
                rows += stream_rows.len() as u64;
                for chunk in stream_rows.chunks(1024) {
                    sink.write_all(&sr_engine::wire::encode_rows(chunk))
                        .expect("HashSink never fails");
                }
            }
            sink.digest() == req.expect.digest && rows == req.expect.rows
        }
    }
}

/// The same request by a direct in-process call of the serve pipeline —
/// everything `handle_query` does except admission, framing onto a socket
/// and the socket itself. Returns its wall time and the plan it ran, or
/// `None` if it failed.
fn direct_serve_call(fx: &Fixture, req: &Request, recoster: &Recoster) -> Option<(f64, PlanSpec)> {
    let started = Instant::now();
    let tree = match resolve_xpath(Arc::clone(&fx.trees[req.view]), req.xpath.as_deref()).ok()? {
        XPathResolution::Full(tree) | XPathResolution::Pruned { tree, .. } => tree,
        XPathResolution::Empty { .. } => return None,
    };
    let view_key = match &req.xpath {
        Some(x) => format!("{}#xpath:{x}", VIEW_NAMES[req.view]),
        None => VIEW_NAMES[req.view].to_string(),
    };
    let ctx = RecostContext {
        recoster,
        view_key: &view_key,
        engine: &fx.server,
    };
    let spec = resolve_plan(&tree, req.plan.wire(), Some(&ctx)).ok()?;
    run_query(
        &fx.server,
        &tree,
        req.format,
        spec,
        &CancelRegistry::new(),
        &mut HashSink::new(),
        None,
    )
    .ok()?;
    Some((ms(started.elapsed()), spec))
}

/// `genPlan`'s quality, the paper's headline: how much slower the paper's
/// unified plan (the sorted outer-union of [9]) and the fully partitioned
/// plan publish both views than the recommended plan does. Rounds
/// interleave the three plans; medians over rounds.
fn plan_speedups(fx: &Fixture, t: &Tracer, rounds: usize) -> Option<(f64, f64)> {
    let greedy = fx.greedy?;
    const PLANS: [&str; 3] = ["greedy", "outer-union", "partitioned"];
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..rounds {
        for (k, label) in PLANS.into_iter().enumerate() {
            let _s = TraceSpan::with_detail(Some(t), "plan_speedup.round", Some(label.into()));
            let started = Instant::now();
            for (view, tree) in fx.trees.iter().enumerate() {
                let spec = [
                    greedy[view],
                    PlanSpec::sorted_outer_union(tree),
                    PlanSpec::fully_partitioned(),
                ][k];
                materialize(tree, &fx.server, spec, BufWriter::new(HashSink::new())).ok()?;
            }
            times[k].push(ms(started.elapsed()));
        }
    }
    let [greedy, unified, partitioned] = times.map(median);
    Some((unified / greedy, partitioned / greedy))
}

/// Self time per span name inside `op` spans on `lane`, plus the summed
/// wall of the `op` spans themselves. The `op` entry of the map is what no
/// layer span covers.
fn ledger(t: &Tracer, lane: u64) -> (BTreeMap<String, f64>, f64) {
    struct Open {
        name: String,
        start_ns: u64,
        children_ns: u64,
    }
    let mut stack: Vec<Open> = Vec::new();
    let mut self_ms: BTreeMap<String, f64> = BTreeMap::new();
    let mut op_ms = 0.0;
    for e in t.events().into_iter().filter(|e| e.lane == lane) {
        match e.phase {
            TracePhase::Begin => stack.push(Open {
                name: e.name.into_owned(),
                start_ns: e.ts_ns,
                children_ns: 0,
            }),
            TracePhase::End => {
                let Some(open) = stack.pop() else { continue };
                let total_ns = e.ts_ns - open.start_ns;
                if let Some(parent) = stack.last_mut() {
                    parent.children_ns += total_ns;
                }
                let in_op = open.name == "op" || stack.iter().any(|o| o.name == "op");
                if in_op {
                    *self_ms.entry(open.name.clone()).or_default() +=
                        total_ns.saturating_sub(open.children_ns) as f64 / 1e6;
                }
                if open.name == "op" {
                    op_ms += total_ns as f64 / 1e6;
                }
            }
            _ => {}
        }
    }
    (self_ms, op_ms)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The whole traced run of one workload.
pub fn run(kind: Kind, seed: u64, quick: bool) -> Traced {
    let n = traced_ops(quick);
    let tracer = Tracer::new();
    let lane = tracer.name_current_thread("harness");

    let fx = {
        let _s = span(&tracer, "setup");
        Fixture::setup(kind, seed, quick)
    };
    let first = fx.warmup_ops;
    let before = fx.server.metrics().snapshot();

    // The traced slice. For the serve workload each op is also issued over
    // TCP and as a direct pipeline call; their difference is the serve
    // layer's own cost.
    let recoster = Recoster::new(RecostConfig::default());
    let mut counts = Counts::default();
    let mut failed = 0usize;
    let mut assembled: Vec<Sample> = Vec::with_capacity(n);
    let mut serve_overhead_ms = Vec::new();
    let mut traced_wall_ms = Vec::with_capacity(n);
    for i in first..first + n {
        let req = fx.request(i);
        let mut spec = None;
        if kind == Kind::ServeMixed {
            let over_tcp = {
                let _s = span(&tracer, "sr-serve.tcp_op");
                fx.run_op(i, 0)
            };
            let direct = {
                let _s = span(&tracer, "sr-serve.direct_op");
                direct_serve_call(&fx, req, &recoster)
            };
            match direct {
                Some((direct_ms, ran)) => {
                    serve_overhead_ms.push(over_tcp.wall_ms - direct_ms);
                    spec = Some(ran);
                }
                None => failed += 1,
            }
            assembled.push(over_tcp);
        }
        let started = Instant::now();
        if !traced_op(&fx, i, req, spec, &tracer, &mut counts) {
            failed += 1;
        }
        traced_wall_ms.push(ms(started.elapsed()));
    }
    let after = fx.server.metrics().snapshot();

    // The same kind of ops through the assembled entry points, for the
    // untraced side of `sr-obs.trace_overhead_ratio` and for the tagger's
    // stall time. They continue the schedule rather than repeat the slice:
    // repeating it would find the slice's SQL in the prepared-plan cache.
    if kind != Kind::ServeMixed {
        for i in first + n..first + 2 * n {
            let _s = span(&tracer, "assembled_op");
            assembled.push(fx.run_op(i, 0));
        }
    }
    failed += assembled.iter().filter(|s| !s.ok).count();
    let speedups = plan_speedups(&fx, &tracer, if quick { 2 } else { 10 });

    let (self_ms, op_ms) = ledger(&tracer, lane);
    let layer_ms = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let ops = n as f64;
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let unattributed = layer_ms("op");

    let setup = &fx.layers;
    let plan = if counts.plan.calls > 0 {
        counts.plan
    } else {
        setup.genplan
    };
    let execute_ms = layer_ms("sr-engine.execute");
    let decode_ms = layer_ms("sr-engine.decode");
    let tag_ms = layer_ms("sr-tagger.tag");
    let assembled_p50 = median(assembled.iter().map(|s| s.wall_ms).collect());
    let traced_p50 = median(traced_wall_ms);
    let mean_of =
        |f: fn(&Sample) -> f64| ratio(assembled.iter().map(f).sum(), assembled.len() as f64);
    let (vs_unified, vs_partitioned) = speedups.unwrap_or((0.0, 0.0));
    let serving = kind == Kind::ServeMixed;

    let m = Metric::new;
    let mut metrics = vec![
        m("sr-tpch.generate_ms", ms(setup.generate), "ms"),
        m("sr-data.db_rows", setup.db_rows as f64, "count"),
        m("sr-data.db_bytes", setup.db_bytes as f64, "bytes"),
        m("sr-rxl.parse_us", us(setup.rxl_parse) / 2.0, "us/view"),
        m(
            "sr-viewtree.build_us",
            us(setup.tree_build) / 2.0,
            "us/view",
        ),
        m(
            "sr-xpath.compose_us",
            layer_ms("sr-xpath.compose") * 1e3 / ops,
            "us/op",
        ),
        m("sr-xpath.pruned_nodes", counts.pruned_nodes as f64, "count"),
        m(
            "sr-plan.genplan_us",
            ratio(us(plan.time), plan.calls as f64),
            "us/call",
        ),
        m(
            "sr-plan.oracle_requests",
            plan.oracle_requests as f64,
            "count",
        ),
        m(
            "sr-plan.oracle_estimate_us",
            ratio(us(plan.oracle_time), plan.calls as f64),
            "us/call",
        ),
        m("sr-plan.speedup_vs_unified", vs_unified, "ratio"),
        m("sr-plan.speedup_vs_partitioned", vs_partitioned, "ratio"),
        m(
            "sr-sqlgen.generate_us",
            layer_ms("sr-sqlgen.generate") * 1e3 / ops,
            "us/op",
        ),
        m("sr-sqlgen.streams", counts.streams as f64, "count"),
        m("sr-sqlgen.sql_bytes", counts.sql_bytes as f64, "bytes"),
        m(
            "sr-engine.frontend_us",
            layer_ms("sr-engine.frontend") * 1e3 / ops,
            "us/op",
        ),
        m(
            "sr-engine.plan_cache_hit_ratio",
            ratio(counts.frontend_hits as f64, counts.streams as f64),
            "ratio",
        ),
        m(
            "sr-engine.sorts_elided",
            counts.sorts_elided as f64,
            "count",
        ),
        m("sr-engine.execute_ms", execute_ms / ops, "ms/op"),
        m("sr-engine.tuples", counts.tuples as f64, "count"),
        m(
            "sr-engine.tuples_per_s",
            ratio(counts.tuples as f64, execute_ms / 1e3),
            "1/s",
        ),
        m("sr-engine.wire_bytes", counts.wire_bytes as f64, "bytes"),
        m("sr-engine.wire_decode_ms", decode_ms / ops, "ms/op"),
        m(
            "sr-engine.decode_mb_per_s",
            ratio(counts.wire_bytes as f64 / 1e6, decode_ms / 1e3),
            "MB/s",
        ),
        m(
            "sr-engine.fragment_hit_ratio",
            ratio(
                delta("cache.fragment.hits"),
                delta("cache.fragment.hits") + delta("cache.fragment.misses"),
            ),
            "ratio",
        ),
        m(
            "sr-engine.fragment_evictions",
            after.counter("cache.fragment.evictions") as f64,
            "count",
        ),
        m(
            "sr-engine.fragment_bytes",
            fx.server
                .fragment_cache_info()
                .map_or(0.0, |i| i.bytes as f64),
            "bytes",
        ),
        m(
            "sr-engine.allocs_per_tuple",
            ratio(counts.engine_allocs as f64, counts.tuples as f64),
            "count",
        ),
        m(
            "sr-tagger.allocs_per_tuple",
            ratio(counts.tagger_allocs as f64, counts.tagged_tuples as f64),
            "count",
        ),
        m("sr-tagger.tag_ms", tag_ms / ops, "ms/op"),
        m(
            "sr-tagger.tuples_per_s",
            ratio(counts.tagged_tuples as f64, tag_ms / 1e3),
            "1/s",
        ),
        m("sr-tagger.stall_ms", mean_of(|s| s.stall_ms), "ms/op"),
        m("sr-tagger.elements", counts.elements as f64, "count"),
        m("sr-tagger.xml_bytes", counts.xml_bytes as f64, "bytes"),
        m(
            "sr-tagger.xml_mb_per_s",
            ratio(counts.xml_bytes as f64 / 1e6, tag_ms / 1e3),
            "MB/s",
        ),
        m("sr-serve.overhead_ms_p50", median(serve_overhead_ms), "ms"),
        m(
            "sr-serve.queue_wait_ms_p50",
            after
                .histogram("serve.queue_wait_ms")
                .map_or(0.0, |h| h.quantile(0.5) as f64),
            "ms",
        ),
        m(
            "sr-serve.rejected",
            after.counter("serve.rejected") as f64,
            "count",
        ),
        m(
            "sr-serve.chunks_per_req",
            mean_of(|s| s.chunks as f64),
            "count",
        ),
        m(
            "sr-serve.bytes_per_req",
            if serving {
                mean_of(|s| s.bytes as f64)
            } else {
                0.0
            },
            "bytes",
        ),
        m(
            "sr-serve.tuple_encode_ms",
            layer_ms("sr-serve.tuple_encode") / ops,
            "ms/op",
        ),
        m("silkroute.op_ms", op_ms / ops, "ms/op"),
        m("silkroute.unattributed_ms", unattributed / ops, "ms/op"),
        m(
            "sr-obs.trace_overhead_ratio",
            ratio(traced_p50, assembled_p50),
            "ratio",
        ),
    ];

    let attempted = n + assembled.len();
    let chrome = tracer.to_chrome_json();
    let unattributed_share = ratio(unattributed, op_ms);
    // Tear the fixture down (server threads joined) before reading the
    // peak, so the number covers the workload's whole life.
    drop(fx);
    metrics.push(m("peak_rss_mb", peak_rss_mb(), "MB"));
    Traced {
        attempted,
        failed,
        metrics,
        unattributed_share,
        chrome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_subtracts_children_and_ignores_spans_outside_ops() {
        let t = Tracer::new();
        let lane = t.name_current_thread("test");
        {
            let _outside = span(&t, "setup");
        }
        for _ in 0..2 {
            let _op = span(&t, "op");
            {
                let _a = span(&t, "layer.a");
                let _b = span(&t, "layer.b");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (self_ms, op_ms) = ledger(&t, lane);
        assert!(!self_ms.contains_key("setup"));
        let total: f64 = self_ms.values().sum();
        assert!(
            (total - op_ms).abs() < 1e-6,
            "self times sum to the op wall"
        );
        assert!(self_ms["layer.b"] >= 4.0 && self_ms["layer.a"] < 1.0);
        assert!(self_ms["op"] >= 2.0 && self_ms["op"] < op_ms);
    }

    #[test]
    fn every_workload_traces_correctly_with_a_closed_ledger() {
        for kind in Kind::ALL {
            let r = run(kind, 5, true);
            assert_eq!(r.failed, 0, "{}", kind.name());
            assert!(r.unattributed_share < 0.5, "{}", kind.name());
            let get = |n: &str| r.metrics.iter().find(|m| m.name == n).unwrap().value;
            assert!(get("sr-engine.tuples") > 0.0);
            assert_eq!(
                get("sr-serve.chunks_per_req") > 0.0,
                kind == Kind::ServeMixed
            );
            assert_eq!(
                get("sr-plan.speedup_vs_unified") > 0.0,
                kind == Kind::PublishGreedy
            );
            assert!(r.chrome.render().contains("\"traceEvents\""));
        }
    }
}
