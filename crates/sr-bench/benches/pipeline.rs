//! Pipelined streaming execution vs. the pre-PR baseline, over the
//! Fig. 13/14 plan families.
//!
//! This bench is not a figure from the paper: it measures the two halves of
//! the executor hot-path work against the configuration that predates them.
//! Three modes are compared on every marker plan of Query 1 and Query 2:
//!
//! * **baseline** — the pre-PR configuration: sort elision and the
//!   prepared-plan cache disabled (`Server::with_sort_elision(false)`,
//!   `with_plan_cache(false)`) and sequential buffered execution
//!   (`run_plan_buffered`, each component query executed to completion
//!   before the next).
//! * **sequential** — elision and plan cache enabled, still buffered.
//!   Isolates the win from the planning-side work alone.
//! * **pipelined** — the default `run_plan` path: elision enabled, every
//!   component query submitted up front as a stream, tagging overlapping
//!   with server-side execution.
//! * **traced** — the pipelined path with a structured trace sink
//!   installed (`Server::with_tracer`), pricing the tracing subsystem;
//!   the `trace_overhead` ratio in the JSON is traced over pipelined wall
//!   time and must stay within +5%.
//!
//! The headline number is baseline vs. pipelined on the multi-stream
//! plans, i.e. "what did this PR buy end to end". Per-stage
//! `server_ms` / `transfer_ms` / `tag_ms` decompositions and the elided
//! sort counts are recorded per point. Note that on a single-CPU host the
//! streaming path degrades to inline execution (no worker threads), so the
//! pipelined-vs-sequential delta there reflects elision plus the leaner
//! chunk-encode path, not true overlap; the JSON records the host's
//! available parallelism so readers can tell which regime produced it.
//!
//! Set `SR_BENCH_QUICK=1` for a CI-sized run (small scale, Query 1 only,
//! single repetition). Results land in
//! `target/bench-results/BENCH_pipeline.json`.

use std::sync::Arc;

use silkroute::{run_plan, run_plan_buffered, Config, Measurement, PlanSpec, QueryStyle, Server};
use sr_obs::{Json, Tracer};
use sr_tpch::Scale;
use sr_viewtree::{EdgeSet, ViewTree};

/// One measured plan point: the same spec run in all three modes.
struct Point {
    query: &'static str,
    plan: &'static str,
    streams: usize,
    sorts_elided: u64,
    baseline: Measurement,
    sequential: Measurement,
    pipelined: Measurement,
    traced: Measurement,
}

impl Point {
    /// End-to-end: pre-PR configuration vs. the new default path.
    fn speedup(&self) -> f64 {
        self.baseline.total_ms / self.pipelined.total_ms
    }

    /// Cost of recording a full trace: pipelined-with-tracer over plain
    /// pipelined wall time (1.0 = free; the acceptance bar is ≤ 1.05).
    fn trace_overhead(&self) -> f64 {
        self.traced.total_ms / self.pipelined.total_ms
    }
}

fn keep_min(slot: &mut Option<Measurement>, m: Measurement) {
    assert!(!m.timed_out, "untimed plan reported a timeout");
    if slot
        .as_ref()
        .map(|b| m.total_ms < b.total_ms)
        .unwrap_or(true)
    {
        *slot = Some(m);
    }
}

#[allow(clippy::too_many_arguments)]
fn measure_point(
    query: &'static str,
    plan: &'static str,
    tree: &ViewTree,
    server: &Server,
    baseline_server: &Server,
    traced_server: &Server,
    edges: EdgeSet,
    reps: usize,
) -> Point {
    let spec = PlanSpec {
        edges,
        reduce: true,
        style: QueryStyle::OuterJoin,
    };
    // Count the elisions contributed by one full pass over the plan's
    // component queries (warm-up run), not reps× that.
    let before = server.metrics().snapshot().counter("exec.sorts_elided");
    let warm = run_plan(tree, server, spec, None).expect("warm-up");
    let sorts_elided = server.metrics().snapshot().counter("exec.sorts_elided") - before;
    let _ = run_plan_buffered(tree, baseline_server, spec, None).expect("baseline warm-up");
    let _ = run_plan(tree, traced_server, spec, None).expect("traced warm-up");
    // Interleave the modes and keep each one's fastest repetition, so
    // drift (scheduler noise, allocator state) hits every mode equally.
    let mut baseline: Option<Measurement> = None;
    let mut sequential: Option<Measurement> = None;
    let mut pipelined: Option<Measurement> = None;
    let mut traced: Option<Measurement> = None;
    for _ in 0..reps {
        keep_min(
            &mut baseline,
            run_plan_buffered(tree, baseline_server, spec, None).expect("baseline run"),
        );
        keep_min(
            &mut sequential,
            run_plan_buffered(tree, server, spec, None).expect("sequential run"),
        );
        keep_min(
            &mut pipelined,
            run_plan(tree, server, spec, None).expect("pipelined run"),
        );
        keep_min(
            &mut traced,
            run_plan(tree, traced_server, spec, None).expect("traced run"),
        );
    }
    Point {
        query,
        plan,
        streams: warm.streams,
        sorts_elided,
        baseline: baseline.expect("at least one repetition"),
        sequential: sequential.expect("at least one repetition"),
        pipelined: pipelined.expect("at least one repetition"),
        traced: traced.expect("at least one repetition"),
    }
}

fn stage_json(m: &Measurement) -> Json {
    Json::obj(vec![
        ("server_ms", Json::Float(m.query_ms)),
        ("transfer_ms", Json::Float(m.transfer_ms)),
        ("tag_ms", Json::Float(m.tag_ms)),
        ("total_ms", Json::Float(m.total_ms)),
        ("tuples", Json::UInt(m.tuples)),
        ("wire_bytes", Json::UInt(m.wire_bytes)),
    ])
}

fn main() {
    let quick = std::env::var("SR_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let (config, reps) = if quick {
        (
            Config {
                name: "A (quick)",
                scale: Scale::mb(0.2),
                timeout: std::time::Duration::from_secs(300),
            },
            1,
        )
    } else {
        (Config::a(), 7)
    };
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("=== Pipelined streaming vs. pre-PR baseline (host parallelism {parallelism}) ===\n");
    let server = sr_bench::setup(&config);
    // The baseline server shares the generated database but reproduces the
    // pre-PR configuration: no order-property pass, no prepared-plan cache,
    // buffered execution only.
    let baseline_server = Server::new(Arc::clone(server.database()))
        .with_sort_elision(false)
        .with_plan_cache(false);
    // A fourth server mirrors the pipelined default but records a full
    // structured trace of every run, to price the tracing subsystem.
    let traced_server =
        Server::new(Arc::clone(server.database())).with_tracer(Arc::new(Tracer::new()));
    let db = server.database();

    let mut trees: Vec<(&'static str, ViewTree)> = vec![("query1", silkroute::query1_tree(db))];
    if !quick {
        trees.push(("query2", silkroute::query2_tree(db)));
    }

    let mut points: Vec<Point> = Vec::new();
    for (qname, tree) in &trees {
        let full = EdgeSet::full(tree);
        // A mid-cut plan: keep the lower half of the edge bits, giving a
        // plan with roughly edge_count/2 + 1 streams.
        let half = EdgeSet::from_bits(full.bits() & ((1u64 << (tree.edge_count() / 2)) - 1));
        let mut plans: Vec<(&'static str, EdgeSet)> =
            vec![("unified", full), ("partitioned", EdgeSet::empty())];
        if !quick {
            plans.insert(1, ("half", half));
        }
        for (pname, edges) in plans {
            let p = measure_point(
                qname,
                pname,
                tree,
                &server,
                &baseline_server,
                &traced_server,
                edges,
                reps,
            );
            println!(
                "{:<7} {:<12} {:>2} stream(s)  sorts elided {:>2}  \
                 baseline {:>8.1} ms  sequential {:>8.1} ms  pipelined {:>8.1} ms  ({:.2}x)  \
                 traced {:>8.1} ms ({:+.1}%)",
                p.query,
                p.plan,
                p.streams,
                p.sorts_elided,
                p.baseline.total_ms,
                p.sequential.total_ms,
                p.pipelined.total_ms,
                p.speedup(),
                p.traced.total_ms,
                (p.trace_overhead() - 1.0) * 100.0
            );
            points.push(p);
        }
    }

    // The headline number: wall-time ratio on the multi-stream plans, where
    // the pipeline actually has several component queries in flight.
    let multi: Vec<&Point> = points.iter().filter(|p| p.streams > 1).collect();
    let base: f64 = multi.iter().map(|p| p.baseline.total_ms).sum();
    let seq: f64 = multi.iter().map(|p| p.sequential.total_ms).sum();
    let pipe: f64 = multi.iter().map(|p| p.pipelined.total_ms).sum();
    println!(
        "\nmulti-stream plans ({} plan(s)): baseline {base:.1} ms, sequential {seq:.1} ms, \
         pipelined {pipe:.1} ms",
        multi.len()
    );
    println!(
        "  end-to-end speedup (baseline -> pipelined): {:.2}x \
         (elision alone: {:.2}x, pipeline alone: {:.2}x)",
        base / pipe,
        base / seq,
        seq / pipe
    );
    let elided: u64 = points.iter().map(|p| p.sorts_elided).sum();
    println!("sorts elided across all measured plans: {elided}");
    let traced_total: f64 = points.iter().map(|p| p.traced.total_ms).sum();
    let pipe_total: f64 = points.iter().map(|p| p.pipelined.total_ms).sum();
    let trace_overhead = traced_total / pipe_total;
    println!(
        "trace overhead across all measured plans: {:+.1}% (acceptance bar +5%)",
        (trace_overhead - 1.0) * 100.0
    );

    let json = Json::obj(vec![
        ("bench", Json::Str("pipeline".to_string())),
        ("quick", Json::Bool(quick)),
        ("config", Json::Str(config.describe())),
        ("repetitions", Json::UInt(reps as u64)),
        ("host_parallelism", Json::UInt(parallelism as u64)),
        ("batch_size", Json::UInt(sr_data::BATCH_ROWS as u64)),
        (
            "baseline_definition",
            Json::Str(
                "sort elision and plan cache disabled + sequential buffered execution \
                 (pre-PR configuration)"
                    .to_string(),
            ),
        ),
        (
            "plans",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("query", Json::Str(p.query.to_string())),
                            ("plan", Json::Str(p.plan.to_string())),
                            ("streams", Json::UInt(p.streams as u64)),
                            ("sorts_elided", Json::UInt(p.sorts_elided)),
                            ("baseline", stage_json(&p.baseline)),
                            ("sequential", stage_json(&p.sequential)),
                            ("pipelined", stage_json(&p.pipelined)),
                            ("traced", stage_json(&p.traced)),
                            ("speedup", Json::Float(p.speedup())),
                            ("trace_overhead", Json::Float(p.trace_overhead())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "multi_stream",
            Json::obj(vec![
                ("plans", Json::UInt(multi.len() as u64)),
                ("baseline_total_ms", Json::Float(base)),
                ("sequential_total_ms", Json::Float(seq)),
                ("pipelined_total_ms", Json::Float(pipe)),
                ("speedup", Json::Float(base / pipe)),
                ("speedup_elision_only", Json::Float(base / seq)),
                ("speedup_pipeline_only", Json::Float(seq / pipe)),
            ]),
        ),
        ("sorts_elided_total", Json::UInt(elided)),
        ("trace_overhead", Json::Float(trace_overhead)),
    ]);
    let dir = std::path::Path::new("target/bench-results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("BENCH_pipeline.json");
    std::fs::write(&path, json.render_pretty() + "\n").expect("write BENCH_pipeline.json");
    println!("(results written to {})", path.display());

    // === Sharded mode: intra-stream parallelism on top of pipelining ===
    //
    // The same unified plans, pipelined, with each component query split
    // into key-range shards executed concurrently and re-merged in order.
    // The headline is sharded wall-clock vs. unsharded on the same host;
    // per-point shard fan-out comes from the `exec.shards` counter so a
    // point where every query fell back to one shard is visible as such.
    // The fan-out is clamped to the host parallelism — on a single-CPU
    // host shards serialize and can only add merge overhead, so the bench
    // degrades to fan-out 1 there (recorded as such in the JSON).
    let shards = 4usize.min(parallelism);
    let sharded_server = Server::new(Arc::clone(server.database())).with_shards(shards);
    println!("\n=== Range-sharded pipelined execution (--shards {shards}) ===\n");
    let mut shard_points: Vec<(String, Measurement, Measurement, u64)> = Vec::new();
    for (qname, tree) in &trees {
        let spec = PlanSpec {
            edges: EdgeSet::full(tree),
            reduce: true,
            style: QueryStyle::OuterJoin,
        };
        let before = sharded_server.metrics().snapshot().counter("exec.shards");
        let _ = run_plan(tree, &sharded_server, spec, None).expect("sharded warm-up");
        let exec_shards = sharded_server.metrics().snapshot().counter("exec.shards") - before;
        let mut unsharded: Option<Measurement> = None;
        let mut sharded: Option<Measurement> = None;
        for _ in 0..reps {
            keep_min(
                &mut unsharded,
                run_plan(tree, &server, spec, None).expect("unsharded run"),
            );
            keep_min(
                &mut sharded,
                run_plan(tree, &sharded_server, spec, None).expect("sharded run"),
            );
        }
        let u = unsharded.expect("at least one repetition");
        let s = sharded.expect("at least one repetition");
        println!(
            "{:<7} unified  unsharded {:>8.1} ms  sharded {:>8.1} ms  ({:.2}x, fan-out {})",
            qname,
            u.total_ms,
            s.total_ms,
            u.total_ms / s.total_ms,
            exec_shards
        );
        shard_points.push((qname.to_string(), u, s, exec_shards));
    }
    let u_total: f64 = shard_points.iter().map(|(_, u, _, _)| u.total_ms).sum();
    let s_total: f64 = shard_points.iter().map(|(_, _, s, _)| s.total_ms).sum();
    println!(
        "\nsharded speedup across unified plans: {:.2}x (unsharded {u_total:.1} ms, \
         sharded {s_total:.1} ms)",
        u_total / s_total
    );
    let skew = sharded_server
        .metrics()
        .snapshot()
        .histogram("shard.skew")
        .map(|h| h.max)
        .unwrap_or(0);
    let shard_json = Json::obj(vec![
        ("bench", Json::Str("shard".to_string())),
        ("quick", Json::Bool(quick)),
        ("config", Json::Str(config.describe())),
        ("repetitions", Json::UInt(reps as u64)),
        ("host_parallelism", Json::UInt(parallelism as u64)),
        ("shards", Json::UInt(shards as u64)),
        (
            "plans",
            Json::Arr(
                shard_points
                    .iter()
                    .map(|(qname, u, s, exec_shards)| {
                        Json::obj(vec![
                            ("query", Json::Str(qname.clone())),
                            ("plan", Json::Str("unified".to_string())),
                            ("unsharded", stage_json(u)),
                            ("sharded", stage_json(s)),
                            ("speedup", Json::Float(u.total_ms / s.total_ms)),
                            ("exec_shards", Json::UInt(*exec_shards)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "totals",
            Json::obj(vec![
                ("unsharded_total_ms", Json::Float(u_total)),
                ("sharded_total_ms", Json::Float(s_total)),
                ("speedup", Json::Float(u_total / s_total)),
                ("max_skew_permille", Json::UInt(skew)),
            ]),
        ),
    ]);
    let shard_path = dir.join("BENCH_shard.json");
    std::fs::write(&shard_path, shard_json.render_pretty() + "\n").expect("write BENCH_shard.json");
    println!("(results written to {})", shard_path.display());
}
