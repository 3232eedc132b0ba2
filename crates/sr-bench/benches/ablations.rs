//! Ablations for the design decisions DESIGN.md §6 calls out:
//!
//! 1. **Outer-join vs. outer-union structure** (§3.4) across the plan
//!    space: the paper notes the outer-join plan "produces fewer, but
//!    wider, tuples" and conjectures rewriting best plans to outer unions
//!    could improve total time — we measure exactly that.
//! 2. **View-tree reduction on/off** at fixed edge sets (the §3.5
//!    heuristic: "given a set of arbitrary non-reduced plans, the
//!    corresponding set of reduced plans, in general, are more efficient").
//! 3. **Wire/binding share**: tuples and bytes per plan family, explaining
//!    the query-vs-total split.

use silkroute::{query1_tree, run_plan, PlanSpec, QueryStyle};
use sr_viewtree::EdgeSet;

fn main() {
    println!("=== Ablations (Query 1, Configuration A) ===\n");
    let config = silkroute::Config::a();
    let server = sr_bench::setup(&config);
    let tree = query1_tree(server.database());

    // Representative edge sets: unified, best-shape (cut both * edges:
    // 4 = part, 6 = order), fully partitioned.
    let mut cut_stars = EdgeSet::full(&tree);
    cut_stars.remove(4);
    cut_stars.remove(6);
    let families = [
        ("unified", EdgeSet::full(&tree)),
        ("cut-both-*", cut_stars),
        ("fully partitioned", EdgeSet::empty()),
    ];

    println!("-- ablation 1+2: style × reduction (median of 3, total ms) --");
    println!(
        "{:>18} {:>8} | {:>12} {:>12} | {:>12} {:>12}",
        "edges", "streams", "oj+reduce", "oj plain", "ou+reduce", "ou plain"
    );
    for (label, edges) in families {
        let mut cells = Vec::new();
        let mut streams = 0;
        for style in [QueryStyle::OuterJoin, QueryStyle::OuterUnion] {
            for reduce in [true, false] {
                let mut ts: Vec<f64> = (0..3)
                    .map(|_| {
                        let m = run_plan(
                            &tree,
                            &server,
                            PlanSpec {
                                edges,
                                reduce,
                                style,
                            },
                            None,
                        )
                        .expect("plan");
                        streams = m.streams;
                        m.total_ms
                    })
                    .collect();
                ts.sort_by(f64::total_cmp);
                cells.push(ts[1]);
            }
        }
        println!(
            "{label:>18} {streams:>8} | {:>12.1} {:>12.1} | {:>12.1} {:>12.1}",
            cells[0], cells[1], cells[2], cells[3]
        );
    }

    println!("\n-- ablation 3: per-stage decomposition (reduced outer-join plans) --");
    println!(
        "{:>18} {:>8} {:>10} {:>12} {:>10} {:>9} {:>8} {:>10}",
        "edges", "streams", "tuples", "wire bytes", "query ms", "xfer ms", "tag ms", "total ms"
    );
    for (label, edges) in families {
        let m = run_plan(
            &tree,
            &server,
            PlanSpec {
                edges,
                reduce: true,
                style: QueryStyle::OuterJoin,
            },
            None,
        )
        .expect("plan");
        println!(
            "{label:>18} {:>8} {:>10} {:>12} {:>10.1} {:>9.1} {:>8.1} {:>10.1}",
            m.streams, m.tuples, m.wire_bytes, m.query_ms, m.transfer_ms, m.tag_ms, m.total_ms
        );
    }
    println!(
        "\npaper §4: \"the outer-join plan actually produces fewer, but wider, tuples than the\n\
         outer-union plan; the additional width may induce anomalous caching behavior\""
    );

    // Ablation 4: threshold sensitivity of genPlan (§5.1: "the linear cost
    // function depends primarily on the characteristics of the database
    // environment, and not on the characteristics of the query").
    println!("\n-- ablation 4: genPlan threshold sensitivity (reduced) --");
    println!(
        "{:>12} {:>12} {:>10} {:>9} {:>8} {:>14}",
        "t1", "t2", "mandatory", "optional", "plans", "best total ms"
    );
    let base = silkroute::calibrated_params(config.scale);
    for (f1, f2) in [
        (0.1, 0.1),
        (1.0, 1.0),
        (10.0, 10.0),
        (1.0, 0.0),
        (100.0, 100.0),
    ] {
        let params = silkroute::CostParams {
            t1: base.t1 * f1,
            t2: base.t2 * f2,
            ..base
        };
        let oracle = silkroute::Oracle::new(&server, params);
        let r = silkroute::gen_plan(&tree, server.database(), &oracle, true).expect("genPlan");
        let m = run_plan(
            &tree,
            &server,
            PlanSpec {
                edges: r.recommended(),
                reduce: true,
                style: QueryStyle::OuterJoin,
            },
            None,
        )
        .expect("recommended plan");
        println!(
            "{:>12.0} {:>12.0} {:>10} {:>9} {:>8} {:>14.1}",
            params.t1,
            params.t2,
            r.mandatory.len(),
            r.optional.len(),
            r.plans().len(),
            m.total_ms
        );
    }
    println!("(a stable recommended-plan time across threshold scalings = robust thresholds)");

    // Ablation 5: the §3.3 constant-space claim — the tagger's working set
    // (open-element stack) stays bounded by the view-tree depth while the
    // database, tuple count and document grow linearly.
    println!("\n-- ablation 5: tagger memory vs database size (Q1 unified, reduced) --");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>11}",
        "size MB", "tuples", "XML bytes", "total ms", "peak stack"
    );
    for mb in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let db = sr_tpch::generate(sr_tpch::Scale::mb(mb)).expect("db");
        let server = silkroute::Server::new(std::sync::Arc::new(db));
        let tree = query1_tree(server.database());
        let t = std::time::Instant::now();
        let (info, _) =
            silkroute::materialize(&tree, &server, PlanSpec::unified(&tree), std::io::sink())
                .expect("materialize");
        println!(
            "{mb:>8} {:>10} {:>12} {:>12.1} {:>11}",
            info.stats.tuples,
            info.stats.bytes,
            t.elapsed().as_secs_f64() * 1e3,
            info.stats.max_open_depth
        );
    }
    println!("(peak stack must stay at the view-tree depth — 4 for Query 1 — at every size)");
}
