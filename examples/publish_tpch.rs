//! Publish the TPC-H database as XML — the paper's data-export scenario.
//!
//! Generates a TPC-H fragment, runs the greedy planner (paper §5) to pick a
//! near-optimal decomposition for Query 1, and materializes the full
//! document, comparing against the two default strategies.
//!
//! ```sh
//! cargo run --release --example publish_tpch [size-mb]
//! ```

use std::sync::Arc;
use std::time::Instant;

use silkroute::{
    calibrated_params, gen_plan, materialize, query1_tree, Oracle, PlanSpec, QueryStyle, Server,
};
use sr_tpch::{generate, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mb: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let scale = Scale::mb(mb);

    let t0 = Instant::now();
    let db = generate(scale)?;
    println!(
        "generated TPC-H fragment: {:.1} MB target, {} rows, {} bytes in {:?}",
        mb,
        db.row_count(),
        db.byte_size(),
        t0.elapsed()
    );
    let server = Server::new(Arc::new(db));
    let tree = query1_tree(server.database());

    // Ask the greedy planner for a plan family.
    let oracle = Oracle::new(&server, calibrated_params(scale));
    let result = gen_plan(&tree, server.database(), &oracle, true)?;
    println!(
        "genPlan: mandatory={} optional={} ({} plans, {} oracle requests)",
        result.mandatory,
        result.optional,
        result.plans().len(),
        result.oracle_requests
    );
    let chosen = result.recommended();

    for (label, spec) in [
        (
            "greedy-chosen",
            PlanSpec {
                edges: chosen,
                reduce: true,
                style: QueryStyle::OuterJoin,
            },
        ),
        ("unified outer-join", PlanSpec::unified(&tree)),
        ("sorted outer-union", PlanSpec::sorted_outer_union(&tree)),
        ("fully partitioned", PlanSpec::fully_partitioned()),
    ] {
        let t = Instant::now();
        let (info, sink) = materialize(&tree, &server, spec, std::io::sink())?;
        let elapsed = t.elapsed();
        let _ = sink;
        println!(
            "{label:>20}: {} stream(s), {:>8} tuples, {:>9} XML bytes, {:>8.1?} total",
            info.streams, info.stats.tuples, info.stats.bytes, elapsed
        );
    }

    // Fragment export (§7): a single supplier subtree.
    let suppkey_var = tree.node(tree.root()).key_args[0];
    let t = Instant::now();
    let (frag, _) = silkroute::materialize_fragment(
        &tree,
        &server,
        PlanSpec {
            edges: chosen,
            reduce: true,
            style: QueryStyle::OuterJoin,
        },
        &[(suppkey_var, sr_data::Value::Int(1))],
        std::io::sink(),
    )?;
    println!(
        "{:>20}: {} stream(s), {:>8} tuples, {:>9} XML bytes, {:>8.1?} total",
        "fragment suppkey=1",
        frag.streams,
        frag.stats.tuples,
        frag.stats.bytes,
        t.elapsed()
    );

    // Write the chosen plan's document to a file if asked.
    if let Some(path) = std::env::args().nth(2) {
        let file = std::fs::File::create(&path)?;
        let spec = PlanSpec {
            edges: chosen,
            reduce: true,
            style: QueryStyle::OuterJoin,
        };
        let (info, _) = materialize(&tree, &server, spec, std::io::BufWriter::new(file))?;
        println!("wrote {} bytes to {path}", info.stats.bytes);
    }
    Ok(())
}
