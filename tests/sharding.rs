//! Shard-determinism suite: range-sharded execution is an internal
//! parallelization detail, so the XML document must be **byte-identical**
//! to the goldens for every shard count, on both the worker (pipelined)
//! and inline execution paths. The shards partition the component query's
//! key space, so their ordered concatenation reproduces the unsharded
//! stream exactly — these tests pin that end to end.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use silkroute::{
    calibrated_params, gen_plan, materialize_to_string, query1_tree, query2_tree, Oracle, PlanSpec,
    QueryStyle, Server,
};

const SCALE_MB: f64 = 0.1;

fn database() -> Arc<sr_data::Database> {
    static DB: OnceLock<Arc<sr_data::Database>> = OnceLock::new();
    Arc::clone(DB.get_or_init(|| {
        Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(SCALE_MB)).expect("tpch generation"))
    }))
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path:?}: {e}"))
}

fn materialize(query: usize, shards: usize, workers: bool) -> String {
    let server = Server::new(database())
        .with_stream_workers(workers)
        .with_shards(shards);
    let tree = match query {
        1 => query1_tree(server.database()),
        _ => query2_tree(server.database()),
    };
    let (m, xml) = materialize_to_string(&tree, &server, PlanSpec::unified(&tree)).unwrap();
    assert_eq!(m.report.shards, shards.max(1));
    xml
}

/// The acceptance matrix, exhaustively: `--shards` ∈ {1, 2, 4} × both
/// execution paths × both paper queries, all byte-identical to the golden.
#[test]
fn shard_matrix_is_byte_identical_to_goldens() {
    for (query, golden_file) in [(1, "query1.xml"), (2, "query2.xml")] {
        let expect = golden(golden_file);
        for shards in [1, 2, 4] {
            for workers in [true, false] {
                let xml = materialize(query, shards, workers);
                assert_eq!(
                    xml, expect,
                    "query{query} shards={shards} workers={workers} diverged from golden"
                );
            }
        }
    }
}

/// Sharding actually engages on the paper queries: at least one component
/// stream splits, and the skew histogram records the merge.
#[test]
fn sharding_engages_and_reports_skew() {
    let server = Server::new(database()).with_shards(4);
    let tree = query1_tree(server.database());
    let (_, _) = materialize_to_string(&tree, &server, PlanSpec::unified(&tree)).unwrap();
    let snap = server.metrics().snapshot();
    assert!(snap.counter("exec.shards") >= 2, "no stream was sharded");
    let skew = snap.histogram("shard.skew").expect("skew recorded");
    assert!(skew.count >= 1);
}

/// Rows in each chunk of an `n`-row stream cut at 1024 rows.
fn full_chunks(n: usize) -> impl Iterator<Item = usize> {
    (0..n).step_by(1024).map(move |start| (n - start).min(1024))
}

/// One chunking rule on every path: under the partitioned and the greedy
/// plan of both views, at shards {1,2,4}, each stream's chunks hold 1024
/// rows but the last of every shard — whatever batches the plan's
/// operators produced — and `execute_sql`, which runs unsharded, cuts the
/// same bytes into full chunks of the whole result.
#[test]
fn stream_chunks_are_full_but_the_last_of_each_shard() {
    let scale = sr_tpch::Scale::mb(0.5);
    let db = Arc::new(sr_tpch::generate(scale).expect("tpch generation"));
    let planner = Server::new(Arc::clone(&db));
    let rows = |chunk: &[u8]| sr_engine::wire::row_prefix(chunk, usize::MAX).unwrap().1;
    // Rows per chunk, and the bytes of all chunks.
    let drain = |mut stream: sr_engine::TupleStream| {
        let (mut sizes, mut bytes) = (Vec::new(), Vec::new());
        while let Some(chunk) = stream.next_chunk().unwrap() {
            sizes.push(rows(&chunk));
            bytes.extend_from_slice(&chunk);
        }
        (sizes, bytes)
    };
    let mut longest = 0;
    for tree in [query1_tree(&db), query2_tree(&db)] {
        let oracle = Oracle::new(&planner, calibrated_params(scale));
        let greedy = PlanSpec {
            edges: gen_plan(&tree, &db, &oracle, true).unwrap().recommended(),
            reduce: true,
            style: QueryStyle::OuterJoin,
        };
        for spec in [PlanSpec::fully_partitioned(), greedy] {
            for q in sr_sqlgen::generate_queries(&tree, &db, spec).unwrap() {
                for shards in [1, 2, 4] {
                    // Rows per shard, from the shard queries the server runs.
                    let per_shard: Vec<usize> = match planner.shard_sql(&q.sql, shards).unwrap() {
                        Some(parts) => parts
                            .iter()
                            .map(|sql| planner.execute_sql(sql).unwrap().row_count)
                            .collect(),
                        None => vec![planner.execute_sql(&q.sql).unwrap().row_count],
                    };
                    let want: Vec<usize> = per_shard.iter().flat_map(|&n| full_chunks(n)).collect();
                    longest = longest.max(want.len());
                    for workers in [true, false] {
                        let server = Server::new(Arc::clone(&db))
                            .with_shards(shards)
                            .with_stream_workers(workers);
                        let (got, bytes) = drain(server.execute_sql_streaming(&q.sql).unwrap());
                        let at = format!("shards={shards} workers={workers}: {}", q.sql);
                        assert_eq!(got, want, "{at}");
                        let (sizes, whole) = drain(server.execute_sql(&q.sql).unwrap());
                        let total = per_shard.iter().sum();
                        assert_eq!(sizes, full_chunks(total).collect::<Vec<_>>(), "{at}");
                        assert_eq!(whole, bytes, "{at}");
                    }
                }
            }
        }
    }
    assert!(longest > 2, "no stream spanned more than two chunks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random points of the (query, shard count, path) space keep agreeing
    /// with the unsharded worker-path document.
    #[test]
    fn random_shard_configs_agree(query in 1usize..=2, shards in 1usize..=6, workers in any::<bool>()) {
        let expect = golden(if query == 1 { "query1.xml" } else { "query2.xml" });
        let xml = materialize(query, shards, workers);
        prop_assert_eq!(xml, expect);
    }
}
