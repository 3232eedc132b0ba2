//! One tagger, two row sources: `RowSource::Stream` (wire chunks bound into
//! a cell arena, no tuple ever owned) and `RowSource::Materialized` (owned
//! `Row`s) must tag the same component queries into the same bytes and the
//! same statistics — for both paper views, every plan family, and whether
//! the chunks come from execution or the fragment cache.

use std::path::PathBuf;
use std::sync::Arc;

use silkroute::{
    calibrated_params, gen_plan, query1_tree, query2_tree, Oracle, PlanSpec, QueryStyle, Server,
};
use sr_sqlgen::generate_queries;
use sr_tagger::{tag_streams, RowSource, StreamInput, TagStats};
use sr_tpch::Scale;
use sr_viewtree::ViewTree;

/// Must match the scale the golden corpus was generated at.
const SCALE_MB: f64 = 0.1;

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read golden {}: {e}", path.display()))
}

/// What must not depend on the row source.
#[derive(Debug, PartialEq)]
struct Outcome {
    xml: Vec<u8>,
    tuples: u64,
    elements: u64,
    bytes: u64,
    max_open_depth: usize,
    per_stream_tuples: Vec<u64>,
}

fn outcome(stats: TagStats, xml: Vec<u8>) -> Outcome {
    Outcome {
        xml,
        tuples: stats.tuples,
        elements: stats.elements,
        bytes: stats.bytes,
        max_open_depth: stats.max_open_depth,
        per_stream_tuples: stats.per_stream.iter().map(|s| s.tuples).collect(),
    }
}

fn tag(tree: &ViewTree, server: &Server, spec: PlanSpec, materialize_rows: bool) -> Outcome {
    let inputs = generate_queries(tree, server.database(), spec)
        .expect("component queries")
        .into_iter()
        .map(|q| {
            let stream = server.execute_sql_streaming(&q.sql).expect("submit");
            let schema = stream.schema.clone();
            let rows = if materialize_rows {
                RowSource::Materialized(stream.collect_rows().expect("decode").into_iter())
            } else {
                RowSource::Stream(Box::new(stream))
            };
            StreamInput {
                rows,
                schema,
                reduced: q.reduced,
            }
        })
        .collect();
    let (stats, xml) = tag_streams(tree, inputs, Vec::new(), false).expect("tag");
    outcome(stats, xml)
}

#[test]
fn stream_and_materialized_sources_tag_identically() {
    let db = Arc::new(sr_tpch::generate(Scale::mb(SCALE_MB)).expect("tpch"));
    let new_server = || Server::new(Arc::clone(&db)).with_fragment_cache(64 << 20);
    for (golden_file, tree) in [
        ("query1.xml", query1_tree(&db)),
        ("query2.xml", query2_tree(&db)),
    ] {
        let expect = golden(golden_file);
        let greedy = {
            let server = new_server();
            let oracle = Oracle::new(&server, calibrated_params(Scale::mb(SCALE_MB)));
            let r = gen_plan(&tree, &db, &oracle, true).expect("genPlan");
            PlanSpec {
                edges: r.recommended(),
                reduce: true,
                style: QueryStyle::OuterJoin,
            }
        };
        let plans = [
            ("unified", PlanSpec::unified(&tree)),
            ("outer-union", PlanSpec::sorted_outer_union(&tree)),
            ("partitioned", PlanSpec::fully_partitioned()),
            ("greedy", greedy),
        ];
        for (plan, spec) in plans {
            // A server per source, so that each source's first run is cold
            // and its second is served from the fragment cache.
            let servers = [new_server(), new_server()];
            for cache in ["cold", "warm"] {
                let streamed = tag(&tree, &servers[0], spec, false);
                let materialized = tag(&tree, &servers[1], spec, true);
                let case = format!("{golden_file} {plan} {cache}");
                assert_eq!(streamed.xml, expect, "{case}: stream source vs golden");
                assert_eq!(streamed, materialized, "{case}: stream vs materialized");
                assert_eq!(streamed.bytes, expect.len() as u64, "{case}");
            }
            for server in &servers {
                let hits = server.metrics().snapshot().counter("cache.fragment.hits");
                assert!(hits > 0, "{plan}: second run was not warm");
            }
        }
    }
}
