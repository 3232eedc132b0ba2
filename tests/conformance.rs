//! Materialization conformance suite: golden-file tests pinning the exact
//! XML bytes the pipeline produces for the paper's workloads.
//!
//! Every plan in the `2^|E|` space must produce the **same document**
//! (paper §3.2: the plans differ in cost, not in semantics), so each query
//! has a single golden file and every canonical plan — unified,
//! fully-partitioned, sorted-outer-union, and the unreduced outer-join —
//! is checked byte-for-byte against it.
//!
//! Regenerate the corpus after an intentional output change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test conformance
//! ```
//!
//! The TPC-H generator is deterministically seeded, so the corpus is stable
//! across runs and machines.

use std::path::PathBuf;
use std::sync::Arc;

use silkroute::{
    calibrated_params, gen_plan, materialize_to_string, query1_tree, query2_tree, EdgeSet, Oracle,
    PlanSpec, QueryStyle, Server,
};
use sr_viewtree::ViewTree;

/// Tiny but non-trivial scale: every table non-empty, multi-level nesting
/// exercised, corpus small enough to keep in-tree.
const SCALE_MB: f64 = 0.1;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn server() -> Server {
    let db = sr_tpch::generate(sr_tpch::Scale::mb(SCALE_MB)).expect("tpch generation");
    Server::new(Arc::new(db))
}

/// The four canonical plans the acceptance criteria name.
fn canonical_plans(tree: &ViewTree) -> Vec<(&'static str, PlanSpec)> {
    vec![
        ("unified", PlanSpec::unified(tree)),
        ("fully-partitioned", PlanSpec::fully_partitioned()),
        ("sorted-outer-union", PlanSpec::sorted_outer_union(tree)),
        (
            "outer-join-unreduced",
            PlanSpec {
                edges: EdgeSet::full(tree),
                reduce: false,
                style: QueryStyle::OuterJoin,
            },
        ),
    ]
}

fn check_against_golden(golden_file: &str, tree: &ViewTree, server: &Server) {
    let path = golden_path(golden_file);
    let update = std::env::var("UPDATE_GOLDEN").ok().as_deref() == Some("1");

    if update {
        let (_, xml) = materialize_to_string(tree, server, PlanSpec::unified(tree))
            .expect("materialize for golden update");
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &xml).expect("write golden file");
        eprintln!("updated {} ({} bytes)", path.display(), xml.len());
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });

    for (label, spec) in canonical_plans(tree) {
        let (info, xml) =
            materialize_to_string(tree, server, spec).expect("materialization succeeds");
        assert!(info.streams >= 1);
        assert!(
            xml == golden,
            "{label} plan for {golden_file} diverges from golden corpus \
             (len {} vs {}); first difference at byte {}",
            xml.len(),
            golden.len(),
            xml.bytes()
                .zip(golden.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(xml.len().min(golden.len()))
        );
    }
}

#[test]
fn query1_all_canonical_plans_match_golden() {
    let server = server();
    let tree = query1_tree(server.database());
    check_against_golden("query1.xml", &tree, &server);
}

#[test]
fn query2_all_canonical_plans_match_golden() {
    let server = server();
    let tree = query2_tree(server.database());
    check_against_golden("query2.xml", &tree, &server);
}

/// The golden corpus itself must be well-formed enough to trust: root
/// element per supplier, balanced open/close counts for every tag.
#[test]
fn golden_corpus_is_balanced() {
    for name in ["query1.xml", "query2.xml"] {
        let path = golden_path(name);
        let Ok(xml) = std::fs::read_to_string(&path) else {
            panic!(
                "missing golden file {}; run UPDATE_GOLDEN=1",
                path.display()
            );
        };
        let mut tags: std::collections::BTreeMap<String, (usize, usize)> = Default::default();
        let mut i = 0;
        let bytes = xml.as_bytes();
        while let Some(off) = xml[i..].find('<') {
            let at = i + off;
            let end = xml[at..].find('>').map(|e| at + e).expect("closed tag");
            let inner = &xml[at + 1..end];
            if let Some(name) = inner.strip_prefix('/') {
                tags.entry(name.to_string()).or_default().1 += 1;
            } else {
                tags.entry(inner.to_string()).or_default().0 += 1;
            }
            i = end + 1;
            if i >= bytes.len() {
                break;
            }
        }
        assert!(!tags.is_empty(), "{name} has no elements");
        for (tag, (open, close)) in &tags {
            assert_eq!(open, close, "unbalanced <{tag}> in {name}");
        }
    }
}

/// Fragment materialization agrees with the corresponding slice of the
/// golden document: the fragment for one root key must appear verbatim.
#[test]
fn fragment_is_golden_substring() {
    let server = server();
    let tree = query1_tree(server.database());
    let golden = std::fs::read_to_string(golden_path("query1.xml"))
        .expect("golden corpus present (run UPDATE_GOLDEN=1)");
    let suppkey_var = tree.node(tree.root()).key_args[0];
    let filter = [(suppkey_var, sr_data::Value::Int(1))];
    let (_, bytes) = silkroute::materialize_fragment(
        &tree,
        &server,
        PlanSpec::unified(&tree),
        &filter,
        Vec::new(),
    )
    .expect("fragment materializes");
    let fragment = String::from_utf8(bytes).expect("utf8");
    assert!(!fragment.is_empty());
    assert!(
        golden.contains(&fragment),
        "fragment for suppkey=1 not a contiguous slice of the golden document"
    );
}

/// Rows per chunk of an `n`-row result: full chunks, then the remainder.
fn full_chunks(n: usize) -> Vec<usize> {
    (0..n)
        .step_by(1024)
        .map(|start| (n - start).min(1024))
        .collect()
}

/// One chunking rule on every path: under the partitioned and the greedy
/// plan of both views, each stream's chunks hold 1024 rows but the last —
/// whatever batches the plan's operators produced — on the worker and the
/// inline path, and `execute_sql` cuts the same bytes.
#[test]
fn stream_chunks_are_full_but_the_last() {
    let scale = sr_tpch::Scale::mb(0.5);
    let db = Arc::new(sr_tpch::generate(scale).expect("tpch generation"));
    let planner = Server::new(Arc::clone(&db));
    // Rows per chunk, and the bytes of all chunks.
    let drain = |mut stream: sr_engine::TupleStream| {
        let (mut sizes, mut bytes) = (Vec::new(), Vec::new());
        while let Some(chunk) = stream.next_chunk().unwrap() {
            sizes.push(sr_engine::wire::row_prefix(&chunk, usize::MAX).unwrap().1);
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
                for workers in [true, false] {
                    let server = Server::new(Arc::clone(&db)).with_stream_workers(workers);
                    let (got, bytes) = drain(server.execute_sql_streaming(&q.sql).unwrap());
                    let want = full_chunks(got.iter().sum());
                    longest = longest.max(want.len());
                    let at = format!("workers={workers}: {}", q.sql);
                    assert_eq!(got, want, "{at}");
                    let (sizes, whole) = drain(server.execute_sql(&q.sql).unwrap());
                    assert_eq!(sizes, want, "{at}");
                    assert_eq!(whole, bytes, "{at}");
                }
            }
        }
    }
    assert!(longest > 2, "no stream spanned more than two chunks");
}
