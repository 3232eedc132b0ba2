//! Fragment-cache conformance: with the materialized-fragment cache
//! enabled, a warm materialization (every component query served from
//! cached wire bytes) must produce documents byte-identical to the cold run
//! — and to the golden corpus — in both execution modes (pipelined and
//! buffered), without executing a component query. The cache stores
//! encoded result bytes verbatim; any divergence here means it corrupted,
//! truncated, or mis-keyed a fragment.

use std::path::PathBuf;
use std::sync::Arc;

use silkroute::{
    materialize, materialize_buffered, query1_tree, query2_tree, Materialization, PlanSpec,
    QueryStyle, Server,
};
use sr_tagger::TagError;
use sr_viewtree::{EdgeSet, ViewTree};

/// Must match the scale the golden corpus was generated at.
const SCALE_MB: f64 = 0.1;

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read golden {}: {e}", path.display()))
}

fn server() -> Server {
    let db = Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(SCALE_MB)).expect("tpch"));
    Server::new(db).with_fragment_cache(64 << 20)
}

type Materialize =
    fn(&ViewTree, &Server, PlanSpec, Vec<u8>) -> Result<(Materialization, Vec<u8>), TagError>;

fn document(srv: &Server, tree: &ViewTree, spec: PlanSpec) -> Vec<u8> {
    let (_, bytes) = materialize(tree, srv, spec, Vec::new()).expect("materialize");
    bytes
}

/// Cold then warm, pipelined and buffered: the warm document must equal
/// both the cold one and the golden corpus, and the warm run must actually
/// have been served from the cache.
#[test]
fn warm_materialization_is_byte_identical_across_modes() {
    let modes: [(&str, Materialize); 2] = [
        ("pipelined", materialize::<Vec<u8>>),
        ("buffered", materialize_buffered::<Vec<u8>>),
    ];
    for (mode, run) in modes {
        let srv = server();
        for (name, tree) in [
            ("query1.xml", query1_tree(srv.database())),
            ("query2.xml", query2_tree(srv.database())),
        ] {
            let spec = PlanSpec {
                edges: EdgeSet::full(&tree),
                reduce: true,
                style: QueryStyle::OuterJoin,
            };
            let misses_before = srv.metrics().snapshot().counter("cache.fragment.misses");
            let cold = run(&tree, &srv, spec, Vec::new()).expect("cold run").1;
            let before = srv.metrics().snapshot();
            assert!(
                before.counter("cache.fragment.misses") > misses_before,
                "{mode} {name}: cold run never missed the cache"
            );
            let warm = run(&tree, &srv, spec, Vec::new()).expect("warm run").1;
            let after = srv.metrics().snapshot();
            assert!(
                after.counter("cache.fragment.hits") > before.counter("cache.fragment.hits"),
                "{mode} {name}: warm run never hit the cache"
            );
            assert_eq!(
                after.counter("server.queries"),
                before.counter("server.queries"),
                "{mode} {name}: warm run executed a component query"
            );
            assert_eq!(warm, cold, "{mode} {name}: warm diverges from cold");
            assert_eq!(
                warm,
                golden(name),
                "{mode} {name}: warm diverges from golden"
            );
        }
    }
}

/// An injected fault on the first run must not poison the cache: the failed
/// stream commits nothing, and the retried (clean) materialization still
/// matches the golden byte for byte.
#[test]
fn faulted_run_never_caches_a_partial_fragment() {
    let db = Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(SCALE_MB)).expect("tpch"));
    let srv = Server::new(db)
        .with_fragment_cache(64 << 20)
        .with_faults(sr_engine::FaultPlan::parse("panic@scan", 1).expect("fault spec"));
    let tree = query1_tree(srv.database());
    let spec = PlanSpec {
        edges: EdgeSet::full(&tree),
        reduce: true,
        style: QueryStyle::OuterJoin,
    };
    assert!(
        materialize(&tree, &srv, spec, Vec::new()).is_err(),
        "panic@scan must fail the materialization"
    );
    assert_eq!(
        srv.fragment_cache_info().expect("cache enabled").entries,
        0,
        "a faulted run must not leave fragments behind"
    );
    // A clean server sharing nothing with the faulted one — but the same
    // pattern a retry follows — produces the golden document.
    let db = Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(SCALE_MB)).expect("tpch"));
    let clean = Server::new(db).with_fragment_cache(64 << 20);
    let tree = query1_tree(clean.database());
    assert_eq!(document(&clean, &tree, spec), golden("query1.xml"));
}
