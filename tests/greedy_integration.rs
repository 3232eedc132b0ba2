//! Integration tests for the greedy plan-generation algorithm (§5) against
//! real measurements, mirroring the paper's §5.1 evaluation protocol.

use std::sync::Arc;

use silkroute::{
    calibrated_params, gen_plan, materialize_to_string, query1_tree, query2_tree, Oracle, PlanSpec,
    QueryStyle, Server,
};
use sr_tpch::{generate, Scale};
use sr_viewtree::Mult;

fn server(mb: f64) -> Server {
    Server::new(Arc::new(generate(Scale::mb(mb)).unwrap()))
}

#[test]
fn greedy_merges_all_one_edges_under_reduction() {
    let scale = Scale::mb(0.3);
    let server = server(0.3);
    let tree = query1_tree(server.database());
    let oracle = Oracle::new(&server, calibrated_params(scale));
    let r = gen_plan(&tree, server.database(), &oracle, true).unwrap();
    // Every `1`-labeled edge should be selected (mandatory or optional):
    // merging it removes an entire query at no data cost.
    for e in tree.edges() {
        if tree.node(e).label == Mult::One {
            assert!(
                r.mandatory.contains(e) || r.optional.contains(e),
                "1-edge {e} ({}) not selected; trace: {:?}",
                tree.node(e).skolem_name(),
                r.trace
            );
        }
    }
    // And the `*` edges should NOT be mandatory (cutting them is the point
    // of partitioned plans).
    for e in tree.edges() {
        if tree.node(e).label == Mult::ZeroOrMore {
            assert!(
                !r.mandatory.contains(e),
                "star edge {e} must not be mandatory"
            );
        }
    }
}

#[test]
fn greedy_plans_execute_and_match_reference() {
    let scale = Scale::mb(0.2);
    let server = server(0.2);
    let tree = query2_tree(server.database());
    let oracle = Oracle::new(&server, calibrated_params(scale));
    let r = gen_plan(&tree, server.database(), &oracle, true).unwrap();
    let (_, reference) = materialize_to_string(&tree, &server, PlanSpec::unified(&tree)).unwrap();
    assert!(!r.plans().is_empty());
    for edges in r.plans() {
        let spec = PlanSpec {
            edges,
            reduce: true,
            style: QueryStyle::OuterJoin,
        };
        let (_, xml) = materialize_to_string(&tree, &server, spec).unwrap();
        assert_eq!(xml, reference, "greedy plan {edges} output");
    }
}

#[test]
fn request_counts_match_paper_scale() {
    // §5.1: "the actual number of database requests for query-cost
    // estimates were much smaller than the expected number (9² = 81)".
    let scale = Scale::mb(0.1);
    let server = server(0.1);
    for tree in [
        query1_tree(server.database()),
        query2_tree(server.database()),
    ] {
        for reduce in [false, true] {
            let oracle = Oracle::new(&server, calibrated_params(scale));
            let r = gen_plan(&tree, server.database(), &oracle, reduce).unwrap();
            let e = tree.edge_count();
            assert!(
                r.oracle_requests < e * e,
                "requests {} should be below |E|^2 = {}",
                r.oracle_requests,
                e * e
            );
        }
    }
}

#[test]
fn greedy_is_deterministic() {
    let scale = Scale::mb(0.1);
    let server = server(0.1);
    let tree = query1_tree(server.database());
    let r1 = gen_plan(
        &tree,
        server.database(),
        &Oracle::new(&server, calibrated_params(scale)),
        true,
    )
    .unwrap();
    let r2 = gen_plan(
        &tree,
        server.database(),
        &Oracle::new(&server, calibrated_params(scale)),
        true,
    )
    .unwrap();
    assert_eq!(r1.mandatory, r2.mandatory);
    assert_eq!(r1.optional, r2.optional);
    assert_eq!(r1.trace.len(), r2.trace.len());
}

/// The verdict of `genPlan` is a property of an XPath's shape, not of its
/// literals: for each of the benchmark's three shapes over Query 1, under
/// 50 literals drawn from the data, the verdict of a warm call (every
/// costing a named statement the server already holds) equals the verdict
/// of a cold call on a fresh server, and the warm calls render no SQL.
#[test]
fn warm_verdicts_equal_cold_for_every_literal() {
    let scale = Scale::mb(0.1);
    let db = Arc::new(generate(scale).unwrap());
    let warm = Server::new(Arc::clone(&db));
    let query1 = query1_tree(&db);
    let part = db.table("Part").unwrap();
    let name = part.schema().require("name").unwrap();
    let orders = scale.orders() as i64;
    let plan = |server: &Server, xpath: &str| {
        let path = sr_xpath::parse(xpath).unwrap();
        let tree = sr_xpath::compose(&query1, &path).unwrap().tree;
        gen_plan(
            &tree,
            &db,
            &Oracle::new(server, calibrated_params(scale)),
            true,
        )
        .unwrap()
    };
    let shapes: [&dyn Fn(usize) -> String; 3] = [
        &|_| "/supplier/name".to_string(),
        &|i| {
            let row = &part.rows()[(i * 37) % part.len()];
            let s = row.get(name).as_str().unwrap();
            format!("/supplier/part[name = \"{s}\"]/order")
        },
        &|i| format!("//order[orderkey < {}]", (i as i64 * 7919) % (orders + 2)),
    ];
    for shape in shapes {
        // Prime the shape once, then every literal must plan warm.
        plan(&warm, &shape(50));
        let rendered = warm.metrics().counter("oracle.sql_rendered").get();
        for i in 0..50 {
            let xpath = shape(i);
            let w = plan(&warm, &xpath);
            let c = plan(&Server::new(Arc::clone(&db)), &xpath);
            assert_eq!(w.mandatory, c.mandatory, "{xpath}");
            assert_eq!(w.optional, c.optional, "{xpath}");
            assert_eq!(w.trace, c.trace, "{xpath}");
            assert_eq!(w.oracle_requests, c.oracle_requests, "{xpath}");
        }
        let now = warm.metrics().counter("oracle.sql_rendered").get();
        assert_eq!(now, rendered, "{}: warm calls rendered SQL", shape(0));
    }
}
