//! Integration tests for `EXPLAIN ANALYZE`: on the unified plans of the
//! paper's two test queries, the per-operator actual row counts must agree
//! with the aggregate `ExecProfile` counters (`exec.rows.<op>`), and every
//! operator with a cardinality estimate must carry a finite Q-error ≥ 1.

use std::collections::HashMap;
use std::sync::Arc;

use silkroute::{query1_tree, query2_tree, PlanSpec, Server};
use sr_sqlgen::generate_queries;
use sr_viewtree::ViewTree;

fn fresh_server() -> Server {
    let db = sr_tpch::generate(sr_tpch::Scale::mb(0.1)).expect("tpch generation");
    Server::new(Arc::new(db))
}

fn unified_sql(tree: &ViewTree, server: &Server) -> String {
    let queries =
        generate_queries(tree, server.database(), PlanSpec::unified(tree)).expect("sqlgen");
    assert_eq!(queries.len(), 1, "unified plan is a single query");
    queries.into_iter().next().unwrap().sql
}

#[test]
fn analyze_agrees_with_exec_profile_on_paper_queries() {
    for make_tree in [query1_tree, query2_tree] {
        // A fresh server per query keeps the registry's `exec.rows.<op>`
        // counters attributable to exactly one analyzed execution.
        let server = fresh_server();
        let tree = make_tree(server.database());
        let sql = unified_sql(&tree, &server);
        let analysis = server.explain_analyze(&sql).expect("explain analyze");

        assert!(!analysis.nodes.is_empty());
        assert!(analysis.row_count > 0, "unified plan returns rows");

        // Q-error: present, finite, and ≥ 1 wherever the cost model
        // produced an estimate; the unified plan estimates every node.
        for n in &analysis.nodes {
            let est = n.est_rows.expect("every operator has an estimate");
            assert!(est.is_finite());
            let q = n.q_error.expect("estimate implies q-error");
            assert!(q.is_finite() && q >= 1.0, "bad q-error {q} at {}", n.label);
        }

        // Per-operator actual rows agree with the aggregate ExecProfile
        // the same run exported into the registry.
        let mut rows_by_op: HashMap<&str, u64> = HashMap::new();
        let mut calls_by_op: HashMap<&str, u64> = HashMap::new();
        for n in &analysis.nodes {
            *rows_by_op.entry(n.op).or_default() += n.actual_rows;
            *calls_by_op.entry(n.op).or_default() += n.calls;
        }
        let snap = server.metrics().snapshot();
        for (op, rows) in &rows_by_op {
            assert_eq!(
                snap.counter(&format!("exec.rows.{op}")),
                *rows,
                "exec.rows.{op} disagrees with per-node sum"
            );
            assert_eq!(
                snap.counter(&format!("exec.calls.{op}")),
                calls_by_op[op],
                "exec.calls.{op} disagrees with per-node sum"
            );
        }

        // The root produces exactly the rows the query returned.
        assert_eq!(analysis.nodes[0].actual_rows, analysis.row_count);

        // `oracle.qerror` histogram carries one sample per estimated node,
        // in ×1000 fixed point (so q ≥ 1 means min ≥ 1000).
        let h = snap.histogram("oracle.qerror").expect("qerror histogram");
        assert_eq!(h.count, analysis.nodes.len() as u64);
        assert!(h.min >= 1000);

        // Analyzed runs are accounted separately from regular queries.
        assert_eq!(snap.counter("server.analyze"), 1);
        assert_eq!(snap.counter("server.queries"), 0);

        // Rendered form mentions the headline numbers.
        let rendered = analysis.render();
        assert!(rendered.contains("EXPLAIN ANALYZE"));
        assert!(rendered.contains("q-err="));
        assert!(rendered.contains("worst q-error:"));
    }
}

#[test]
fn analyze_reports_elided_sorts_on_unified_plan() {
    let server = fresh_server();
    let tree = query1_tree(server.database());
    let sql = unified_sql(&tree, &server);
    let analysis = server.explain_analyze(&sql).expect("explain analyze");
    // The unified query's ORDER BY is satisfied by order-property
    // propagation, so the optimizer drops at least one sort — and the
    // analysis surfaces that count.
    assert!(analysis.sorts_elided >= 1, "{}", analysis.render());
    assert_eq!(
        analysis.sorts_elided,
        server.metrics().snapshot().counter("exec.sorts_elided"),
        "analysis and registry agree on elided sorts"
    );
}

#[test]
fn analyze_matches_plain_execution_row_counts() {
    let server = fresh_server();
    let tree = query2_tree(server.database());
    let sql = unified_sql(&tree, &server);
    let analysis = server.explain_analyze(&sql).expect("explain analyze");
    let rows = server
        .execute_sql(&sql)
        .expect("execute")
        .collect_rows()
        .expect("row decode");
    assert_eq!(
        analysis.row_count,
        rows.len() as u64,
        "analyze ran the same plan"
    );
}
