//! The paper's §3.3 correctness claim, exhaustively: *every* one of the
//! `2^|E|` plans — reduced or not, outer-join or outer-union — of both
//! benchmark queries reconstructs exactly the same XML document.

use std::sync::Arc;

use silkroute::{materialize_to_string, query1_tree, query2_tree, PlanSpec, QueryStyle, Server};
use sr_tpch::{generate, Scale};
use sr_viewtree::{all_edge_sets, EdgeSet, ViewTree};

fn server() -> Server {
    Server::new(Arc::new(generate(Scale::mb(0.05)).unwrap()))
}

fn check_all(tree: &ViewTree, server: &Server, styles: &[QueryStyle], stride: u64) {
    let (_, reference) = materialize_to_string(tree, server, PlanSpec::unified(tree)).unwrap();
    assert!(!reference.is_empty());
    for edges in all_edge_sets(tree) {
        if edges.bits() % stride != 0 && edges.bits() != EdgeSet::full(tree).bits() {
            continue;
        }
        for reduce in [false, true] {
            for &style in styles {
                let spec = PlanSpec {
                    edges,
                    reduce,
                    style,
                };
                let (info, xml) = materialize_to_string(tree, server, spec).unwrap();
                assert_eq!(
                    info.streams,
                    tree.edge_count() - edges.len() + 1,
                    "stream count"
                );
                assert_eq!(
                    xml, reference,
                    "plan mismatch: edges={edges} reduce={reduce} style={style:?}"
                );
            }
        }
    }
}

#[test]
fn query1_all_512_outer_join_plans_agree() {
    let server = server();
    let tree = query1_tree(server.database());
    check_all(&tree, &server, &[QueryStyle::OuterJoin], 1);
}

#[test]
fn query1_outer_union_plans_agree_sampled() {
    let server = server();
    let tree = query1_tree(server.database());
    // Outer-union sampled every 7th plan (plus unified) for runtime.
    check_all(&tree, &server, &[QueryStyle::OuterUnion], 7);
}

#[test]
fn query2_all_512_outer_join_plans_agree() {
    let server = server();
    let tree = query2_tree(server.database());
    check_all(&tree, &server, &[QueryStyle::OuterJoin], 1);
}

#[test]
fn query2_outer_union_plans_agree_sampled() {
    let server = server();
    let tree = query2_tree(server.database());
    check_all(&tree, &server, &[QueryStyle::OuterUnion], 7);
}

#[test]
fn stream_counts_span_one_to_ten() {
    let server = server();
    let tree = query1_tree(server.database());
    let mut seen = [false; 11];
    for edges in all_edge_sets(&tree) {
        let streams = tree.edge_count() - edges.len() + 1;
        seen[streams] = true;
    }
    assert!(
        seen[1..=10].iter().all(|&s| s),
        "plans cover 1..=10 streams"
    );
}
