//! The deterministic half of the paper's evaluation, pinned exactly: Fig.
//! 18's edge sets, the model ranks of the plans `genPlan` generates, and
//! §5.1's oracle-request counts for Query 1 and Query 2, non-reduced and
//! reduced, at Config A (1 MB) and Config B (16 MB).
//!
//! Estimates repeat bit for bit, so `genPlan`'s verdict and its request
//! count are functions of the database and the view alone. §5.1's claim is
//! that the count stays well below the |E|² = 81 evaluations a naive
//! implementation would request. The model ranks are the same tripwire on
//! the statistics behind the estimates: a table statistic that moves by one
//! distinct value reorders some of the 2⁹ plans.

use std::sync::Arc;

use silkroute::{calibrated_params, gen_plan, query1_tree, query2_tree, Oracle, Server};
use sr_plan::{rank_all_plans, GreedyResult};
use sr_tpch::{generate, Scale};
use sr_viewtree::{EdgeSet, ViewTree};

/// One `genPlan` run's pinned artifacts.
struct Claim {
    reduce: bool,
    mandatory: &'static [usize],
    optional: &'static [usize],
    requests: usize,
    /// Model ranks (1 = cheapest of all 2⁹ plans) of the generated plans,
    /// ascending.
    ranks: &'static [usize],
}

const fn claim(
    reduce: bool,
    mandatory: &'static [usize],
    optional: &'static [usize],
    requests: usize,
    ranks: &'static [usize],
) -> Claim {
    Claim {
        reduce,
        mandatory,
        optional,
        requests,
        ranks,
    }
}

/// Fig. 18's reduced plan, for both views and both configs: mandatory
/// S1.4.1→name, and the three `1`-edges under the order element (Query
/// 1's S1.4.2.1→orderkey, S1.4.2.2→customer, S1.4.2.3→nation); optional
/// the supplier's name, nation and region.
const REDUCED_MANDATORY: &[usize] = &[5, 7, 8, 9];
const REDUCED_OPTIONAL: &[usize] = &[1, 2, 3];

/// The reduced plans are the model's eight cheapest.
const TOP_EIGHT: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8];

/// `(config scale MB, [Query 1 claims], [Query 2 claims])`.
const CLAIMS: [(f64, [Claim; 2], [Claim; 2]); 2] = [
    (
        1.0,
        [
            claim(false, &[], &[], 19, &[28]),
            claim(true, REDUCED_MANDATORY, REDUCED_OPTIONAL, 29, TOP_EIGHT),
        ],
        [
            claim(false, &[], &[], 19, &[9]),
            claim(true, REDUCED_MANDATORY, REDUCED_OPTIONAL, 31, TOP_EIGHT),
        ],
    ),
    (
        16.0,
        [
            claim(false, &[6, 7], &[], 28, &[17]),
            claim(
                true,
                REDUCED_MANDATORY,
                REDUCED_OPTIONAL,
                29,
                &[1, 2, 3, 4, 5, 6, 7, 9],
            ),
        ],
        [
            claim(false, &[7, 8, 9], &[], 25, &[1]),
            claim(true, REDUCED_MANDATORY, REDUCED_OPTIONAL, 31, TOP_EIGHT),
        ],
    ),
];

fn edges(set: EdgeSet) -> Vec<usize> {
    set.iter().collect()
}

fn rendered(server: &Server) -> u64 {
    server.metrics().counter("oracle.sql_rendered").get()
}

fn plan(server: &Server, tree: &ViewTree, scale: Scale, reduce: bool) -> GreedyResult {
    let oracle = Oracle::new(server, calibrated_params(scale));
    gen_plan(tree, server.database(), &oracle, reduce).expect("genPlan")
}

#[test]
fn fig18_edge_sets_and_sec51_request_counts() {
    for (mb, query1, query2) in &CLAIMS {
        let scale = Scale::mb(*mb);
        let server = Server::new(Arc::new(generate(scale).expect("tpch")));
        let db = server.database();
        for (view, tree, claims) in [
            ("Query 1", query1_tree(db), query1),
            ("Query 2", query2_tree(db), query2),
        ] {
            let worst = tree.edge_count() * tree.edge_count();
            assert_eq!(worst, 81, "{view}: |E| = 9");
            for c in claims {
                let at = format!("{view}, {mb} MB, reduce {}", c.reduce);
                let cold = plan(&server, &tree, scale, c.reduce);
                assert_eq!(edges(cold.mandatory), c.mandatory, "{at}: mandatory");
                assert_eq!(edges(cold.optional), c.optional, "{at}: optional");
                assert_eq!(cold.oracle_requests, c.requests, "{at}: requests");
                assert!(cold.oracle_requests < worst, "{at}: §5.1");

                // The same call again, on the same server: every costing
                // is a named statement the server already holds.
                let before = rendered(&server);
                let warm = plan(&server, &tree, scale, c.reduce);
                assert_eq!(
                    rendered(&server),
                    before,
                    "{at}: a warm call renders no SQL"
                );
                assert_eq!(warm.mandatory, cold.mandatory, "{at}");
                assert_eq!(warm.optional, cold.optional, "{at}");
                assert_eq!(warm.trace, cold.trace, "{at}");
                assert_eq!(warm.oracle_requests, cold.oracle_requests, "{at}");
                assert_eq!(warm.oracle_evaluations, cold.oracle_evaluations, "{at}");

                // The model half of Fig. 18: every plan in the 2⁹ space,
                // costed by the same oracle and ranked cheapest first.
                let oracle = Oracle::new(&server, calibrated_params(scale));
                let ranked = rank_all_plans(&tree, db, &oracle, c.reduce).expect("rank");
                assert_eq!(ranked.len(), 512, "{at}: 2^|E| plans");
                for p in &ranked {
                    let edges = p.edge_bits.count_ones() as usize;
                    assert_eq!(p.streams, 9 - edges + 1, "{at}: streams");
                }
                let rank = |set: EdgeSet| {
                    1 + ranked
                        .iter()
                        .position(|p| p.edge_bits == set.bits())
                        .expect("every edge set is ranked")
                };
                let mut ranks: Vec<usize> = cold.plans().into_iter().map(rank).collect();
                ranks.sort_unstable();
                assert_eq!(ranks, c.ranks, "{at}: model ranks of the generated plans");
                let recommended = rank(cold.recommended());
                if c.reduce {
                    assert_eq!(recommended, 1, "{at}: recommended is the model's argmin");
                } else {
                    assert_eq!(recommended, c.ranks[0], "{at}: recommended rank");
                    let best = ranked[0].estimated_cost;
                    let chosen = ranked[recommended - 1].estimated_cost;
                    assert!(chosen <= best * 1.02, "{at}: {chosen} vs optimum {best}");
                }
            }
        }
    }
}

#[test]
fn reduced_plans_name_the_paper_edges() {
    let server = Server::new(Arc::new(generate(Scale::mb(1.0)).expect("tpch")));
    let tree = query1_tree(server.database());
    let name = |e: usize| format!("{}→{}", tree.node(e).skolem_name(), tree.node(e).tag);
    let mandatory: Vec<String> = REDUCED_MANDATORY.iter().map(|&e| name(e)).collect();
    assert_eq!(
        mandatory,
        [
            "S1.4.1→name",
            "S1.4.2.1→orderkey",
            "S1.4.2.2→customer",
            "S1.4.2.3→nation"
        ]
    );
    let optional: Vec<String> = REDUCED_OPTIONAL.iter().map(|&e| name(e)).collect();
    assert_eq!(optional, ["S1.1→name", "S1.2→nation", "S1.3→region"]);
}
