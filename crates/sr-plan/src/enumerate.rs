//! Exhaustive plan enumeration (paper §4).
//!
//! "One important feature of a view tree is that it permits us to generate
//! and compare all possible execution plans for an RXL query." For a tree
//! with `|E|` edges there are `2^|E|` plans; Config A's experiments run all
//! of them. This module enumerates the plan space with *estimated* costs
//! (no execution) — `silkroute bench --plan all` does the timed runs.

use sr_data::Database;
use sr_engine::EngineError;
use sr_sqlgen::{PlanSpec, QueryStyle};
use sr_viewtree::{all_edge_sets, components, EdgeSet, ViewTree};

use crate::oracle::Oracle;

/// An enumerated plan with its estimated cost.
#[derive(Debug, Clone)]
pub struct RankedPlan {
    /// Included edges (bit i ↔ edge to node i+1).
    pub edge_bits: u64,
    /// Number of SQL queries / tuple streams (`|E| − |edges| + 1`).
    pub streams: usize,
    /// Estimated combined cost under the oracle's parameters.
    pub estimated_cost: f64,
}

/// Estimate every plan in the `2^|E|` space and return them sorted by cost
/// (cheapest first). The oracle's cache makes this cheap: there are only
/// `O(|E| · 2^|E|)` component evaluations but far fewer distinct components.
pub fn rank_all_plans(
    tree: &ViewTree,
    db: &Database,
    oracle: &Oracle<'_>,
    reduce: bool,
) -> Result<Vec<RankedPlan>, EngineError> {
    let mut out = Vec::with_capacity(1usize << tree.edge_count());
    for edges in all_edge_sets(tree) {
        let spec = PlanSpec {
            edges,
            reduce,
            style: QueryStyle::OuterJoin,
        };
        let cost = oracle.plan_cost(tree, db, spec)?;
        out.push(RankedPlan {
            edge_bits: edges.bits(),
            streams: components(tree, edges).len(),
            estimated_cost: cost,
        });
    }
    out.sort_by(|a, b| a.estimated_cost.total_cmp(&b.estimated_cost));
    Ok(out)
}

/// The estimated-optimal edge set.
pub fn estimated_best(
    tree: &ViewTree,
    db: &Database,
    oracle: &Oracle<'_>,
    reduce: bool,
) -> Result<EdgeSet, EngineError> {
    let ranked = rank_all_plans(tree, db, oracle, reduce)?;
    Ok(EdgeSet::from_bits(ranked[0].edge_bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CostParams;
    use sr_engine::Server;
    use sr_tpch::{generate, Scale};
    use sr_viewtree::build;
    use std::sync::Arc;

    fn setup() -> (ViewTree, Server) {
        let db = generate(Scale::mb(0.05)).unwrap();
        let q = sr_rxl::parse(
            "from Supplier $s construct <supplier>\
               <name>$s.name</name>\
               { from PartSupp $ps where $s.suppkey = $ps.suppkey \
                 construct <part>$ps.partkey</part> }\
             </supplier>",
        )
        .unwrap();
        let tree = build(&q, &db).unwrap();
        (tree, Server::new(Arc::new(db)))
    }

    #[test]
    fn enumerates_full_plan_space() {
        let (tree, server) = setup();
        let oracle = Oracle::new(&server, CostParams::default());
        let ranked = rank_all_plans(&tree, server.database(), &oracle, true).unwrap();
        assert_eq!(ranked.len(), 1 << tree.edge_count());
        // Sorted ascending.
        for w in ranked.windows(2) {
            assert!(w[0].estimated_cost <= w[1].estimated_cost);
        }
        // Stream counts are consistent with edge counts.
        for p in &ranked {
            let set = EdgeSet::from_bits(p.edge_bits);
            assert_eq!(p.streams, tree.edge_count() - set.len() + 1);
        }
    }

    #[test]
    fn best_plan_is_reachable() {
        let (tree, server) = setup();
        let oracle = Oracle::new(&server, CostParams::default());
        let best = estimated_best(&tree, server.database(), &oracle, true).unwrap();
        assert!(best.len() <= tree.edge_count());
    }

    #[test]
    fn estimation_reuses_component_cache() {
        let (tree, server) = setup();
        let oracle = Oracle::new(&server, CostParams::default());
        rank_all_plans(&tree, server.database(), &oracle, true).unwrap();
        // Distinct component queries are far fewer than total evaluations.
        assert!(oracle.requests() < oracle.evaluations());
    }
}
