//! The greedy plan-generation algorithm `genPlan` (paper §5, Fig. 17).
//!
//! Starting from the fully partitioned plan, repeatedly compute for every
//! remaining edge the *relative cost* of including it —
//! `cost(q_c) − (cost(q_1) + cost(q_2))`, where `q_1`/`q_2` are the queries
//! of the two components the edge connects and `q_c` their combination
//! (`combineQueries`, which applies view-tree reduction to eligible edges)
//! — and greedily add the cheapest edge as **mandatory** (relative cost
//! `< t1`) or **optional** (`< t2`), until no edge qualifies.
//!
//! The returned plan family is `mandatory ∪ S` for every subset `S` of the
//! optional edges (Fig. 18's "each subset of the four optional edges
//! defines a plan").

use std::collections::HashMap;

use sr_data::Database;
use sr_engine::EngineError;
use sr_viewtree::{components, Component, EdgeSet, NodeId, ViewTree};

use crate::oracle::Oracle;

/// Result of running `genPlan`.
#[derive(Debug, Clone)]
pub struct GreedyResult {
    /// Edges every generated plan includes.
    pub mandatory: EdgeSet,
    /// Edges plans may include or not.
    pub optional: EdgeSet,
    /// Order in which edges were chosen, with their relative costs.
    pub trace: Vec<EdgeChoice>,
    /// Distinct cost-estimate requests sent to the server (§5.1).
    pub oracle_requests: usize,
    /// Total cost lookups including cache hits.
    pub oracle_evaluations: usize,
    /// Wall time spent in the server's estimate endpoint while planning.
    pub oracle_time: std::time::Duration,
}

/// One greedy step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeChoice {
    /// The chosen edge (child node id).
    pub edge: NodeId,
    /// Its relative cost at selection time.
    pub relative_cost: f64,
    /// Whether it was added as mandatory.
    pub mandatory: bool,
}

impl GreedyResult {
    /// The included edge set of every generated plan: `mandatory ∪ S` for
    /// each subset `S` of the optional edges.
    pub fn plans(&self) -> Vec<EdgeSet> {
        let opts: Vec<NodeId> = self.optional.iter().collect();
        let n = opts.len();
        (0..(1usize << n))
            .map(|mask| {
                let mut set = self.mandatory;
                for (i, &e) in opts.iter().enumerate() {
                    if (mask >> i) & 1 == 1 {
                        set.insert(e);
                    }
                }
                set
            })
            .collect()
    }

    /// The "best" plan: mandatory plus all optional edges whose recorded
    /// relative cost was negative.
    pub fn recommended(&self) -> EdgeSet {
        let mut set = self.mandatory;
        for c in &self.trace {
            if !c.mandatory && c.relative_cost < 0.0 {
                set.insert(c.edge);
            }
        }
        set
    }
}

/// Run the greedy algorithm. `reduce` selects whether `combineQueries`
/// applies view-tree reduction (the paper evaluates both variants).
pub fn gen_plan(
    tree: &ViewTree,
    db: &Database,
    oracle: &Oracle<'_>,
    reduce: bool,
) -> Result<GreedyResult, EngineError> {
    gen_plan_capable(tree, db, oracle, reduce, crate::Capabilities::full())
}

/// [`gen_plan`] restricted to a target engine's capabilities (§3.4:
/// "SilkRoute chooses permissible plans based on the source description of
/// the underlying RDBMS"). An edge whose combined query would require an
/// unsupported construct is never selected, so every generated plan is
/// permissible. The fully partitioned starting point needs nothing, so the
/// algorithm always terminates with at least one plan.
pub fn gen_plan_capable(
    tree: &ViewTree,
    db: &Database,
    oracle: &Oracle<'_>,
    reduce: bool,
    caps: crate::Capabilities,
) -> Result<GreedyResult, EngineError> {
    // A component's query depends on its nodes alone — every non-root
    // member's parent edge is included by definition — so each distinct
    // component is costed once per call, as a statement named by the
    // tree's literal-masked shape: built and printed only the first time
    // the server sees that shape.
    let view = oracle.view_shape(tree, db);
    let mut memo: HashMap<Vec<NodeId>, f64> = HashMap::new();
    let mut component_cost = |comp: &Component, edges| -> Result<f64, EngineError> {
        if let Some(&cost) = memo.get(&comp.nodes) {
            return Ok(cost);
        }
        let cost = match &view {
            Some(view) => oracle.named_component_cost(view, tree, db, comp, edges, reduce)?,
            None => oracle.component_cost(tree, db, comp, edges, reduce)?,
        };
        memo.insert(comp.nodes.clone(), cost);
        Ok(cost)
    };
    let params = oracle.params();
    let mut included = EdgeSet::empty();
    let mut mandatory = EdgeSet::empty();
    let mut optional = EdgeSet::empty();
    let mut trace = Vec::new();

    loop {
        let comps = components(tree, included);
        let comp_of = |node: NodeId| -> usize {
            comps
                .iter()
                .position(|c| c.contains(node))
                .expect("every node is in a component")
        };

        // Relative cost of every excluded edge.
        let mut best: Option<(f64, NodeId)> = None;
        for edge in tree.edges() {
            if included.contains(edge) {
                continue;
            }
            let parent = tree.node(edge).parent.expect("edge child has parent");
            let child_comp = &comps[comp_of(edge)];
            let parent_comp = &comps[comp_of(parent)];
            let cost_child = component_cost(child_comp, included)?;
            let cost_parent = component_cost(parent_comp, included)?;
            // Combined component under included + edge.
            let mut with_edge = included;
            with_edge.insert(edge);
            let merged_comps = components(tree, with_edge);
            let merged = merged_comps
                .iter()
                .find(|c| c.contains(parent))
                .expect("merged component exists");
            debug_assert!(merged.contains(edge));
            // Capability check: the combined query must be expressible on
            // the target engine.
            if caps != crate::Capabilities::full() {
                let plan = oracle.component_plan(tree, db, merged, with_edge, reduce)?;
                let needs = crate::RequiredFeatures {
                    outer_join: plan.uses_outer_join(),
                    union_all: plan.uses_union(),
                };
                if !needs.satisfied_by(caps) {
                    continue;
                }
            }
            let cost_merged = component_cost(merged, with_edge)?;
            let relative = cost_merged - (cost_parent + cost_child);
            if best.map(|(b, _)| relative < b).unwrap_or(true) {
                best = Some((relative, edge));
            }
        }

        match best {
            Some((rel, edge)) if rel < params.t1 || rel < params.t2 => {
                let is_mandatory = rel < params.t1;
                if is_mandatory {
                    mandatory.insert(edge);
                } else {
                    optional.insert(edge);
                }
                included.insert(edge);
                trace.push(EdgeChoice {
                    edge,
                    relative_cost: rel,
                    mandatory: is_mandatory,
                });
            }
            _ => break,
        }
    }

    Ok(GreedyResult {
        mandatory,
        optional,
        trace,
        oracle_requests: oracle.requests(),
        oracle_evaluations: oracle.evaluations(),
        oracle_time: oracle.estimate_time(),
    })
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
               { from Nation $n where $s.nationkey = $n.nationkey \
                 construct <nation>$n.name</nation> }\
               { from PartSupp $ps where $s.suppkey = $ps.suppkey \
                 construct <part>$ps.partkey</part> }\
             </supplier>",
        )
        .unwrap();
        let tree = build(&q, &db).unwrap();
        (tree, Server::new(Arc::new(db)))
    }

    #[test]
    fn everything_mandatory_with_huge_threshold() {
        let (tree, server) = setup();
        let oracle = Oracle::new(
            &server,
            CostParams {
                t1: f64::INFINITY,
                t2: f64::INFINITY,
                ..Default::default()
            },
        );
        let r = gen_plan(&tree, server.database(), &oracle, true).unwrap();
        assert_eq!(r.mandatory.len(), tree.edge_count(), "all edges mandatory");
        assert_eq!(r.plans().len(), 1, "single (unified) plan");
    }

    #[test]
    fn nothing_included_with_tiny_threshold() {
        let (tree, server) = setup();
        let oracle = Oracle::new(
            &server,
            CostParams {
                t1: f64::NEG_INFINITY,
                t2: f64::NEG_INFINITY,
                ..Default::default()
            },
        );
        let r = gen_plan(&tree, server.database(), &oracle, true).unwrap();
        assert!(r.mandatory.is_empty());
        assert!(r.optional.is_empty());
        assert_eq!(r.plans(), vec![EdgeSet::empty()], "fully partitioned only");
    }

    #[test]
    fn optional_band_generates_plan_family() {
        let (tree, server) = setup();
        // t1 very low, t2 very high: every edge optional.
        let oracle = Oracle::new(
            &server,
            CostParams {
                t1: f64::NEG_INFINITY,
                t2: f64::INFINITY,
                ..Default::default()
            },
        );
        let r = gen_plan(&tree, server.database(), &oracle, true).unwrap();
        assert_eq!(r.optional.len(), tree.edge_count());
        assert_eq!(r.plans().len(), 1 << tree.edge_count());
        // Trace records every choice in order.
        assert_eq!(r.trace.len(), tree.edge_count());
    }

    #[test]
    fn greedy_prefers_cheap_one_edges_first() {
        let (tree, server) = setup();
        let oracle = Oracle::new(
            &server,
            CostParams {
                t1: f64::INFINITY,
                t2: f64::INFINITY,
                ..Default::default()
            },
        );
        let r = gen_plan(&tree, server.database(), &oracle, true).unwrap();
        // The first chosen edge should be a `1`-labeled one (merging it
        // removes a whole query at almost no combined-query cost).
        let first = r.trace[0].edge;
        assert_eq!(tree.node(first).label, sr_viewtree::Mult::One);
        // Relative costs are non-decreasing only per-step choice; at least
        // assert the first choice was the cheapest of the first round.
        assert!(r.trace[0].relative_cost <= r.trace[1].relative_cost * 1.0 + 1e9);
    }

    #[test]
    fn capability_restricted_greedy_only_selects_permissible_merges() {
        let (tree, server) = setup();
        let caps = crate::Capabilities {
            outer_join: false,
            union_all: false,
        };
        let oracle = Oracle::new(
            &server,
            CostParams {
                t1: f64::INFINITY,
                t2: f64::INFINITY,
                ..Default::default()
            },
        );
        let r = crate::gen_plan_capable(&tree, server.database(), &oracle, true, caps).unwrap();
        // Every generated plan must avoid outer joins and unions entirely.
        for edges in r.plans() {
            let req = crate::required_features(
                &tree,
                server.database(),
                sr_sqlgen::PlanSpec {
                    edges,
                    reduce: true,
                    style: sr_sqlgen::QueryStyle::OuterJoin,
                },
            )
            .unwrap();
            assert!(
                !req.outer_join && !req.union_all,
                "plan {edges} impermissible"
            );
        }
        // With infinite thresholds it still merges the reducible 1-edges
        // (flat inner-join queries need no special constructs).
        assert!(!r.mandatory.is_empty());
        // But never the `*` edge (which would need an outer join).
        for e in tree.edges() {
            if tree.node(e).label == sr_viewtree::Mult::ZeroOrMore {
                assert!(!r.mandatory.contains(e) && !r.optional.contains(e));
            }
        }
    }

    /// `genPlan` as the paper states it: every evaluation costs its
    /// component afresh (no memo), with full capabilities.
    fn reference_gen_plan(
        tree: &ViewTree,
        db: &Database,
        oracle: &Oracle<'_>,
        reduce: bool,
    ) -> Result<GreedyResult, EngineError> {
        let caps = crate::Capabilities::full();
        let params = oracle.params();
        let mut included = EdgeSet::empty();
        let mut mandatory = EdgeSet::empty();
        let mut optional = EdgeSet::empty();
        let mut trace = Vec::new();

        loop {
            let comps = components(tree, included);
            let comp_of = |node: NodeId| -> usize {
                comps
                    .iter()
                    .position(|c| c.contains(node))
                    .expect("every node is in a component")
            };

            // Relative cost of every excluded edge.
            let mut best: Option<(f64, NodeId)> = None;
            for edge in tree.edges() {
                if included.contains(edge) {
                    continue;
                }
                let parent = tree.node(edge).parent.expect("edge child has parent");
                let child_comp = &comps[comp_of(edge)];
                let parent_comp = &comps[comp_of(parent)];
                let cost_child = oracle.component_cost(tree, db, child_comp, included, reduce)?;
                let cost_parent = oracle.component_cost(tree, db, parent_comp, included, reduce)?;
                // Combined component under included + edge.
                let mut with_edge = included;
                with_edge.insert(edge);
                let merged_comps = components(tree, with_edge);
                let merged = merged_comps
                    .iter()
                    .find(|c| c.contains(parent))
                    .expect("merged component exists");
                debug_assert!(merged.contains(edge));
                // Capability check: the combined query must be expressible on
                // the target engine.
                if caps != crate::Capabilities::full() {
                    let plan = oracle.component_plan(tree, db, merged, with_edge, reduce)?;
                    let needs = crate::RequiredFeatures {
                        outer_join: plan.uses_outer_join(),
                        union_all: plan.uses_union(),
                    };
                    if !needs.satisfied_by(caps) {
                        continue;
                    }
                }
                let cost_merged = oracle.component_cost(tree, db, merged, with_edge, reduce)?;
                let relative = cost_merged - (cost_parent + cost_child);
                if best.map(|(b, _)| relative < b).unwrap_or(true) {
                    best = Some((relative, edge));
                }
            }

            match best {
                Some((rel, edge)) if rel < params.t1 || rel < params.t2 => {
                    let is_mandatory = rel < params.t1;
                    if is_mandatory {
                        mandatory.insert(edge);
                    } else {
                        optional.insert(edge);
                    }
                    included.insert(edge);
                    trace.push(EdgeChoice {
                        edge,
                        relative_cost: rel,
                        mandatory: is_mandatory,
                    });
                }
                _ => break,
            }
        }

        Ok(GreedyResult {
            mandatory,
            optional,
            trace,
            oracle_requests: oracle.requests(),
            oracle_evaluations: oracle.evaluations(),
            oracle_time: oracle.estimate_time(),
        })
    }

    #[test]
    fn component_memo_keeps_every_verdict() {
        let scale = Scale::mb(0.1);
        let server = Server::new(Arc::new(generate(scale).unwrap()));
        let db = server.database();
        let query1 = silkroute::query1_tree(db);
        let mut trees = vec![query1.clone(), silkroute::query2_tree(db)];
        for xpath in [
            "/supplier/name",
            "/supplier/part[name = \"x\"]/order",
            "//order[orderkey < 100]",
        ] {
            let path = sr_xpath::parse(xpath).unwrap();
            trees.push(sr_xpath::compose(&query1, &path).unwrap().tree);
        }
        // `silkroute::calibrated_params` at this scale.
        let params = CostParams {
            t1: -6_000.0,
            t2: 600.0,
            ..Default::default()
        };
        let (mut with_memo, mut without) = (0, 0);
        for tree in &trees {
            for reduce in [false, true] {
                let memo = gen_plan(tree, db, &Oracle::new(&server, params), reduce).unwrap();
                let oracle = Oracle::new(&server, params);
                let plain = reference_gen_plan(tree, db, &oracle, reduce).unwrap();
                assert_eq!(memo.mandatory, plain.mandatory);
                assert_eq!(memo.optional, plain.optional);
                assert_eq!(memo.trace, plain.trace);
                assert_eq!(memo.oracle_requests, plain.oracle_requests);
                assert!(memo.oracle_evaluations <= plain.oracle_evaluations);
                with_memo += memo.oracle_evaluations;
                without += plain.oracle_evaluations;
            }
        }
        assert!(with_memo < without, "{with_memo} vs {without} evaluations");
    }

    #[test]
    fn request_count_far_below_worst_case() {
        let (tree, server) = setup();
        let oracle = Oracle::new(&server, CostParams::default());
        let r = gen_plan(&tree, server.database(), &oracle, true).unwrap();
        let e = tree.edge_count();
        // §5.1: far fewer distinct requests than |E|² evaluations.
        assert!(r.oracle_requests <= e * e + 2 * e + 1);
        // Each distinct component is costed once, so every evaluation that
        // reaches the oracle is a request.
        assert!(r.oracle_requests <= r.oracle_evaluations);
    }
}
