//! Source capabilities and permissible plans (paper §3.4).
//!
//! "Some of the plans SilkRoute produces do not require outer union, outer
//! join, or the `with` clause. … This characteristic is especially useful
//! in a middle-ware system, because all SQL engines do not necessarily
//! support all these constructs. In those cases, SilkRoute chooses
//! permissible plans based on the source description of the underlying
//! RDBMS."
//!
//! [`Capabilities`] records what the target engine supports;
//! [`required_features`] inspects the SQL a plan generates;
//! [`permissible_plans`] filters the `2^|E|` plan space accordingly. The
//! fully partitioned plan is always permissible (it needs neither outer
//! joins nor unions), so a plan always exists.

use sr_data::Database;
use sr_engine::EngineError;
use sr_sqlgen::{generate_queries, PlanSpec, QueryStyle};
use sr_viewtree::{all_edge_sets, EdgeSet, ViewTree};

/// SQL constructs the target engine supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// `LEFT OUTER JOIN`.
    pub outer_join: bool,
    /// `UNION ALL`.
    pub union_all: bool,
}

impl Capabilities {
    /// A fully featured engine (every plan permissible).
    pub fn full() -> Capabilities {
        Capabilities {
            outer_join: true,
            union_all: true,
        }
    }

    /// A minimal select-project-join engine.
    pub fn minimal() -> Capabilities {
        Capabilities {
            outer_join: false,
            union_all: false,
        }
    }
}

impl Default for Capabilities {
    fn default() -> Self {
        Capabilities::full()
    }
}

/// SQL constructs a concrete plan needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequiredFeatures {
    /// Needs `LEFT OUTER JOIN`.
    pub outer_join: bool,
    /// Needs `UNION ALL`.
    pub union_all: bool,
}

impl RequiredFeatures {
    /// Is this requirement satisfied by the capabilities?
    pub fn satisfied_by(self, caps: Capabilities) -> bool {
        (!self.outer_join || caps.outer_join) && (!self.union_all || caps.union_all)
    }
}

/// The features a plan's generated SQL actually uses.
pub fn required_features(
    tree: &ViewTree,
    db: &Database,
    spec: PlanSpec,
) -> Result<RequiredFeatures, EngineError> {
    let mut req = RequiredFeatures::default();
    for q in generate_queries(tree, db, spec)? {
        req.outer_join |= q.plan.uses_outer_join();
        req.union_all |= q.plan.uses_union();
    }
    Ok(req)
}

/// Is the plan permissible on an engine with the given capabilities?
pub fn permissible(
    tree: &ViewTree,
    db: &Database,
    spec: PlanSpec,
    caps: Capabilities,
) -> Result<bool, EngineError> {
    Ok(required_features(tree, db, spec)?.satisfied_by(caps))
}

/// All permissible edge sets for an engine (outer-join style, with the
/// given reduction setting).
pub fn permissible_plans(
    tree: &ViewTree,
    db: &Database,
    caps: Capabilities,
    reduce: bool,
) -> Result<Vec<EdgeSet>, EngineError> {
    let mut out = Vec::new();
    for edges in all_edge_sets(tree) {
        let spec = PlanSpec {
            edges,
            reduce,
            style: QueryStyle::OuterJoin,
        };
        if permissible(tree, db, spec, caps)? {
            out.push(edges);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn fully_partitioned_needs_nothing() {
        let (tree, server) = setup();
        let req =
            required_features(&tree, server.database(), PlanSpec::fully_partitioned()).unwrap();
        assert!(!req.outer_join);
        assert!(!req.union_all);
        assert!(req.satisfied_by(Capabilities::minimal()));
    }

    #[test]
    fn unified_needs_union_and_maybe_outer_join() {
        let (tree, server) = setup();
        // Non-reduced unified: three sibling branches → union; the `*` part
        // branch alone in a union with total siblings → inner join, so test
        // the star-only subtree for the outer-join requirement.
        let req = required_features(
            &tree,
            server.database(),
            PlanSpec {
                edges: EdgeSet::full(&tree),
                reduce: false,
                style: QueryStyle::OuterJoin,
            },
        )
        .unwrap();
        assert!(req.union_all);
        assert!(!req.satisfied_by(Capabilities {
            outer_join: true,
            union_all: false,
        }));
        assert!(req.satisfied_by(Capabilities::full()));
    }

    #[test]
    fn star_only_chain_needs_outer_join_but_no_union() {
        let (_, server) = setup();
        let q = sr_rxl::parse(
            "from Supplier $s construct <supplier>\
             { from PartSupp $ps where $s.suppkey = $ps.suppkey \
               construct <part>$ps.partkey</part> }</supplier>",
        )
        .unwrap();
        let tree = build(&q, server.database()).unwrap();
        let req = required_features(
            &tree,
            server.database(),
            PlanSpec {
                edges: EdgeSet::full(&tree),
                reduce: true,
                style: QueryStyle::OuterJoin,
            },
        )
        .unwrap();
        assert!(req.outer_join, "single * child needs the outer join");
        assert!(!req.union_all, "no sibling branches, no union (§3.4)");
    }

    #[test]
    fn minimal_engine_still_has_permissible_plans() {
        let (tree, server) = setup();
        let plans =
            permissible_plans(&tree, server.database(), Capabilities::minimal(), true).unwrap();
        assert!(!plans.is_empty());
        assert!(
            plans.contains(&EdgeSet::empty()),
            "fully partitioned always works"
        );
        // And every permissible plan really avoids the constructs.
        for edges in &plans {
            let spec = PlanSpec {
                edges: *edges,
                reduce: true,
                style: QueryStyle::OuterJoin,
            };
            let req = required_features(&tree, server.database(), spec).unwrap();
            assert!(!req.outer_join && !req.union_all);
        }
    }

    #[test]
    fn full_engine_permits_everything() {
        let (tree, server) = setup();
        let plans =
            permissible_plans(&tree, server.database(), Capabilities::full(), true).unwrap();
        assert_eq!(plans.len(), 1 << tree.edge_count());
    }

    #[test]
    fn reduction_enlarges_the_permissible_space() {
        // Merging 1-edges removes union branches, so a no-union engine
        // permits more plans with reduction than without.
        let (tree, server) = setup();
        let caps = Capabilities {
            outer_join: true,
            union_all: false,
        };
        let with = permissible_plans(&tree, server.database(), caps, true)
            .unwrap()
            .len();
        let without = permissible_plans(&tree, server.database(), caps, false)
            .unwrap()
            .len();
        assert!(
            with >= without,
            "reduced permissible {with} < non-reduced {without}"
        );
    }
}
