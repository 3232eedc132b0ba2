//! Plan specifications and end-to-end query generation.
//!
//! A [`PlanSpec`] is the paper's notion of an execution plan: an edge subset
//! (§3.2), whether to apply view-tree reduction (§3.5), and the query style
//! (outer-join, SilkRoute's default, or the outer-union of \[9\]). Generation
//! yields one [`GeneratedQuery`] — plan + SQL text + metadata — per
//! connected component, in stream order.

use sr_data::Database;
use sr_engine::sql::to_sql;
use sr_engine::{EngineError, Plan};
use sr_viewtree::{components, Component, EdgeSet, ReducedComponent, ViewTree};

use crate::outer_join::outer_join_plan;
use crate::outer_union::outer_union_plan;
use crate::relation::{component_columns, ColumnSpec};

/// Which SQL structure to generate for multi-node components (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStyle {
    /// `R ⟕ (S ∪ T)` — SilkRoute's outer-join plans.
    OuterJoin,
    /// `(R ⟕ S) ∪ (R ⟕ T)` — the sorted outer-union of \[9\].
    OuterUnion,
}

/// A complete plan specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSpec {
    /// Included view-tree edges; components of this edge set become the SQL
    /// queries.
    pub edges: EdgeSet,
    /// Apply view-tree reduction inside each component.
    pub reduce: bool,
    /// SQL structure.
    pub style: QueryStyle,
}

impl PlanSpec {
    /// The unified plan (one SQL query), reduced, outer-join style.
    pub fn unified(tree: &ViewTree) -> PlanSpec {
        PlanSpec {
            edges: EdgeSet::full(tree),
            reduce: true,
            style: QueryStyle::OuterJoin,
        }
    }

    /// The fully partitioned plan (one SQL query per node).
    pub fn fully_partitioned() -> PlanSpec {
        PlanSpec {
            edges: EdgeSet::empty(),
            reduce: true,
            style: QueryStyle::OuterJoin,
        }
    }

    /// The unified **sorted outer-union** plan of Shanmugasundaram et al.
    /// \[9\] — the paper's external baseline. It predates SilkRoute's
    /// view-tree reduction, so it is generated non-reduced: one union
    /// branch (and one tuple) per element instance of every node.
    pub fn sorted_outer_union(tree: &ViewTree) -> PlanSpec {
        PlanSpec {
            edges: EdgeSet::full(tree),
            reduce: false,
            style: QueryStyle::OuterUnion,
        }
    }

    /// Parse a plan-spec string — the one grammar the CLI's `--plan` and
    /// the wire's plan field share: `unified` (or empty) | `partitioned` |
    /// `outer-union` | `edges:<bits>`. `reduce` and `style` apply to every
    /// spec except `outer-union`, the fixed baseline of \[9\]. `greedy`
    /// parses to `Ok(None)`: its edges come from a cost oracle the caller
    /// owns.
    pub fn parse(
        tree: &ViewTree,
        text: &str,
        reduce: bool,
        style: QueryStyle,
    ) -> Result<Option<PlanSpec>, String> {
        let edges = match text {
            "" | "unified" => EdgeSet::full(tree),
            "partitioned" => EdgeSet::empty(),
            "outer-union" => return Ok(Some(PlanSpec::sorted_outer_union(tree))),
            "greedy" => return Ok(None),
            other => {
                let bits = other
                    .strip_prefix("edges:")
                    .ok_or_else(|| format!("unknown plan spec {other:?}"))?;
                EdgeSet::from_bits(bits.parse().map_err(|e| format!("bad edge bits: {e}"))?)
            }
        };
        Ok(Some(PlanSpec {
            edges,
            reduce,
            style,
        }))
    }
}

/// One generated SQL query (= one tuple stream) of a plan.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// The component this query computes.
    pub component: Component,
    /// The (possibly reduced) class tree, needed by the tagger.
    pub reduced: ReducedComponent,
    /// Executable plan (already projected to the §3.2 layout and sorted).
    pub plan: Plan,
    /// The SQL text shipped to the server.
    pub sql: String,
    /// The relation layout (column ↔ level-label/variable mapping).
    pub columns: Vec<ColumnSpec>,
}

/// Generate the SQL queries for a plan specification, in stream order
/// (preorder of component roots).
pub fn generate_queries(
    tree: &ViewTree,
    db: &Database,
    spec: PlanSpec,
) -> Result<Vec<GeneratedQuery>, EngineError> {
    generate_queries_filtered(tree, db, spec, &[])
}

/// Like [`generate_queries`], with an equality filter on **root-element key
/// variables** applied to every component query — the paper's §7 fragment
/// scenario ("a user query requests only a subset of the XML view"): export
/// just the elements under matching root instances. Every component carries
/// the root keys, and the server's predicate pushdown drives the filter
/// into the base scans.
pub fn generate_queries_filtered(
    tree: &ViewTree,
    db: &Database,
    spec: PlanSpec,
    root_filter: &[(sr_viewtree::VarId, sr_data::Value)],
) -> Result<Vec<GeneratedQuery>, EngineError> {
    for (v, _) in root_filter {
        if !tree.node(tree.root()).key_args.contains(v) {
            return Err(EngineError::InvalidPlan(format!(
                "fragment filter variable {} is not a root key",
                tree.var(*v).plan_name()
            )));
        }
    }
    let comps = components(tree, spec.edges);
    let mut out = Vec::with_capacity(comps.len());
    for component in comps {
        let reduced = sr_viewtree::reduce_component(tree, &component, spec.edges, spec.reduce);
        let mut plan = match spec.style {
            QueryStyle::OuterJoin => outer_join_plan(tree, &reduced, db)?,
            QueryStyle::OuterUnion => outer_union_plan(tree, &reduced, db)?,
        };
        if !root_filter.is_empty() {
            // Insert the filter below the final sort so the stream stays
            // ordered; pushdown happens server-side.
            let preds: Vec<sr_engine::Predicate> = root_filter
                .iter()
                .map(|(v, value)| {
                    sr_engine::Predicate::new(
                        sr_engine::Expr::col(tree.var(*v).plan_name()),
                        sr_engine::CmpOp::Eq,
                        sr_engine::Expr::Lit(value.clone()),
                    )
                })
                .collect();
            plan = match plan {
                Plan::Sort { input, keys } => input.filter(preds).sort(keys),
                other => other.filter(preds),
            };
        }
        let sql = to_sql(&plan, db)?;
        let columns = component_columns(tree, &reduced);
        out.push(GeneratedQuery {
            component,
            reduced,
            plan,
            sql,
            columns,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_data::{row, DataType, ForeignKey, Schema, Table};
    use sr_engine::{execute, Server};
    use sr_viewtree::build;
    use std::sync::Arc;

    fn setup() -> (ViewTree, Database) {
        let mut db = Database::new();
        let mut s = Table::new(
            "Supplier",
            Schema::of(&[
                ("suppkey", DataType::Int),
                ("name", DataType::Str),
                ("nationkey", DataType::Int),
            ]),
        );
        s.insert_all([row![1i64, "A", 10i64], row![2i64, "B", 20i64]])
            .unwrap();
        let mut n = Table::new(
            "Nation",
            Schema::of(&[("nationkey", DataType::Int), ("name", DataType::Str)]),
        );
        n.insert_all([row![10i64, "USA"], row![20i64, "Spain"]])
            .unwrap();
        let mut ps = Table::new(
            "PartSupp",
            Schema::of(&[("partkey", DataType::Int), ("suppkey", DataType::Int)]),
        );
        ps.insert_all([row![7i64, 1i64], row![8i64, 1i64]]).unwrap();
        db.add_table(s);
        db.add_table(n);
        db.add_table(ps);
        db.declare_key("Supplier", &["suppkey"]).unwrap();
        db.declare_key("Nation", &["nationkey"]).unwrap();
        db.declare_key("PartSupp", &["partkey", "suppkey"]).unwrap();
        db.declare_foreign_key(ForeignKey::new(
            "Supplier",
            &["nationkey"],
            "Nation",
            &["nationkey"],
        ))
        .unwrap();
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
        let t = build(&q, &db).unwrap();
        (t, db)
    }

    #[test]
    fn unified_spec_generates_one_query() {
        let (t, db) = setup();
        let qs = generate_queries(&t, &db, PlanSpec::unified(&t)).unwrap();
        assert_eq!(qs.len(), 1);
        assert!(qs[0].sql.starts_with("SELECT"));
        assert!(qs[0].sql.contains("ORDER BY"));
    }

    #[test]
    fn fully_partitioned_generates_one_query_per_node() {
        let (t, db) = setup();
        let qs = generate_queries(&t, &db, PlanSpec::fully_partitioned()).unwrap();
        assert_eq!(qs.len(), t.nodes.len());
        // Stream order follows preorder of component roots.
        let roots: Vec<usize> = qs.iter().map(|q| q.component.root).collect();
        assert_eq!(roots, vec![0, 1, 2, 3]);
    }

    #[test]
    fn generated_sql_executes_on_the_server() {
        let (t, db) = setup();
        let server = Server::new(Arc::new(db));
        for spec in [
            PlanSpec::unified(&ViewTree {
                nodes: t.nodes.clone(),
                vars: t.vars.clone(),
            }),
            PlanSpec::fully_partitioned(),
            PlanSpec::sorted_outer_union(&ViewTree {
                nodes: t.nodes.clone(),
                vars: t.vars.clone(),
            }),
        ] {
            let qs = generate_queries(&t, server.database(), spec).unwrap();
            for q in qs {
                let stream = server
                    .execute_sql(&q.sql)
                    .unwrap_or_else(|e| panic!("SQL failed ({e}): {}", q.sql));
                // Server result matches direct plan execution.
                let direct = execute(&q.plan, server.database()).unwrap();
                assert_eq!(stream.row_count, direct.rows.len());
                let rows = stream.collect_rows().unwrap();
                assert_eq!(rows, direct.rows, "wire vs direct for {}", q.sql);
            }
        }
    }

    #[test]
    fn outer_join_vs_outer_union_sql_shapes() {
        let (t, db) = setup();
        let oj = generate_queries(&t, &db, PlanSpec::unified(&t)).unwrap();
        let ou = generate_queries(&t, &db, PlanSpec::sorted_outer_union(&t)).unwrap();
        assert!(oj[0].sql.contains("LEFT OUTER JOIN"), "{}", oj[0].sql);
        assert!(ou[0].sql.contains("UNION ALL"), "{}", ou[0].sql);
        assert!(!ou[0].sql.contains("LEFT OUTER JOIN"), "{}", ou[0].sql);
    }

    #[test]
    fn all_512_like_enumeration_generates_valid_sql() {
        let (t, db) = setup();
        let server = Server::new(Arc::new(db));
        let mut total = 0;
        for edges in sr_viewtree::all_edge_sets(&t) {
            for reduce in [false, true] {
                let spec = PlanSpec {
                    edges,
                    reduce,
                    style: QueryStyle::OuterJoin,
                };
                let qs = generate_queries(&t, server.database(), spec).unwrap();
                assert_eq!(qs.len(), t.edge_count() - edges.len() + 1);
                for q in &qs {
                    server
                        .execute_sql(&q.sql)
                        .unwrap_or_else(|e| panic!("{e}: {}", q.sql));
                }
                total += qs.len();
            }
        }
        assert!(total > 0);
    }
}
