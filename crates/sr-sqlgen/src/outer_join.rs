//! Outer-join query plans (paper §3.4).
//!
//! "The sub-query for a node n in a view tree and the sub-queries of n's
//! children are combined with an outer join. The sub-queries for n's
//! children (siblings) are combined with an outer union." —
//! `R ⟕ (S ∪ T)`, the style SilkRoute implements by default.
//!
//! Deviation from the paper's sample SQL, per DESIGN.md §6.1: because our
//! Skolem terms carry ancestor keys, every child sub-query projects its
//! parent's key variables, so the outer join is always on the parent's key
//! columns — no per-branch `(L2 = i AND …)` disjunctions are needed.

use std::collections::HashSet;

use sr_data::{DataType, Database};
use sr_engine::{EngineError, Expr, JoinKind, Plan};
use sr_viewtree::{ReducedComponent, ViewTree};

use crate::body::{body_plan, field_col};
use crate::relation::{component_columns, var_dtype, ColumnSpec};

/// Prefix for join-only duplicate columns on the union side.
const JK: &str = "jk_";

/// Build the outer-join plan for one reduced component, including the final
/// projection to the §3.2 relation layout and the trailing sort.
pub fn outer_join_plan(
    tree: &ViewTree,
    rc: &ReducedComponent,
    db: &Database,
) -> Result<Plan, EngineError> {
    let plan = subtree(tree, rc, 0, 0, db)?;
    finalize(tree, rc, plan, db)
}

/// Project a plan to the component's relation layout (filling columns the
/// join tree did not produce with typed NULLs) and sort it.
///
/// The ORDER BY uses the level labels and **key** variables only, in layout
/// order. Content variables must not participate: rows representing a
/// parent element's own payload (identity/union branches) leave child
/// columns NULL while child rows leave parent *content* NULL, so sorting by
/// content would order a parent's payload row after its children. Keys
/// alone already give a total order (they identify every element instance).
pub fn finalize(
    tree: &ViewTree,
    rc: &ReducedComponent,
    plan: Plan,
    db: &Database,
) -> Result<Plan, EngineError> {
    let layout = component_columns(tree, rc);
    let schema = plan.schema(db)?;
    let mut is_key = vec![false; tree.vars.len()];
    for n in &tree.nodes {
        for &k in &n.key_args {
            is_key[k] = true;
        }
    }
    let items = layout
        .iter()
        .map(|c| {
            let name = c.name(tree);
            let expr = if schema.contains(&name) {
                Expr::col(name.clone())
            } else {
                match c {
                    ColumnSpec::Level(_) => Expr::TypedNull(DataType::Int),
                    ColumnSpec::Var(v) => Expr::TypedNull(var_dtype(tree, db, *v)),
                }
            };
            (name, expr)
        })
        .collect::<Vec<_>>();
    let keys: Vec<String> = layout
        .iter()
        .filter(|c| match c {
            ColumnSpec::Level(_) => true,
            ColumnSpec::Var(v) => is_key[*v],
        })
        .map(|c| c.name(tree))
        .collect();
    Ok(plan.project(items).sort(keys))
}

/// The base query of one class: its rule body joined, projecting its Skolem
/// arguments under their `v{p}_{q}` names plus the `L` literals for the
/// levels between its parent class root and its own root.
pub fn class_base(
    tree: &ViewTree,
    rc: &ReducedComponent,
    idx: usize,
    parent_depth: u16,
) -> Result<Plan, EngineError> {
    let class = &rc.nodes[idx];
    let root = tree.node(class.root);
    let base = body_plan(&class.body)?;
    let mut items: Vec<(String, Expr)> = Vec::new();
    for p in (parent_depth + 1)..=(root.sfi.len() as u16) {
        items.push((format!("L{p}"), Expr::lit(root.sfi[p as usize - 1] as i64)));
    }
    for &v in &class.args {
        let var = tree.var(v);
        items.push((
            var.plan_name(),
            Expr::col(field_col(&var.alias, &var.column)),
        ));
    }
    Ok(base.project(items))
}

/// A class's keys-only identity rows (emission-order repair): its rule body
/// projected to the class root's key variables.
fn identity_rows(tree: &ViewTree, rc: &ReducedComponent, idx: usize) -> Result<Plan, EngineError> {
    let class = &rc.nodes[idx];
    let root = tree.node(class.root);
    Ok(body_plan(&class.body)?.project(
        root.key_args
            .iter()
            .map(|&v| {
                let var = tree.var(v);
                (
                    var.plan_name(),
                    Expr::col(field_col(&var.alias, &var.column)),
                )
            })
            .collect(),
    ))
}

fn subtree(
    tree: &ViewTree,
    rc: &ReducedComponent,
    idx: usize,
    parent_depth: u16,
    db: &Database,
) -> Result<Plan, EngineError> {
    let class = &rc.nodes[idx];
    let depth = tree.node(class.root).sfi.len() as u16;
    let base = class_base(tree, rc, idx, parent_depth)?;
    if class.children.is_empty() {
        return Ok(base);
    }

    let mut children = class
        .children
        .iter()
        .map(|&c| subtree(tree, rc, c, depth, db))
        .collect::<Result<Vec<_>, _>>()?;

    // Identity branch (emission-order repair): if this class carries
    // payload the tagger must emit *before* any child — variable text or
    // merged `1`-members — and some original-tree descendant lives in a
    // *different* component, that other stream's tuples can sort before
    // every payload-bearing row of this one (their L ordinal may be smaller
    // than our smallest included child's). Adding a keys-only union branch
    // gives every class instance its own row, whose all-NULL deeper labels
    // sort first, so the payload snapshot is available when the element
    // opens. Single-stream components never need it.
    let mut identity_added = false;
    if class_has_payload(tree, rc, idx) && has_external_descendant(tree, rc, idx) {
        identity_added = true;
        children.push(identity_rows(tree, rc, idx)?);
    }
    // "Plans with no branches do not require the union operator" (§3.4).
    let union = if children.len() == 1 {
        children.into_iter().next().expect("one child")
    } else {
        Plan::OuterUnion { inputs: children }
    };

    // Rename every column the union shares with the base so the join output
    // has unique names; join on the parent's key variables.
    let base_cols: HashSet<String> = base.schema(db)?.names().map(str::to_string).collect();
    let union_schema = union.schema(db)?;
    let union_items: Vec<(String, Expr)> = union_schema
        .names()
        .map(|n| {
            let out = if base_cols.contains(n) {
                format!("{JK}{n}")
            } else {
                n.to_string()
            };
            (out, Expr::col(n.to_string()))
        })
        .collect();
    let union_renamed = union.project(union_items.clone());

    let keys: Vec<(String, String)> = tree
        .node(class.root)
        .key_args
        .iter()
        .map(|&v| {
            let name = tree.var(v).plan_name();
            if !base_cols.contains(&name) {
                return Err(EngineError::InvalidPlan(format!(
                    "join key {name} missing from class base"
                )));
            }
            Ok((name.clone(), format!("{JK}{name}")))
        })
        .collect::<Result<_, _>>()?;

    // §3.4: "A '1'-labeled edge requires an inner join, while a * requires
    // a left outer join." Generalized to the union of branches: if any
    // branch is *total* (label `1` or `+`, or the identity branch), every
    // parent instance has at least one union row, so an inner join neither
    // drops parents nor loses the NULL-padding row (it never fires).
    let any_total = identity_added
        || class
            .children
            .iter()
            .any(|&c| !rc.nodes[c].label.optional());
    let kind = if any_total {
        JoinKind::Inner
    } else {
        JoinKind::LeftOuter
    };
    let joined = base.join(union_renamed, kind, keys);

    // Drop the jk_ duplicates.
    let mut out_items: Vec<(String, Expr)> = base_cols
        .iter()
        .map(|n| (n.clone(), Expr::col(n.clone())))
        .collect();
    out_items.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, _) in &union_items {
        if !name.starts_with(JK) {
            out_items.push((name.clone(), Expr::col(name.clone())));
        }
    }
    Ok(joined.project(out_items))
}

/// Does the class have content the tagger emits from row snapshots — merged
/// member elements, or variable text on any member?
fn class_has_payload(tree: &ViewTree, rc: &ReducedComponent, idx: usize) -> bool {
    let class = &rc.nodes[idx];
    if class.members.len() > 1 {
        return true;
    }
    class.members.iter().any(|&m| {
        tree.node(m).content.iter().any(|c| {
            matches!(
                c,
                sr_viewtree::NodeContent::Text(sr_viewtree::TextSource::Var(_))
            )
        })
    })
}

/// Does any original-tree descendant of the class's members belong to a
/// different component (i.e. reach the tagger through another stream)?
fn has_external_descendant(tree: &ViewTree, rc: &ReducedComponent, idx: usize) -> bool {
    let in_component: std::collections::HashSet<sr_viewtree::NodeId> = rc
        .nodes
        .iter()
        .flat_map(|c| c.members.iter().copied())
        .collect();
    let mut stack: Vec<sr_viewtree::NodeId> = rc.nodes[idx]
        .members
        .iter()
        .flat_map(|&m| tree.node(m).children.iter().copied())
        .collect();
    while let Some(n) = stack.pop() {
        if !in_component.contains(&n) {
            return true;
        }
        stack.extend(tree.node(n).children.iter().copied());
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_data::{row, ForeignKey, Schema, Table, Value};
    use sr_engine::execute;
    use sr_viewtree::{build, components, reduce_component, EdgeSet};

    /// The paper's Fig. 8 micro-instance: 3 suppliers, 3 nations, 3 parts;
    /// supplier 2 has no parts.
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
        s.insert_all([
            row![1i64, "USA Metalworks", 24i64],
            row![2i64, "Romana Espanola", 3i64],
            row![3i64, "Fonderie Francais", 19i64],
        ])
        .unwrap();
        let mut n = Table::new(
            "Nation",
            Schema::of(&[("nationkey", DataType::Int), ("name", DataType::Str)]),
        );
        n.insert_all([
            row![24i64, "USA"],
            row![3i64, "Spain"],
            row![19i64, "France"],
        ])
        .unwrap();
        let mut ps = Table::new(
            "PartSupp",
            Schema::of(&[("partkey", DataType::Int), ("suppkey", DataType::Int)]),
        );
        ps.insert_all([row![4i64, 1i64], row![12i64, 1i64], row![20i64, 3i64]])
            .unwrap();
        let mut p = Table::new(
            "Part",
            Schema::of(&[("partkey", DataType::Int), ("name", DataType::Str)]),
        );
        p.insert_all([
            row![4i64, "plated brass"],
            row![12i64, "anodized steel"],
            row![20i64, "polished nickel"],
        ])
        .unwrap();
        db.add_table(s);
        db.add_table(n);
        db.add_table(ps);
        db.add_table(p);
        db.declare_key("Supplier", &["suppkey"]).unwrap();
        db.declare_key("Nation", &["nationkey"]).unwrap();
        db.declare_key("PartSupp", &["partkey", "suppkey"]).unwrap();
        db.declare_key("Part", &["partkey"]).unwrap();
        db.declare_foreign_key(ForeignKey::new(
            "Supplier",
            &["nationkey"],
            "Nation",
            &["nationkey"],
        ))
        .unwrap();

        // The paper's boxed query fragment (Fig. 4).
        let q = sr_rxl::parse(
            "from Supplier $s construct <supplier>\
               { from Nation $n where $s.nationkey = $n.nationkey \
                 construct <name>$n.name</name> }\
               { from PartSupp $ps, Part $p \
                 where $s.suppkey = $ps.suppkey, $ps.partkey = $p.partkey \
                 construct <part>$p.name</part> }\
             </supplier>",
        )
        .unwrap();
        let t = build(&q, &db).unwrap();
        (t, db)
    }

    #[test]
    fn unified_plan_reproduces_fig9_shape() {
        let (t, db) = setup();
        let full = EdgeSet::full(&t);
        let comps = components(&t, full);
        assert_eq!(comps.len(), 1);
        let rc = reduce_component(&t, &comps[0], full, false);
        let plan = outer_join_plan(&t, &rc, &db).unwrap();
        let rs = execute(&plan, &db).unwrap();
        // Fig. 9: 6 tuples — supp#1 ×3 (nation + 2 parts), supp#2 ×1
        // (nation, no part), supp#3 ×2 (nation + 1 part).
        assert_eq!(rs.len(), 6);
        // Sorted by L1, suppkey, L2, …: first tuple is supplier 1's name
        // branch (L2 = 1).
        let l2 = rs.schema.position("L2").unwrap();
        let suppkey = rs.schema.position("v1_1").unwrap();
        assert_eq!(rs.rows[0].get(suppkey), &Value::Int(1));
        assert_eq!(rs.rows[0].get(l2), &Value::Int(1));
        assert_eq!(rs.rows[1].get(l2), &Value::Int(2), "then part branch");
        // Supplier 2 has exactly one tuple and its part columns are NULL.
        let supp2: Vec<_> = rs
            .rows
            .iter()
            .filter(|r| r.get(suppkey) == &Value::Int(2))
            .collect();
        assert_eq!(supp2.len(), 1);
    }

    #[test]
    fn reduced_unified_plan_collapses_name_branch() {
        let (t, db) = setup();
        let full = EdgeSet::full(&t);
        let comps = components(&t, full);
        let rc = reduce_component(&t, &comps[0], full, true);
        assert_eq!(rc.nodes.len(), 2, "supplier+name vs part");
        let plan = outer_join_plan(&t, &rc, &db).unwrap();
        let rs = execute(&plan, &db).unwrap();
        // One row per (supplier, part) with supplier 2 padded: 2+1+1 = 4.
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn leaf_component_plan_is_plain_select() {
        let (t, db) = setup();
        let empty = EdgeSet::empty();
        let comps = components(&t, empty);
        let part = comps.iter().find(|c| t.node(c.root).tag == "part").unwrap();
        let rc = reduce_component(&t, part, empty, true);
        let plan = outer_join_plan(&t, &rc, &db).unwrap();
        let rs = execute(&plan, &db).unwrap();
        assert_eq!(rs.len(), 3, "three partsupp rows");
        // No union or outer join in a single-node component.
        let txt = plan.to_string();
        assert!(!txt.contains("OuterUnion"));
        assert!(!txt.contains("LeftOuterJoin"));
    }

    #[test]
    fn all_partitions_union_to_same_multiset_of_elements() {
        // Count part-element tuples across every plan: must always be 3.
        let (t, db) = setup();
        for set in sr_viewtree::all_edge_sets(&t) {
            let comps = components(&t, set);
            let mut part_rows = 0usize;
            for comp in &comps {
                let rc = reduce_component(&t, comp, set, false);
                let plan = outer_join_plan(&t, &rc, &db).unwrap();
                let rs = execute(&plan, &db).unwrap();
                // Count rows whose deepest-level branch is the part node.
                let schema = &rs.schema;
                let l2 = schema.position("L2");
                let pname = schema.position("v2_3");
                for row in &rs.rows {
                    let is_part = match (l2, pname) {
                        (Some(l2), _) => row.get(l2) == &Value::Int(2),
                        (None, Some(p)) => !row.get(p).is_null(),
                        _ => false,
                    };
                    if is_part {
                        part_rows += 1;
                    }
                }
            }
            assert_eq!(part_rows, 3, "plan {set} lost or duplicated part tuples");
        }
    }
}
