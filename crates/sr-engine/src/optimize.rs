//! The rewriting half of the "RDBMS optimizer": predicate push-down and
//! column pruning.
//!
//! [`push_filters`] — the binder leaves residual `WHERE` predicates as
//! filters above join trees; this pass pushes each predicate as deep as
//! semantics allow, so selective predicates (RXL literal conditions,
//! fragment-export key filters) restrict base relations before joins
//! materialize.
//!
//! Rules, per operator the filter sits on:
//!
//! * `Filter` — merge.
//! * `Project` — substitute output expressions into the predicate (only
//!   when every referenced output is a plain column or literal) and push
//!   below.
//! * `Join` — push to the left side when all referenced columns come from
//!   it; to the right side only for **inner** joins (filtering the right
//!   side of a left-outer join would resurrect rows the filter should have
//!   removed — NULL-padded rows fail predicates after the join but the
//!   padding would be re-created if the filter ran before it).
//! * `OuterUnion` — push into every branch only if *all* branches expose
//!   all referenced columns (a missing column lifts as NULL, where the
//!   predicate is false — so the filter must stay above to kill those
//!   branch rows).
//! * `Sort` / `Distinct` — commute below.
//!
//! [`prune_columns`] — a join gathers every column of both inputs for
//! each output row, so a scan's unread columns (addresses, phone numbers,
//! dates) cost a gather at every join above it. This pass walks
//! top-down with the set of column names the operators above read:
//!
//! * `Scan` — a `Project` of the read columns goes above it, unless it
//!   reads them all; it keeps at least one column, because a batch without
//!   columns has no rows.
//! * `Filter` / `Sort` / `Join` — add the columns they reference.
//! * `Project` — drops the items nobody reads (at least one stays, as for
//!   a scan); its input need only supply what the kept items reference.
//!   At the root every item is read. A `Project` the pruned input starts
//!   with is folded into it, so a chain of renames (a derived table's
//!   `x AS t_x` under `t_x AS x`) costs one pass over each batch, and a
//!   scan under a `Project` gets no pruning `Project` of its own.
//! * `OuterUnion` — every branch gets the set; a branch keeps the part of
//!   it that it has.
//! * `Distinct` — a barrier: its input keeps every column, since every
//!   column decides which rows are duplicates.
//!
//! Names are unique within a schema and only a `Project` renames, so a
//! name in the set that matches a scan's column is that column. The
//! pruned plan has the input's schema and rows, byte for byte (a property
//! test in `vexec.rs` checks it on random plans).

use std::collections::HashSet;

use sr_data::Database;

use crate::error::EngineError;
use crate::expr::{Expr, Predicate};
use crate::plan::{JoinKind, Plan};

/// Push filters down as far as possible. The result computes exactly the
/// same rows (verified by property tests).
pub fn push_filters(plan: Plan, db: &Database) -> Result<Plan, EngineError> {
    match plan {
        Plan::Filter { input, predicates } => {
            let input = push_filters(*input, db)?;
            push_preds_into(input, predicates, db)
        }
        mut other => {
            for child in other.children_mut() {
                *child = push_filters(child.take(), db)?;
            }
            Ok(other)
        }
    }
}

/// Columns a predicate references.
fn pred_cols(p: &Predicate) -> Vec<&str> {
    let mut cols = Vec::new();
    for e in [&p.left, &p.right] {
        if let Expr::Col(c) = e {
            cols.push(c.as_str());
        }
    }
    cols
}

/// Rewrite a predicate through a projection: substitute each referenced
/// output column with its defining expression. Returns `None` when an
/// output is not a simple column/literal (cannot substitute).
fn through_project(p: &Predicate, items: &[(String, Expr)]) -> Option<Predicate> {
    let subst = |e: &Expr| -> Option<Expr> {
        match e {
            Expr::Col(name) => {
                let (_, def) = items.iter().find(|(n, _)| n == name)?;
                Some(def.clone())
            }
            other => Some(other.clone()),
        }
    };
    Some(Predicate::new(subst(&p.left)?, p.op, subst(&p.right)?))
}

fn push_preds_into(
    plan: Plan,
    predicates: Vec<Predicate>,
    db: &Database,
) -> Result<Plan, EngineError> {
    if predicates.is_empty() {
        return Ok(plan);
    }
    match plan {
        Plan::Filter {
            input,
            predicates: inner,
        } => {
            // Merge and retry one level down.
            let mut all = inner;
            all.extend(predicates);
            push_preds_into(*input, all, db)
        }
        Plan::Project { input, items } => {
            let mut pushed = Vec::new();
            let mut kept = Vec::new();
            for p in predicates {
                match through_project(&p, &items) {
                    Some(rewritten) => pushed.push(rewritten),
                    None => kept.push(p),
                }
            }
            let inner = push_preds_into(*input, pushed, db)?;
            Ok(inner.project(items).filter(kept))
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let lschema = left.schema(db)?;
            let rschema = right.schema(db)?;
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut kept = Vec::new();
            for p in predicates {
                let cols = pred_cols(&p);
                if cols.iter().all(|c| lschema.contains(c)) {
                    to_left.push(p);
                } else if kind == JoinKind::Inner && cols.iter().all(|c| rschema.contains(c)) {
                    to_right.push(p);
                } else {
                    kept.push(p);
                }
            }
            let left = push_preds_into(*left, to_left, db)?;
            let right = push_preds_into(*right, to_right, db)?;
            Ok(left.join(right, kind, on).filter(kept))
        }
        Plan::OuterUnion { inputs } => {
            let schemas = inputs
                .iter()
                .map(|p| p.schema(db))
                .collect::<Result<Vec<_>, _>>()?;
            let mut pushable = Vec::new();
            let mut kept = Vec::new();
            for p in predicates {
                let cols = pred_cols(&p);
                if schemas.iter().all(|s| cols.iter().all(|c| s.contains(c))) {
                    pushable.push(p);
                } else {
                    kept.push(p);
                }
            }
            let inputs = inputs
                .into_iter()
                .map(|b| push_preds_into(b, pushable.clone(), db))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Plan::OuterUnion { inputs }.filter(kept))
        }
        Plan::Sort { input, keys } => Ok(push_preds_into(*input, predicates, db)?.sort(keys)),
        Plan::Distinct { input } => Ok(Plan::Distinct {
            input: Box::new(push_preds_into(*input, predicates, db)?),
        }),
        leaf @ Plan::Scan { .. } => Ok(leaf.filter(predicates)),
    }
}

/// Prune every operator's output to the columns some operator above it
/// reads (rules in the module doc). The result has the same schema and
/// computes the same rows in the same order.
pub fn prune_columns(plan: Plan, db: &Database) -> Result<Plan, EngineError> {
    let read = names(&plan, db)?;
    prune(plan, read, db)
}

/// Every column name of `plan`'s output.
fn names(plan: &Plan, db: &Database) -> Result<HashSet<String>, EngineError> {
    Ok(plan.schema(db)?.names().map(str::to_string).collect())
}

/// `plan` narrowed to the columns in `read` and those its own operators
/// reference on the way down.
fn prune(plan: Plan, mut read: HashSet<String>, db: &Database) -> Result<Plan, EngineError> {
    match plan {
        Plan::Scan { .. } => {
            let schema = plan.schema(db)?;
            if schema.names().all(|n| read.contains(n)) {
                return Ok(plan);
            }
            let mut keep: Vec<&str> = schema.names().filter(|n| read.contains(*n)).collect();
            if keep.is_empty() {
                keep.extend(schema.names().take(1));
            }
            let items = keep
                .into_iter()
                .map(|n| (n.to_string(), Expr::col(n)))
                .collect();
            Ok(plan.project(items))
        }
        Plan::Filter { input, predicates } => {
            read.extend(predicates.iter().flat_map(pred_cols).map(str::to_string));
            Ok(prune(*input, read, db)?.filter(predicates))
        }
        Plan::Sort { input, keys } => {
            read.extend(keys.iter().cloned());
            Ok(prune(*input, read, db)?.sort(keys))
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
        } => {
            for (l, r) in &on {
                read.insert(l.clone());
                read.insert(r.clone());
            }
            let left = prune(*left, read.clone(), db)?;
            let right = prune(*right, read, db)?;
            Ok(left.join(right, kind, on))
        }
        Plan::Project { input, mut items } => {
            if items.iter().any(|(n, _)| read.contains(n)) {
                items.retain(|(n, _)| read.contains(n));
            } else {
                items.truncate(1);
            }
            let below = items
                .iter()
                .filter_map(|(_, e)| match e {
                    Expr::Col(c) => Some(c.clone()),
                    _ => None,
                })
                .collect();
            let input = match prune(*input, below, db)? {
                // Fold the `Project` below into this one: each column this
                // one reads is an item of it, so that item's expression
                // stands in. A pruned `Project` never sits on another, so
                // one level is the whole chain.
                Plan::Project {
                    input,
                    items: inner,
                } => {
                    for (_, e) in &mut items {
                        if let Expr::Col(c) = e {
                            if let Some((_, x)) = inner.iter().find(|(n, _)| n == c) {
                                *e = x.clone();
                            }
                        }
                    }
                    *input
                }
                other => other,
            };
            Ok(input.project(items))
        }
        Plan::OuterUnion { inputs } => {
            let inputs = inputs
                .into_iter()
                .map(|b| prune(b, read.clone(), db))
                .collect::<Result<_, _>>()?;
            Ok(Plan::OuterUnion { inputs })
        }
        Plan::Distinct { input } => {
            let all = names(&input, db)?;
            Ok(Plan::Distinct {
                input: Box::new(prune(*input, all, db)?),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::expr::CmpOp;
    use sr_data::{row, DataType, Schema, Table};

    fn db() -> Database {
        let mut db = Database::new();
        let mut a = Table::new(
            "A",
            Schema::of(&[("id", DataType::Int), ("g", DataType::Int)]),
        );
        for i in 0..10i64 {
            a.insert(row![i, i % 3]).unwrap();
        }
        let mut b = Table::new(
            "B",
            Schema::of(&[("id", DataType::Int), ("aid", DataType::Int)]),
        );
        for i in 0..20i64 {
            b.insert(row![i, i % 10]).unwrap();
        }
        db.add_table(a);
        db.add_table(b);
        db
    }

    fn assert_equivalent(before: &Plan, after: &Plan, db: &Database) {
        let x = execute(before, db).unwrap();
        let y = execute(after, db).unwrap();
        assert_eq!(
            x.schema.names().collect::<Vec<_>>(),
            y.schema.names().collect::<Vec<_>>()
        );
        let mut xr = x.rows;
        let mut yr = y.rows;
        xr.sort();
        yr.sort();
        assert_eq!(xr, yr);
    }

    #[test]
    fn filter_pushes_through_inner_join_both_sides() {
        let db = db();
        let plan = Plan::scan("A", "a")
            .join(
                Plan::scan("B", "b"),
                JoinKind::Inner,
                vec![("a_id".into(), "b_aid".into())],
            )
            .filter(vec![
                Predicate::new(Expr::col("a_g"), CmpOp::Eq, Expr::lit(1i64)),
                Predicate::new(Expr::col("b_id"), CmpOp::Lt, Expr::lit(15i64)),
            ]);
        let optimized = push_filters(plan.clone(), &db).unwrap();
        let txt = optimized.to_string();
        // Both predicates now sit directly above their scans.
        assert!(txt.contains("Filter [a_g = 1]\n    Scan A"), "{txt}");
        assert!(txt.contains("Filter [b_id < 15]\n    Scan B"), "{txt}");
        assert_equivalent(&plan, &optimized, &db);
    }

    #[test]
    fn right_side_of_outer_join_blocks_pushdown() {
        let db = db();
        let plan = Plan::scan("A", "a")
            .join(
                Plan::scan("B", "b"),
                JoinKind::LeftOuter,
                vec![("a_id".into(), "b_aid".into())],
            )
            .filter(vec![Predicate::new(
                Expr::col("b_id"),
                CmpOp::Ge,
                Expr::lit(5i64),
            )]);
        let optimized = push_filters(plan.clone(), &db).unwrap();
        let txt = optimized.to_string();
        assert!(
            txt.starts_with("Filter [b_id >= 5]"),
            "must stay above the outer join:\n{txt}"
        );
        assert_equivalent(&plan, &optimized, &db);
    }

    #[test]
    fn left_side_of_outer_join_allows_pushdown() {
        let db = db();
        let plan = Plan::scan("A", "a")
            .join(
                Plan::scan("B", "b"),
                JoinKind::LeftOuter,
                vec![("a_id".into(), "b_aid".into())],
            )
            .filter(vec![Predicate::new(
                Expr::col("a_g"),
                CmpOp::Eq,
                Expr::lit(0i64),
            )]);
        let optimized = push_filters(plan.clone(), &db).unwrap();
        let txt = optimized.to_string();
        assert!(txt.contains("Filter [a_g = 0]\n    Scan A"), "{txt}");
        assert_equivalent(&plan, &optimized, &db);
    }

    #[test]
    fn pushes_through_project_with_renames() {
        let db = db();
        let plan = Plan::scan("A", "a")
            .project(vec![
                ("k".into(), Expr::col("a_id")),
                ("tag".into(), Expr::lit(7i64)),
            ])
            .filter(vec![Predicate::new(
                Expr::col("k"),
                CmpOp::Gt,
                Expr::lit(3i64),
            )]);
        let optimized = push_filters(plan.clone(), &db).unwrap();
        let txt = optimized.to_string();
        assert!(txt.contains("Filter [a_id > 3]\n    Scan A"), "{txt}");
        assert_equivalent(&plan, &optimized, &db);
    }

    #[test]
    fn union_pushdown_requires_all_branches() {
        let db = db();
        let b1 = Plan::scan("A", "a").project(vec![
            ("k".into(), Expr::col("a_id")),
            ("g".into(), Expr::col("a_g")),
        ]);
        let b2 = Plan::scan("B", "b").project(vec![("k".into(), Expr::col("b_id"))]);
        let plan = Plan::OuterUnion {
            inputs: vec![b1, b2],
        }
        .filter(vec![
            // k exists everywhere → pushes; g only in branch 1 → stays.
            Predicate::new(Expr::col("k"), CmpOp::Lt, Expr::lit(5i64)),
            Predicate::new(Expr::col("g"), CmpOp::Eq, Expr::lit(1i64)),
        ]);
        let optimized = push_filters(plan.clone(), &db).unwrap();
        let txt = optimized.to_string();
        assert!(txt.starts_with("Filter [g = 1]"), "{txt}");
        assert!(txt.contains("Filter [a_id < 5]"), "{txt}");
        assert!(txt.contains("Filter [b_id < 5]"), "{txt}");
        assert_equivalent(&plan, &optimized, &db);
    }

    #[test]
    fn commutes_below_sort_and_distinct() {
        let db = db();
        let plan = Plan::Distinct {
            input: Box::new(Plan::scan("A", "a").sort(vec!["a_id".into()]).filter(vec![
                Predicate::new(Expr::col("a_g"), CmpOp::Ne, Expr::lit(2i64)),
            ])),
        };
        let optimized = push_filters(plan.clone(), &db).unwrap();
        let txt = optimized.to_string();
        assert!(
            txt.contains("Sort [a_id]\n    Filter"),
            "filter below sort:\n{txt}"
        );
        assert_equivalent(&plan, &optimized, &db);
    }
}
