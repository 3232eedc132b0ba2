//! Lowering executable [`Plan`]s to SQL text.
//!
//! SilkRoute is middle-ware: it must hand the target RDBMS *SQL strings*,
//! not operator trees. This module prints plans in the paper's style —
//! comma-separated FROM lists with WHERE equalities for inner joins, explicit
//! `LEFT OUTER JOIN (…) AS q ON …` for `*`-labeled edges, and `UNION ALL`
//! with `CAST(NULL AS t)` padding columns for sibling sub-queries (§3.4).
//!
//! The round trip `bind(parse(to_sql(plan)))` is semantically faithful: it
//! yields a plan that produces the same rows (tested here and by property
//! tests), though not necessarily a structurally identical tree.

use std::collections::HashMap;

use sr_data::{Database, Schema, Value};

use crate::error::EngineError;
use crate::expr::{Expr, Predicate};
use crate::plan::{JoinKind, Plan};
use crate::sql::ast::{FromItem, JoinClause, Query, SelectItem, SelectStmt, SqlCond, SqlExpr};

/// Render a plan as SQL text.
pub fn to_sql(plan: &Plan, db: &Database) -> Result<String, EngineError> {
    let mut ctx = Ctx {
        next_alias: 0,
        schemas: HashMap::new(),
    };
    Ok(to_query(plan, db, &mut ctx)?.to_string())
}

struct Ctx {
    next_alias: usize,
    /// The output schema of every node derived so far, by address. Every
    /// derived-table level asks for its subtree's schema, and deriving it
    /// afresh each time made printing quadratic in plan depth.
    schemas: HashMap<*const Plan, Schema>,
}

impl Ctx {
    fn fresh(&mut self) -> String {
        self.next_alias += 1;
        format!("dq{}", self.next_alias)
    }

    /// [`Plan::schema`], deriving each node once per rendering.
    fn schema(&mut self, plan: &Plan, db: &Database) -> Result<Schema, EngineError> {
        let key: *const Plan = plan;
        if let Some(s) = self.schemas.get(&key) {
            return Ok(s.clone());
        }
        let kids = plan
            .children()
            .into_iter()
            .map(|c| self.schema(c, db))
            .collect::<Result<Vec<_>, _>>()?;
        let schema = plan.output_schema(db, &kids)?;
        self.schemas.insert(key, schema.clone());
        Ok(schema)
    }
}

/// Scope: plan-level column name → SQL expression that computes it.
type SqlScope = HashMap<String, SqlExpr>;

/// A SELECT block under construction.
struct Block {
    from: Vec<FromItem>,
    joins: Vec<JoinClause>,
    where_: Vec<SqlCond>,
    scope: SqlScope,
}

fn to_query(plan: &Plan, db: &Database, ctx: &mut Ctx) -> Result<Query, EngineError> {
    match plan {
        Plan::Sort { input, keys } => {
            let mut q = to_query(input, db, ctx)?;
            // The executor's sort is stable, so an inner sort acts as a
            // tie-breaker for the outer one: ORDER BY outer keys, then the
            // inner keys not already listed.
            let inner = std::mem::take(&mut q.order_by);
            q.order_by = keys.clone();
            for k in inner {
                if !q.order_by.contains(&k) {
                    q.order_by.push(k);
                }
            }
            Ok(q)
        }
        Plan::OuterUnion { inputs } => {
            let union_schema = ctx.schema(plan, db)?;
            let mut branches = Vec::with_capacity(inputs.len());
            for input in inputs {
                let stmt = to_select(input, db, ctx)?;
                // Align the branch to the union schema: reorder its items and
                // pad missing columns with typed NULLs.
                let by_alias: HashMap<&str, &SelectItem> = stmt
                    .items
                    .iter()
                    .map(|i| (i.alias.as_deref().expect("lowered items are aliased"), i))
                    .collect();
                let input_schema = ctx.schema(input, db)?;
                let items = union_schema
                    .columns()
                    .iter()
                    .map(|c| match by_alias.get(c.name.as_str()) {
                        Some(item) => (*item).clone(),
                        None => {
                            debug_assert!(!input_schema.contains(&c.name));
                            SelectItem {
                                expr: SqlExpr::Null(c.dtype),
                                alias: Some(c.name.clone()),
                            }
                        }
                    })
                    .collect();
                branches.push(SelectStmt { items, ..stmt });
            }
            Ok(Query {
                branches,
                order_by: Vec::new(),
            })
        }
        other => Ok(Query::select(to_select(other, db, ctx)?)),
    }
}

/// Lower a plan to a single SELECT block, derived-table-wrapping shapes that
/// cannot be expressed as one block (unions, sorts).
fn to_select(plan: &Plan, db: &Database, ctx: &mut Ctx) -> Result<SelectStmt, EngineError> {
    match plan {
        Plan::Project { input, items } => {
            let block = gather(input, db, ctx)?;
            let sql_items = items
                .iter()
                .map(|(name, e)| {
                    Ok(SelectItem {
                        expr: rewrite_expr(e, &block.scope)?,
                        alias: Some(name.clone()),
                    })
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            Ok(SelectStmt {
                distinct: false,
                items: sql_items,
                from: block.from,
                joins: block.joins,
                where_: block.where_,
            })
        }
        Plan::Distinct { input } => {
            let mut stmt = to_select(input, db, ctx)?;
            stmt.distinct = true;
            Ok(stmt)
        }
        Plan::OuterUnion { .. } | Plan::Sort { .. } => {
            // Wrap as a derived table and select every column through.
            let (item, scope) = derived_item(plan, db, ctx)?;
            let schema = ctx.schema(plan, db)?;
            let items = schema
                .names()
                .map(|n| {
                    Ok(SelectItem {
                        expr: scope
                            .get(n)
                            .cloned()
                            .ok_or_else(|| EngineError::InvalidPlan(format!("lost column {n}")))?,
                        alias: Some(n.to_string()),
                    })
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            Ok(SelectStmt {
                distinct: false,
                items,
                from: vec![item],
                joins: vec![],
                where_: vec![],
            })
        }
        other => {
            // Identity projection over a gatherable shape.
            let block = gather(other, db, ctx)?;
            let schema = ctx.schema(other, db)?;
            let items =
                schema
                    .names()
                    .map(|n| {
                        Ok(SelectItem {
                            expr: block.scope.get(n).cloned().ok_or_else(|| {
                                EngineError::InvalidPlan(format!("lost column {n}"))
                            })?,
                            alias: Some(n.to_string()),
                        })
                    })
                    .collect::<Result<Vec<_>, EngineError>>()?;
            Ok(SelectStmt {
                distinct: false,
                items,
                from: block.from,
                joins: block.joins,
                where_: block.where_,
            })
        }
    }
}

/// Flatten scans/filters/joins into one block.
fn gather(plan: &Plan, db: &Database, ctx: &mut Ctx) -> Result<Block, EngineError> {
    match plan {
        Plan::Scan { table, alias } => {
            let t = db.table(table)?;
            let scope = t
                .schema()
                .names()
                .map(|c| (format!("{alias}_{c}"), SqlExpr::qcol(alias.clone(), c)))
                .collect();
            Ok(Block {
                from: vec![FromItem::Table {
                    name: table.clone(),
                    alias: alias.clone(),
                }],
                joins: vec![],
                where_: vec![],
                scope,
            })
        }
        Plan::Filter { input, predicates } => {
            let mut b = gather(input, db, ctx)?;
            for p in predicates {
                b.where_.push(rewrite_pred(p, &b.scope)?);
            }
            Ok(b)
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let mut b = gather(left, db, ctx)?;
            let (item, rscope) = match right.as_ref() {
                Plan::Scan { table, alias } => {
                    let t = db.table(table)?;
                    let scope: SqlScope = t
                        .schema()
                        .names()
                        .map(|c| (format!("{alias}_{c}"), SqlExpr::qcol(alias.clone(), c)))
                        .collect();
                    (
                        FromItem::Table {
                            name: table.clone(),
                            alias: alias.clone(),
                        },
                        scope,
                    )
                }
                other => derived_item(other, db, ctx)?,
            };
            let conds = on
                .iter()
                .map(|(l, r)| {
                    Ok(SqlCond {
                        left: lookup(&b.scope, l)?,
                        op: crate::expr::CmpOp::Eq,
                        right: lookup(&rscope, r)?,
                    })
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            if *kind == JoinKind::Inner && b.joins.is_empty() {
                // Paper style: comma join, equalities in WHERE. Only safe
                // while no outer join has been emitted in this block.
                b.from.push(item);
                b.where_.extend(conds);
            } else {
                b.joins.push(JoinClause {
                    kind: *kind,
                    item,
                    on: conds,
                });
            }
            for (k, v) in rscope {
                b.scope.insert(k, v);
            }
            Ok(b)
        }
        other => {
            let (item, scope) = derived_item(other, db, ctx)?;
            Ok(Block {
                from: vec![item],
                joins: vec![],
                where_: vec![],
                scope,
            })
        }
    }
}

/// Wrap a plan as `(query) AS dqN` and expose its columns.
fn derived_item(
    plan: &Plan,
    db: &Database,
    ctx: &mut Ctx,
) -> Result<(FromItem, SqlScope), EngineError> {
    let alias = ctx.fresh();
    let q = to_query(plan, db, ctx)?;
    let schema = ctx.schema(plan, db)?;
    let scope = schema
        .names()
        .map(|n| (n.to_string(), SqlExpr::qcol(alias.clone(), n)))
        .collect();
    Ok((
        FromItem::Subquery {
            query: Box::new(q),
            alias,
        },
        scope,
    ))
}

fn lookup(scope: &SqlScope, name: &str) -> Result<SqlExpr, EngineError> {
    scope
        .get(name)
        .cloned()
        .ok_or_else(|| EngineError::InvalidPlan(format!("column {name} not in SQL scope")))
}

fn rewrite_expr(e: &Expr, scope: &SqlScope) -> Result<SqlExpr, EngineError> {
    Ok(match e {
        Expr::Col(name) => lookup(scope, name)?,
        Expr::Lit(Value::Int(i)) => SqlExpr::IntLit(*i),
        Expr::Lit(Value::Float(x)) => SqlExpr::FloatLit(*x),
        Expr::Lit(Value::Str(s)) => SqlExpr::StrLit(s.to_string()),
        Expr::Lit(Value::Null) => {
            return Err(EngineError::InvalidPlan(
                "untyped NULL literal cannot be printed; use TypedNull".into(),
            ));
        }
        Expr::TypedNull(t) => SqlExpr::Null(*t),
        Expr::Param(i, t) => SqlExpr::Param(*i, *t),
    })
}

fn rewrite_pred(p: &Predicate, scope: &SqlScope) -> Result<SqlCond, EngineError> {
    Ok(SqlCond {
        left: rewrite_expr(&p.left, scope)?,
        op: p.op,
        right: rewrite_expr(&p.right, scope)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::expr::CmpOp;
    use crate::sql::binder::plan_sql;
    use sr_data::{row, DataType, Schema, Table};

    fn db() -> Database {
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
            row![1i64, "Acme", 10i64],
            row![2i64, "Bolt", 20i64],
            row![3i64, "Coil", 10i64],
        ])
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
        ps.insert_all([row![100i64, 1i64], row![101i64, 1i64], row![102i64, 3i64]])
            .unwrap();
        db.add_table(s);
        db.add_table(n);
        db.add_table(ps);
        db
    }

    /// Round-trip helper: plan → SQL → parse+bind → execute, compared with
    /// direct execution of the original plan.
    fn assert_roundtrip(plan: &Plan, db: &Database) {
        let sql = to_sql(plan, db).unwrap();
        let reparsed =
            plan_sql(&sql, db).unwrap_or_else(|e| panic!("bind failed ({e}) for: {sql}"));
        let mut direct = execute(plan, db).unwrap();
        let mut via_sql = execute(&reparsed, db).unwrap();
        assert_eq!(
            direct.schema.names().collect::<Vec<_>>(),
            via_sql.schema.names().collect::<Vec<_>>(),
            "schema mismatch for: {sql}"
        );
        direct.rows.sort();
        via_sql.rows.sort();
        assert_eq!(direct.rows, via_sql.rows, "row mismatch for: {sql}");
    }

    #[test]
    fn roundtrip_scan() {
        let db = db();
        assert_roundtrip(&Plan::scan("Supplier", "s"), &db);
    }

    #[test]
    fn roundtrip_inner_join_prints_comma_style() {
        let db = db();
        let plan = Plan::scan("Supplier", "s").join(
            Plan::scan("Nation", "n"),
            JoinKind::Inner,
            vec![("s_nationkey".into(), "n_nationkey".into())],
        );
        let sql = to_sql(&plan, &db).unwrap();
        assert!(
            sql.contains("FROM Supplier s, Nation n WHERE s.nationkey = n.nationkey"),
            "got: {sql}"
        );
        assert_roundtrip(&plan, &db);
    }

    #[test]
    fn roundtrip_left_outer_with_subquery() {
        let db = db();
        let sub = Plan::scan("PartSupp", "ps").project(vec![
            ("sk".into(), Expr::col("ps_suppkey")),
            ("pk".into(), Expr::col("ps_partkey")),
        ]);
        let plan = Plan::scan("Supplier", "s")
            .join(
                sub,
                JoinKind::LeftOuter,
                vec![("s_suppkey".into(), "sk".into())],
            )
            .sort(vec!["s_suppkey".into(), "pk".into()]);
        let sql = to_sql(&plan, &db).unwrap();
        assert!(sql.contains("LEFT OUTER JOIN (SELECT"), "got: {sql}");
        assert!(sql.ends_with("ORDER BY s_suppkey, pk"), "got: {sql}");
        assert_roundtrip(&plan, &db);
    }

    #[test]
    fn roundtrip_outer_union_pads_nulls() {
        let db = db();
        let a = Plan::scan("Nation", "n").project(vec![
            ("L".into(), Expr::lit(1i64)),
            ("nname".into(), Expr::col("n_name")),
        ]);
        let b = Plan::scan("PartSupp", "ps").project(vec![
            ("L".into(), Expr::lit(2i64)),
            ("pk".into(), Expr::col("ps_partkey")),
        ]);
        let plan = Plan::OuterUnion { inputs: vec![a, b] }.sort(vec!["L".into()]);
        let sql = to_sql(&plan, &db).unwrap();
        assert!(sql.contains("CAST(NULL AS"), "got: {sql}");
        assert!(sql.contains("UNION ALL"), "got: {sql}");
        assert_roundtrip(&plan, &db);
    }

    #[test]
    fn roundtrip_filter_and_literals() {
        let db = db();
        let plan = Plan::scan("Supplier", "s")
            .filter(vec![Predicate::new(
                Expr::col("s_suppkey"),
                CmpOp::Ge,
                Expr::lit(2i64),
            )])
            .project(vec![
                ("k".into(), Expr::col("s_suppkey")),
                ("tag".into(), Expr::lit("x")),
            ]);
        assert_roundtrip(&plan, &db);
    }

    #[test]
    fn roundtrip_inner_join_after_outer_uses_join_clause() {
        let db = db();
        // s LEFT JOIN ps, then inner join n: the inner join must become an
        // explicit JOIN clause (not a comma item) to preserve ordering.
        let plan = Plan::scan("Supplier", "s")
            .join(
                Plan::scan("PartSupp", "ps"),
                JoinKind::LeftOuter,
                vec![("s_suppkey".into(), "ps_suppkey".into())],
            )
            .join(
                Plan::scan("Nation", "n"),
                JoinKind::Inner,
                vec![("s_nationkey".into(), "n_nationkey".into())],
            );
        let sql = to_sql(&plan, &db).unwrap();
        assert!(sql.contains("JOIN Nation n ON"), "got: {sql}");
        assert_roundtrip(&plan, &db);
    }

    #[test]
    fn roundtrip_distinct() {
        let db = db();
        let plan = Plan::Distinct {
            input: Box::new(
                Plan::scan("Supplier", "s").project(vec![("nk".into(), Expr::col("s_nationkey"))]),
            ),
        };
        let sql = to_sql(&plan, &db).unwrap();
        assert!(sql.starts_with("SELECT DISTINCT"), "got: {sql}");
        assert_roundtrip(&plan, &db);
    }

    #[test]
    fn roundtrip_nested_union_in_outer_join() {
        let db = db();
        // The paper's Fig. 5(a) shape: root LEFT JOIN (child1 UNION child2).
        let c1 = Plan::scan("Nation", "n").project(vec![
            ("L2".into(), Expr::lit(1i64)),
            ("nk".into(), Expr::col("n_nationkey")),
            ("nname".into(), Expr::col("n_name")),
        ]);
        let c2 = Plan::scan("PartSupp", "ps").project(vec![
            ("L2".into(), Expr::lit(2i64)),
            ("sk".into(), Expr::col("ps_suppkey")),
            ("pk".into(), Expr::col("ps_partkey")),
        ]);
        let union = Plan::OuterUnion {
            inputs: vec![c1, c2],
        };
        let plan = Plan::scan("Supplier", "s")
            .join(
                union,
                JoinKind::LeftOuter,
                vec![("s_suppkey".into(), "sk".into())],
            )
            .sort(vec!["s_suppkey".into(), "L2".into()]);
        // NOTE: this mirrors the paper's unified query only structurally; the
        // paper joins on different keys per branch, we join on parent keys
        // present in every branch (see DESIGN.md §6.1).
        let sql = to_sql(&plan, &db).unwrap();
        assert!(sql.contains("LEFT OUTER JOIN ((SELECT"), "got: {sql}");
        assert_roundtrip(&plan, &db);
    }
}
