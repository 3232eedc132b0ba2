//! Name resolution and lowering of SQL ASTs to executable [`Plan`]s.
//!
//! The binder plays the part of the target RDBMS's optimizer front-end: it
//! resolves names against the catalog, pushes `WHERE` equality predicates
//! between comma-joined FROM items into hash-join keys (greedily joining
//! connected items first, so paper-style `FROM a, b WHERE a.x = b.y` queries
//! never degenerate into cross products), and leaves residual predicates as
//! filters.

use sr_data::{Database, Value};

use crate::error::EngineError;
use crate::expr::{CmpOp, Expr, Predicate};
use crate::plan::{JoinKind, Plan};
use crate::sql::ast::{FromItem, Query, SelectStmt, SqlCond, SqlExpr};

/// Bind a parsed query to a plan.
pub fn bind(query: &Query, db: &Database) -> Result<Plan, EngineError> {
    let plan = bind_query(query, db)?;
    // Validate eagerly so errors surface at bind time, not execution time.
    plan.schema(db)?;
    Ok(plan)
}

fn bind_query(query: &Query, db: &Database) -> Result<Plan, EngineError> {
    let mut branches = Vec::with_capacity(query.branches.len());
    for b in &query.branches {
        branches.push(bind_select(b, db)?);
    }
    let plan = if branches.len() == 1 {
        branches.pop().expect("one branch")
    } else {
        Plan::OuterUnion { inputs: branches }
    };
    // ORDER BY references output column names.
    Ok(plan.sort(query.order_by.clone()))
}

/// Convenience: parse then bind.
pub fn plan_sql(sql: &str, db: &Database) -> Result<Plan, EngineError> {
    let q = crate::sql::parser::parse(sql)?;
    bind(&q, db)
}

/// Name scope: which aliases are visible and which columns each exposes.
/// The plan-level column name for `alias.col` is always `alias_col`.
#[derive(Debug, Default, Clone)]
struct Scope {
    entries: Vec<(String, Vec<String>)>,
}

impl Scope {
    fn add(&mut self, alias: &str, cols: Vec<String>) -> Result<(), EngineError> {
        if self.entries.iter().any(|(a, _)| a == alias) {
            return Err(EngineError::Bind(format!("duplicate alias {alias}")));
        }
        self.entries.push((alias.to_string(), cols));
        Ok(())
    }

    fn merge(&mut self, other: Scope) -> Result<(), EngineError> {
        for (a, cols) in other.entries {
            self.add(&a, cols)?;
        }
        Ok(())
    }

    /// Resolve a column reference to its plan-level name.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<String, EngineError> {
        match qualifier {
            Some(q) => {
                let (_, cols) = self
                    .entries
                    .iter()
                    .find(|(a, _)| a == q)
                    .ok_or_else(|| EngineError::Bind(format!("unknown alias {q}")))?;
                if cols.iter().any(|c| c == name) {
                    Ok(format!("{q}_{name}"))
                } else {
                    Err(EngineError::Bind(format!("no column {name} in {q}")))
                }
            }
            None => {
                let mut hits = self
                    .entries
                    .iter()
                    .filter(|(_, cols)| cols.iter().any(|c| c == name))
                    .map(|(a, _)| format!("{a}_{name}"));
                match (hits.next(), hits.next()) {
                    (Some(h), None) => Ok(h),
                    (None, _) => Err(EngineError::Bind(format!("unknown column {name}"))),
                    (Some(_), Some(_)) => {
                        Err(EngineError::Bind(format!("ambiguous column {name}")))
                    }
                }
            }
        }
    }

    /// Can this scope resolve the reference?
    fn can_resolve(&self, e: &SqlExpr) -> bool {
        match e {
            SqlExpr::ColRef { qualifier, name } => self.resolve(qualifier.as_deref(), name).is_ok(),
            _ => true,
        }
    }
}

fn bind_expr(e: &SqlExpr, scope: &Scope) -> Result<Expr, EngineError> {
    Ok(match e {
        SqlExpr::ColRef { qualifier, name } => {
            Expr::Col(scope.resolve(qualifier.as_deref(), name)?)
        }
        SqlExpr::IntLit(i) => Expr::Lit(Value::Int(*i)),
        SqlExpr::FloatLit(x) => Expr::Lit(Value::Float(*x)),
        SqlExpr::StrLit(s) => Expr::Lit(Value::str(s)),
        SqlExpr::Param(i, t) => Expr::Param(*i, *t),
        SqlExpr::Null(t) => Expr::TypedNull(*t),
    })
}

fn bind_cond(c: &SqlCond, scope: &Scope) -> Result<Predicate, EngineError> {
    Ok(Predicate::new(
        bind_expr(&c.left, scope)?,
        c.op,
        bind_expr(&c.right, scope)?,
    ))
}

/// Bind a FROM item to a plan and its scope contribution.
fn bind_from_item(item: &FromItem, db: &Database) -> Result<(Plan, Scope), EngineError> {
    match item {
        FromItem::Table { name, alias } => {
            let t = db.table(name)?;
            let cols: Vec<String> = t.schema().names().map(str::to_string).collect();
            let mut scope = Scope::default();
            scope.add(alias, cols)?;
            Ok((Plan::scan(name.clone(), alias.clone()), scope))
        }
        FromItem::Subquery { query, alias } => {
            let inner = bind_query(query, db)?;
            let inner_schema = inner.schema(db)?;
            let cols: Vec<String> = inner_schema.names().map(str::to_string).collect();
            // Re-qualify: output column `c` becomes `alias_c`.
            let items = cols
                .iter()
                .map(|c| (format!("{alias}_{c}"), Expr::col(c.clone())))
                .collect();
            let mut scope = Scope::default();
            scope.add(alias, cols)?;
            Ok((inner.project(items), scope))
        }
    }
}

/// Does the condition equate a column resolvable only in `left` with one
/// resolvable only in `right`? Returns plan-level key names `(l, r)`.
fn as_join_keys(c: &SqlCond, left: &Scope, right: &Scope) -> Option<(String, String)> {
    if c.op != CmpOp::Eq {
        return None;
    }
    let (lq, ln, rq, rn) = match (&c.left, &c.right) {
        (
            SqlExpr::ColRef {
                qualifier: lq,
                name: ln,
            },
            SqlExpr::ColRef {
                qualifier: rq,
                name: rn,
            },
        ) => (lq, ln, rq, rn),
        _ => return None,
    };
    let l_in_left = left.resolve(lq.as_deref(), ln).ok();
    let l_in_right = right.resolve(lq.as_deref(), ln).ok();
    let r_in_left = left.resolve(rq.as_deref(), rn).ok();
    let r_in_right = right.resolve(rq.as_deref(), rn).ok();
    match (l_in_left, l_in_right, r_in_left, r_in_right) {
        (Some(l), None, None, Some(r)) => Some((l, r)),
        (None, Some(r), Some(l), None) => Some((l, r)),
        _ => None,
    }
}

fn bind_select(stmt: &SelectStmt, db: &Database) -> Result<Plan, EngineError> {
    // Bind every comma-FROM item.
    let mut pending: Vec<(Plan, Scope)> = stmt
        .from
        .iter()
        .map(|f| bind_from_item(f, db))
        .collect::<Result<_, _>>()?;
    if pending.is_empty() {
        return Err(EngineError::Bind("empty FROM".into()));
    }

    let mut conds: Vec<SqlCond> = stmt.where_.clone();
    let (mut acc_plan, mut acc_scope) = pending.remove(0);

    // Greedily attach the next FROM item that shares an equality predicate
    // with what we have so far; fall back to declaration order (cross join).
    while !pending.is_empty() {
        let pick = pending
            .iter()
            .position(|(_, s)| {
                conds
                    .iter()
                    .any(|c| as_join_keys(c, &acc_scope, s).is_some())
            })
            .unwrap_or(0);
        let (rplan, rscope) = pending.remove(pick);
        let mut keys = Vec::new();
        conds.retain(|c| match as_join_keys(c, &acc_scope, &rscope) {
            Some(k) => {
                keys.push(k);
                false
            }
            None => true,
        });
        acc_plan = acc_plan.join(rplan, JoinKind::Inner, keys);
        acc_scope.merge(rscope)?;
    }

    // Explicit JOIN clauses, in order.
    for j in &stmt.joins {
        let (rplan, rscope) = bind_from_item(&j.item, db)?;
        let mut keys = Vec::new();
        let mut residual: Vec<Predicate> = Vec::new();
        let mut combined = acc_scope.clone();
        combined.merge(rscope.clone())?;
        for c in &j.on {
            if let Some(k) = as_join_keys(c, &acc_scope, &rscope) {
                keys.push(k);
            } else if j.kind == JoinKind::Inner
                && combined.can_resolve(&c.left)
                && combined.can_resolve(&c.right)
            {
                residual.push(bind_cond(c, &combined)?);
            } else {
                return Err(EngineError::Bind(format!(
                    "unsupported ON condition for {:?} join: {c}",
                    j.kind
                )));
            }
        }
        acc_plan = acc_plan.join(rplan, j.kind, keys).filter(residual);
        acc_scope = combined;
    }

    // Residual WHERE predicates.
    let preds = conds
        .iter()
        .map(|c| bind_cond(c, &acc_scope))
        .collect::<Result<Vec<_>, _>>()?;
    acc_plan = acc_plan.filter(preds);

    // Projection.
    let items = stmt
        .items
        .iter()
        .map(|item| {
            let name = match (&item.alias, &item.expr) {
                (Some(a), _) => a.clone(),
                (None, SqlExpr::ColRef { qualifier, name }) => match qualifier {
                    Some(q) => format!("{q}_{name}"),
                    None => acc_scope.resolve(None, name)?,
                },
                (None, other) => {
                    return Err(EngineError::Bind(format!(
                        "select item {other} needs an alias"
                    )));
                }
            };
            Ok((name, bind_expr(&item.expr, &acc_scope)?))
        })
        .collect::<Result<Vec<_>, EngineError>>()?;
    acc_plan = acc_plan.project(items);

    if stmt.distinct {
        acc_plan = Plan::Distinct {
            input: Box::new(acc_plan),
        };
    }
    Ok(acc_plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
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

    #[test]
    fn where_equalities_become_hash_joins() {
        let db = db();
        let plan = plan_sql(
            "SELECT s.name AS sn, n.name AS nn FROM Supplier s, Nation n \
             WHERE s.nationkey = n.nationkey",
            &db,
        )
        .unwrap();
        // The plan must contain a Join with keys, not a cross join + filter.
        let txt = plan.to_string();
        assert!(
            txt.contains("InnerJoin [s_nationkey = n_nationkey]"),
            "got:\n{txt}"
        );
        let rs = execute(&plan, &db).unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn from_order_does_not_force_cross_join() {
        let db = db();
        // ps connects to s, s connects to n; listing n between them must not
        // produce a cross join.
        let plan = plan_sql(
            "SELECT ps.partkey AS pk, n.name AS nn FROM PartSupp ps, Nation n, Supplier s \
             WHERE s.suppkey = ps.suppkey AND s.nationkey = n.nationkey",
            &db,
        )
        .unwrap();
        let txt = plan.to_string();
        assert!(!txt.contains("InnerJoin []"), "cross join in:\n{txt}");
        let rs = execute(&plan, &db).unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn left_outer_join_on_subquery() {
        let db = db();
        let plan = plan_sql(
            "SELECT s.suppkey AS k, q.pk AS pk FROM Supplier s \
             LEFT OUTER JOIN (SELECT ps.suppkey AS sk, ps.partkey AS pk FROM PartSupp ps) AS q \
             ON s.suppkey = q.sk ORDER BY k, pk",
            &db,
        )
        .unwrap();
        let rs = execute(&plan, &db).unwrap();
        assert_eq!(rs.len(), 4, "supplier 2 padded");
        assert_eq!(rs.rows[0].get(0), &Value::Int(1));
        assert!(rs.rows[2].get(1).is_null(), "supplier 2 has NULL pk");
    }

    #[test]
    fn union_all_aligns_by_name() {
        let db = db();
        let plan = plan_sql(
            "(SELECT 1 AS L, n.name AS nname, CAST(NULL AS INT) AS pk FROM Nation n) \
             UNION ALL \
             (SELECT 2 AS L, CAST(NULL AS VARCHAR) AS nname, ps.partkey AS pk FROM PartSupp ps) \
             ORDER BY L, nname, pk",
            &db,
        )
        .unwrap();
        let rs = execute(&plan, &db).unwrap();
        assert_eq!(rs.len(), 5);
        assert_eq!(rs.rows[0].get(0), &Value::Int(1));
        assert_eq!(rs.rows[4].get(0), &Value::Int(2));
    }

    #[test]
    fn bare_columns_resolve_when_unambiguous() {
        let db = db();
        let plan = plan_sql("SELECT suppkey FROM Supplier s WHERE suppkey = 2", &db).unwrap();
        let rs = execute(&plan, &db).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.schema.names().collect::<Vec<_>>(), vec!["s_suppkey"]);
    }

    #[test]
    fn ambiguous_bare_column_rejected() {
        let db = db();
        // `name` exists in both Supplier and Nation.
        let err = plan_sql(
            "SELECT name FROM Supplier s, Nation n WHERE s.nationkey = n.nationkey",
            &db,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Bind(m) if m.contains("ambiguous")));
    }

    #[test]
    fn unknown_names_rejected() {
        let db = db();
        assert!(plan_sql("SELECT x.y FROM Supplier s", &db).is_err());
        assert!(plan_sql("SELECT s.nope FROM Supplier s", &db).is_err());
        assert!(plan_sql("SELECT s.suppkey FROM Missing s", &db).is_err());
    }

    #[test]
    fn literal_select_needs_alias() {
        let db = db();
        assert!(plan_sql("SELECT 1 FROM Supplier s", &db).is_err());
        assert!(plan_sql("SELECT 1 AS one FROM Supplier s", &db).is_ok());
    }

    #[test]
    fn distinct_binds() {
        let db = db();
        let plan = plan_sql("SELECT DISTINCT s.nationkey AS nk FROM Supplier s", &db).unwrap();
        let rs = execute(&plan, &db).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn duplicate_alias_rejected() {
        let db = db();
        let err = plan_sql(
            "SELECT s.suppkey AS k FROM Supplier s, Supplier s WHERE s.suppkey = s.suppkey",
            &db,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Bind(m) if m.contains("duplicate alias")));
    }
}
