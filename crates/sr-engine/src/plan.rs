//! The logical/physical query plan.
//!
//! The engine keeps one plan representation: a small relational algebra that
//! is (a) executable directly, (b) printable as SQL text, and (c) parsable
//! back from that SQL text. This mirrors the paper's middleware contract:
//! SilkRoute emits SQL strings and the target RDBMS both executes them and
//! answers cost-estimate requests about them.
//!
//! Column naming convention: a [`Plan::Scan`] with alias `s` over a table
//! with column `suppkey` exposes the column as `s_suppkey`. All downstream
//! names stay globally unique, so joins never collide.

use std::fmt;

use sr_data::{Column, Database, Schema, Value};

use crate::error::EngineError;
use crate::expr::{Expr, Predicate};

/// Join kinds supported by the generated SQL (paper §3.4: `1`-labeled edges
/// become inner joins, `*`-labeled edges become left outer joins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner equi-join.
    Inner,
    /// Left outer equi-join (unmatched left rows padded with NULLs).
    LeftOuter,
}

/// A relational algebra plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a base table under an alias; columns become `alias_col`.
    Scan {
        /// Base table name.
        table: String,
        /// Alias; prefixes every output column.
        alias: String,
    },
    /// Keep rows satisfying every predicate (CNF).
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Conjunction of predicates.
        predicates: Vec<Predicate>,
    },
    /// Compute named output expressions.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// `(output name, expression)` pairs.
        items: Vec<(String, Expr)>,
    },
    /// Equi-join.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join kind.
        kind: JoinKind,
        /// Equality pairs `(left column, right column)`.
        on: Vec<(String, String)>,
    },
    /// Outer union: rows from every input, schemas aligned **by column
    /// name**; columns missing from a branch are NULL-padded (paper §3.4).
    OuterUnion {
        /// Input branches.
        inputs: Vec<Plan>,
    },
    /// Sort ascending by the named columns (NULLs first).
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort key column names, major first.
        keys: Vec<String>,
    },
    /// Remove duplicate rows (set semantics for datalog rule bodies).
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Common table expressions (`WITH name AS (…), … body`) — the paper's
    /// §3.4 footnote: "We also can use the SQL 'with' clause to construct
    /// partitioned relations." Each definition is evaluated **once** and
    /// shared by every reference in later definitions and the body.
    With {
        /// `(name, definition)` pairs, in order; later definitions may
        /// reference earlier ones.
        ctes: Vec<(String, Plan)>,
        /// The main query.
        body: Box<Plan>,
    },
    /// A reference to a CTE, exposing its columns as `alias_col`. The
    /// definition's schema is embedded at construction so schema queries
    /// need no environment.
    CteScan {
        /// CTE name.
        cte: String,
        /// Alias prefixing every column.
        alias: String,
        /// The definition's output schema (un-aliased).
        schema: Schema,
    },
}

impl Plan {
    /// Scan shorthand.
    pub fn scan(table: impl Into<String>, alias: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
            alias: alias.into(),
        }
    }

    /// Filter shorthand; a no-op when `predicates` is empty.
    pub fn filter(self, predicates: Vec<Predicate>) -> Plan {
        if predicates.is_empty() {
            self
        } else {
            Plan::Filter {
                input: Box::new(self),
                predicates,
            }
        }
    }

    /// Project shorthand.
    pub fn project(self, items: Vec<(String, Expr)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            items,
        }
    }

    /// Join shorthand.
    pub fn join(self, right: Plan, kind: JoinKind, on: Vec<(String, String)>) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            kind,
            on,
        }
    }

    /// Sort shorthand; a no-op when `keys` is empty.
    pub fn sort(self, keys: Vec<String>) -> Plan {
        if keys.is_empty() {
            self
        } else {
            Plan::Sort {
                input: Box::new(self),
                keys,
            }
        }
    }

    /// Compute the output schema against a database catalog, validating all
    /// column references along the way.
    pub fn schema(&self, db: &Database) -> Result<Schema, EngineError> {
        match self {
            Plan::Scan { .. } | Plan::CteScan { .. } => self.output_schema(db, &[]),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input } => {
                let s = input.schema(db)?;
                self.output_schema(db, std::slice::from_ref(&s))
            }
            Plan::Join { left, right, .. } => {
                let kids = [left.schema(db)?, right.schema(db)?];
                self.output_schema(db, &kids)
            }
            Plan::OuterUnion { inputs } => {
                let kids = inputs
                    .iter()
                    .map(|p| p.schema(db))
                    .collect::<Result<Vec<_>, _>>()?;
                self.output_schema(db, &kids)
            }
            Plan::With { ctes, body } => {
                // Validate definitions, then the body (CteScan schemas are
                // embedded, so no environment is needed).
                for (_, def) in ctes {
                    def.schema(db)?;
                }
                let s = body.schema(db)?;
                self.output_schema(db, std::slice::from_ref(&s))
            }
        }
    }

    /// Output schema of this operator given the schemas of its direct
    /// inputs, in operand order: `[input]` for unary operators, `[left,
    /// right]` for joins, one per branch for unions, `[body]` for `With`.
    /// Lets bottom-up analysis passes derive every node's schema in a
    /// single traversal instead of re-walking each subtree per node.
    pub fn output_schema(&self, db: &Database, children: &[Schema]) -> Result<Schema, EngineError> {
        match self {
            Plan::Scan { table, alias } => {
                let t = db.table(table)?;
                let cols = t
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| Column {
                        name: format!("{alias}_{}", c.name),
                        dtype: c.dtype,
                        nullable: c.nullable,
                    })
                    .collect();
                Schema::new(cols).map_err(Into::into)
            }
            Plan::Filter { predicates, .. } => {
                let s = children[0].clone();
                for p in predicates {
                    p.left.dtype(&s)?;
                    p.right.dtype(&s)?;
                }
                Ok(s)
            }
            Plan::Project { items, .. } => {
                let s = &children[0];
                let cols = items
                    .iter()
                    .map(|(name, e)| {
                        Ok(Column {
                            name: name.clone(),
                            dtype: e.dtype(s)?,
                            nullable: e.nullable(s),
                        })
                    })
                    .collect::<Result<Vec<_>, EngineError>>()?;
                Schema::new(cols).map_err(Into::into)
            }
            Plan::Join { kind, on, .. } => {
                let (ls, rs) = (&children[0], &children[1]);
                for (l, r) in on {
                    ls.require(l)?;
                    rs.require(r)?;
                }
                let rs = match kind {
                    JoinKind::Inner => rs.clone(),
                    JoinKind::LeftOuter => rs.as_nullable(),
                };
                ls.join(&rs).map_err(Into::into)
            }
            Plan::OuterUnion { .. } => {
                if children.is_empty() {
                    return Err(EngineError::InvalidPlan("empty outer union".into()));
                }
                // Union schema: columns in first-appearance order across
                // branches; a column present in every branch with the same
                // type keeps that type; it is nullable if nullable anywhere
                // or absent from any branch.
                let mut cols: Vec<Column> = Vec::new();
                for s in children {
                    for c in s.columns() {
                        if let Some(existing) = cols.iter_mut().find(|x| x.name == c.name) {
                            if existing.dtype != c.dtype {
                                return Err(EngineError::InvalidPlan(format!(
                                    "outer union column {} has conflicting types {} and {}",
                                    c.name, existing.dtype, c.dtype
                                )));
                            }
                            existing.nullable |= c.nullable;
                        } else {
                            cols.push(c.clone());
                        }
                    }
                }
                for c in &mut cols {
                    if !children.iter().all(|s| s.contains(&c.name)) {
                        c.nullable = true;
                    }
                }
                Schema::new(cols).map_err(Into::into)
            }
            Plan::Sort { keys, .. } => {
                let s = children[0].clone();
                for k in keys {
                    s.require(k)?;
                }
                Ok(s)
            }
            Plan::Distinct { .. } | Plan::With { .. } => Ok(children[0].clone()),
            Plan::CteScan { alias, schema, .. } => {
                let cols = schema
                    .columns()
                    .iter()
                    .map(|c| Column {
                        name: format!("{alias}_{}", c.name),
                        dtype: c.dtype,
                        nullable: c.nullable,
                    })
                    .collect();
                Schema::new(cols).map_err(Into::into)
            }
        }
    }

    /// Visit every operator in the plan, parents before children.
    pub fn visit(&self, f: &mut impl FnMut(&Plan)) {
        f(self);
        match self {
            Plan::Scan { .. } | Plan::CteScan { .. } => {}
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input } => input.visit(f),
            Plan::Join { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Plan::OuterUnion { inputs } => {
                for i in inputs {
                    i.visit(f);
                }
            }
            Plan::With { ctes, body } => {
                for (_, def) in ctes {
                    def.visit(f);
                }
                body.visit(f);
            }
        }
    }

    /// Direct children in operand order: `[input]` for unary operators,
    /// `[left, right]` for joins, one per branch for unions, and — for
    /// `With` — every CTE definition in order followed by the body. This is
    /// exactly the order [`Plan::visit`] and [`Plan::node_count`] recurse
    /// in, so preorder node ids (node `i`'s first child is `i + 1`, each
    /// next sibling is offset by the previous child's `node_count`) are
    /// consistent across the executor, the cost model, and EXPLAIN output.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } | Plan::CteScan { .. } => Vec::new(),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input } => vec![input],
            Plan::Join { left, right, .. } => vec![left, right],
            Plan::OuterUnion { inputs } => inputs.iter().collect(),
            Plan::With { ctes, body } => {
                let mut kids: Vec<&Plan> = ctes.iter().map(|(_, d)| d).collect();
                kids.push(body);
                kids
            }
        }
    }

    fn children_mut(&mut self) -> Vec<&mut Plan> {
        match self {
            Plan::Scan { .. } | Plan::CteScan { .. } => Vec::new(),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input } => vec![input],
            Plan::Join { left, right, .. } => vec![left, right],
            Plan::OuterUnion { inputs } => inputs.iter_mut().collect(),
            Plan::With { ctes, body } => ctes
                .iter_mut()
                .map(|(_, d)| d)
                .chain(std::iter::once(&mut **body))
                .collect(),
        }
    }

    /// Replace each parameter slot (they sit only in filters) with its value
    /// in `params`; one without a value stays, to fail at execution.
    pub(crate) fn bind_params(&mut self, params: &[Value]) {
        if let Plan::Filter { predicates, .. } = self {
            for p in predicates {
                for e in [&mut p.left, &mut p.right] {
                    if let Expr::Param(i, _) = *e {
                        if let Some(v) = params.get(i) {
                            *e = Expr::Lit(v.clone());
                        }
                    }
                }
            }
        }
        for child in self.children_mut() {
            child.bind_params(params);
        }
    }

    /// Does every parameter slot face a column? Only then is the estimate
    /// blind to slot values: a literal facing a literal, which push-down
    /// through a constant projection can produce, is priced by value.
    pub(crate) fn slots_face_columns(&self) -> bool {
        let mut ok = true;
        self.visit(&mut |p| {
            if let Plan::Filter { predicates, .. } = p {
                ok &= predicates.iter().all(|q| match (&q.left, &q.right) {
                    (Expr::Param(..), other) | (other, Expr::Param(..)) => {
                        matches!(other, Expr::Col(_))
                    }
                    _ => true,
                });
            }
        });
        ok
    }

    /// Does the plan use a left outer join anywhere?
    pub fn uses_outer_join(&self) -> bool {
        let mut found = false;
        self.visit(&mut |p| {
            if matches!(
                p,
                Plan::Join {
                    kind: JoinKind::LeftOuter,
                    ..
                }
            ) {
                found = true;
            }
        });
        found
    }

    /// Does the plan use a (multi-branch) union anywhere?
    pub fn uses_union(&self) -> bool {
        let mut found = false;
        self.visit(&mut |p| {
            if matches!(p, Plan::OuterUnion { inputs } if inputs.len() > 1) {
                found = true;
            }
        });
        found
    }

    /// Number of operators in the plan (for tests/metrics).
    pub fn node_count(&self) -> usize {
        1 + match self {
            Plan::Scan { .. } | Plan::CteScan { .. } => 0,
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input } => input.node_count(),
            Plan::Join { left, right, .. } => left.node_count() + right.node_count(),
            Plan::OuterUnion { inputs } => inputs.iter().map(Plan::node_count).sum(),
            Plan::With { ctes, body } => {
                ctes.iter().map(|(_, d)| d.node_count()).sum::<usize>() + body.node_count()
            }
        }
    }

    /// All base tables scanned by the plan (with duplicates, in scan order).
    pub fn scanned_tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Plan::Scan { table, .. } => out.push(table),
            Plan::CteScan { .. } => {}
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input } => input.collect_tables(out),
            Plan::Join { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
            Plan::OuterUnion { inputs } => {
                for i in inputs {
                    i.collect_tables(out);
                }
            }
            Plan::With { ctes, body } => {
                for (_, d) in ctes {
                    d.collect_tables(out);
                }
                body.collect_tables(out);
            }
        }
    }
}

impl fmt::Display for Plan {
    /// Indented operator-tree rendering (EXPLAIN-style).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(p: &Plan, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            let pad = "  ".repeat(depth);
            match p {
                Plan::Scan { table, alias } => writeln!(f, "{pad}Scan {table} AS {alias}"),
                Plan::Filter { input, predicates } => {
                    let ps: Vec<String> = predicates.iter().map(|p| p.to_string()).collect();
                    writeln!(f, "{pad}Filter [{}]", ps.join(" AND "))?;
                    go(input, f, depth + 1)
                }
                Plan::Project { input, items } => {
                    let is: Vec<String> =
                        items.iter().map(|(n, e)| format!("{e} AS {n}")).collect();
                    writeln!(f, "{pad}Project [{}]", is.join(", "))?;
                    go(input, f, depth + 1)
                }
                Plan::Join {
                    left,
                    right,
                    kind,
                    on,
                } => {
                    let os: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                    writeln!(f, "{pad}{kind:?}Join [{}]", os.join(" AND "))?;
                    go(left, f, depth + 1)?;
                    go(right, f, depth + 1)
                }
                Plan::OuterUnion { inputs } => {
                    writeln!(f, "{pad}OuterUnion")?;
                    for i in inputs {
                        go(i, f, depth + 1)?;
                    }
                    Ok(())
                }
                Plan::Sort { input, keys } => {
                    writeln!(f, "{pad}Sort [{}]", keys.join(", "))?;
                    go(input, f, depth + 1)
                }
                Plan::Distinct { input } => {
                    writeln!(f, "{pad}Distinct")?;
                    go(input, f, depth + 1)
                }
                Plan::With { ctes, body } => {
                    for (name, def) in ctes {
                        writeln!(f, "{pad}With {name} :=")?;
                        go(def, f, depth + 1)?;
                    }
                    go(body, f, depth)
                }
                Plan::CteScan { cte, alias, .. } => {
                    writeln!(f, "{pad}CteScan {cte} AS {alias}")
                }
            }
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use sr_data::{row, DataType, Table, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut a = Table::new(
            "A",
            Schema::of(&[("id", DataType::Int), ("x", DataType::Str)]),
        );
        a.insert(row![1i64, "one"]).unwrap();
        let mut b = Table::new(
            "B",
            Schema::of(&[("id", DataType::Int), ("y", DataType::Float)]),
        );
        b.insert(row![1i64, 0.5f64]).unwrap();
        db.add_table(a);
        db.add_table(b);
        db
    }

    #[test]
    fn scan_schema_prefixes_alias() {
        let db = db();
        let s = Plan::scan("A", "a").schema(&db).unwrap();
        assert_eq!(s.names().collect::<Vec<_>>(), vec!["a_id", "a_x"]);
    }

    #[test]
    fn join_schema_marks_outer_side_nullable() {
        let db = db();
        let p = Plan::scan("A", "a").join(
            Plan::scan("B", "b"),
            JoinKind::LeftOuter,
            vec![("a_id".into(), "b_id".into())],
        );
        let s = p.schema(&db).unwrap();
        assert!(!s.column(s.position("a_id").unwrap()).nullable);
        assert!(s.column(s.position("b_y").unwrap()).nullable);
    }

    #[test]
    fn join_validates_keys() {
        let db = db();
        let p = Plan::scan("A", "a").join(
            Plan::scan("B", "b"),
            JoinKind::Inner,
            vec![("a_nope".into(), "b_id".into())],
        );
        assert!(p.schema(&db).is_err());
    }

    #[test]
    fn outer_union_schema_unions_by_name() {
        let db = db();
        let l = Plan::scan("A", "a").project(vec![
            ("k".into(), Expr::col("a_id")),
            ("x".into(), Expr::col("a_x")),
        ]);
        let r = Plan::scan("B", "b").project(vec![
            ("k".into(), Expr::col("b_id")),
            ("y".into(), Expr::col("b_y")),
        ]);
        let u = Plan::OuterUnion { inputs: vec![l, r] };
        let s = u.schema(&db).unwrap();
        assert_eq!(s.names().collect::<Vec<_>>(), vec!["k", "x", "y"]);
        // k appears in both branches, non-nullable; x and y only in one each.
        assert!(!s.column(0).nullable);
        assert!(s.column(1).nullable);
        assert!(s.column(2).nullable);
    }

    #[test]
    fn outer_union_type_conflict_rejected() {
        let db = db();
        let l = Plan::scan("A", "a").project(vec![("v".into(), Expr::col("a_x"))]);
        let r = Plan::scan("B", "b").project(vec![("v".into(), Expr::col("b_y"))]);
        let u = Plan::OuterUnion { inputs: vec![l, r] };
        assert!(u.schema(&db).is_err());
    }

    #[test]
    fn filter_validates_predicates() {
        let db = db();
        let good = Plan::scan("A", "a").filter(vec![Predicate::new(
            Expr::col("a_id"),
            CmpOp::Eq,
            Expr::Lit(Value::Int(1)),
        )]);
        assert!(good.schema(&db).is_ok());
        let bad = Plan::scan("A", "a").filter(vec![Predicate::eq_cols("a_id", "missing")]);
        assert!(bad.schema(&db).is_err());
    }

    #[test]
    fn helpers_skip_noop() {
        let p = Plan::scan("A", "a").filter(vec![]).sort(vec![]);
        assert_eq!(p, Plan::scan("A", "a"));
    }

    #[test]
    fn node_count_and_tables() {
        let p = Plan::scan("A", "a")
            .join(
                Plan::scan("B", "b"),
                JoinKind::Inner,
                vec![("a_id".into(), "b_id".into())],
            )
            .sort(vec!["a_id".into()]);
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.scanned_tables(), vec!["A", "B"]);
    }

    #[test]
    fn children_match_preorder_node_ids() {
        let join = Plan::scan("A", "a").join(
            Plan::scan("B", "b"),
            JoinKind::Inner,
            vec![("a_id".into(), "b_id".into())],
        );
        let kids = join.children();
        assert_eq!(kids.len(), 2);
        // Preorder: join=0, left=1, right=1+left.node_count()=2.
        assert_eq!(kids[0].node_count(), 1);

        let with = Plan::With {
            ctes: vec![("c".into(), Plan::scan("A", "a"))],
            body: Box::new(Plan::scan("B", "b")),
        };
        let kids = with.children();
        assert_eq!(kids.len(), 2);
        assert!(matches!(kids[0], Plan::Scan { table, .. } if table == "A"));
        assert!(matches!(kids[1], Plan::Scan { table, .. } if table == "B"));

        // children() order agrees with visit() order.
        let mut visited = Vec::new();
        with.visit(&mut |p| visited.push(p.clone()));
        assert_eq!(&visited[1], kids[0]);
        assert_eq!(&visited[2], kids[1]);
    }

    #[test]
    fn display_is_indented() {
        let p = Plan::scan("A", "a").sort(vec!["a_id".into()]);
        let txt = p.to_string();
        assert!(txt.contains("Sort [a_id]"));
        assert!(txt.contains("  Scan A AS a"));
    }
}
