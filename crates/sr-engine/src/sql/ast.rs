//! SQL abstract syntax and printing.
//!
//! The dialect is the fragment the paper's generated queries need (§3.4):
//! `SELECT`-`FROM`-`WHERE` blocks with comma inner joins, explicit
//! `LEFT OUTER JOIN … ON`, derived tables, `UNION ALL` (interpreted as the
//! paper's *outer union*: branches are aligned by column name), `ORDER BY`,
//! `DISTINCT`, and `CAST(NULL AS t)` for typed padding columns.

use std::fmt;

use sr_data::DataType;

use crate::expr::CmpOp;
use crate::plan::JoinKind;

/// A SQL scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// `qualifier.name` or bare `name`.
    ColRef {
        /// Optional table/derived-table qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// String literal.
    StrLit(String),
    /// Parameter slot `i` for a literal of type `t`.
    Param(usize, DataType),
    /// `CAST(NULL AS t)`.
    Null(DataType),
}

impl SqlExpr {
    /// Qualified column reference.
    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> SqlExpr {
        SqlExpr::ColRef {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// Bare column reference.
    pub fn col(name: impl Into<String>) -> SqlExpr {
        SqlExpr::ColRef {
            qualifier: None,
            name: name.into(),
        }
    }
}

impl fmt::Display for SqlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlExpr::ColRef {
                qualifier: Some(q),
                name,
            } => write!(f, "{q}.{name}"),
            SqlExpr::ColRef {
                qualifier: None,
                name,
            } => write!(f, "{name}"),
            SqlExpr::IntLit(i) => write!(f, "{i}"),
            SqlExpr::FloatLit(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            SqlExpr::StrLit(s) => write!(f, "'{}'", s.replace('\'', "''")),
            SqlExpr::Param(_, t) => f.write_str(crate::sql::shape::slot_name(*t)),
            SqlExpr::Null(t) => write!(f, "CAST(NULL AS {t})"),
        }
    }
}

/// A comparison `left op right`.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlCond {
    /// Left operand.
    pub left: SqlExpr,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub right: SqlExpr,
}

impl fmt::Display for SqlCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// One `SELECT` output item.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression.
    pub expr: SqlExpr,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.expr),
            None => write!(f, "{}", self.expr),
        }
    }
}

/// A `FROM` item.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// Base table with alias.
    Table {
        /// Table name.
        name: String,
        /// Alias.
        alias: String,
    },
    /// Derived table `(query) AS alias`.
    Subquery {
        /// The subquery.
        query: Box<Query>,
        /// Alias.
        alias: String,
    },
}

impl FromItem {
    /// The item's alias.
    pub fn alias(&self) -> &str {
        match self {
            FromItem::Table { alias, .. } => alias,
            FromItem::Subquery { alias, .. } => alias,
        }
    }
}

impl fmt::Display for FromItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromItem::Table { name, alias } => {
                if name == alias {
                    write!(f, "{name}")
                } else {
                    write!(f, "{name} {alias}")
                }
            }
            FromItem::Subquery { query, alias } => write!(f, "({query}) AS {alias}"),
        }
    }
}

/// An explicit join clause attached to the FROM list.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Join kind.
    pub kind: JoinKind,
    /// Joined item.
    pub item: FromItem,
    /// `ON` conditions (ANDed).
    pub on: Vec<SqlCond>,
}

impl fmt::Display for JoinClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kw = match self.kind {
            JoinKind::Inner => "JOIN",
            JoinKind::LeftOuter => "LEFT OUTER JOIN",
        };
        write!(f, "{kw} {} ON ", self.item)?;
        for (i, c) in self.on.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// One `SELECT` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Output items.
    pub items: Vec<SelectItem>,
    /// Comma-separated FROM items (inner joins via WHERE).
    pub from: Vec<FromItem>,
    /// Explicit JOIN clauses applied after the comma list.
    pub joins: Vec<JoinClause>,
    /// `WHERE` conjuncts.
    pub where_: Vec<SqlCond>,
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " FROM ")?;
        for (i, item) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        for j in &self.joins {
            write!(f, " {j}")?;
        }
        if !self.where_.is_empty() {
            write!(f, " WHERE ")?;
            for (i, c) in self.where_.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

/// A full query: union of selects, optional ORDER BY.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `UNION ALL` branches; a plain select has exactly one.
    pub branches: Vec<SelectStmt>,
    /// `ORDER BY` output-column names.
    pub order_by: Vec<String>,
}

impl Query {
    /// A single-select query.
    pub fn select(stmt: SelectStmt) -> Query {
        Query {
            branches: vec![stmt],
            order_by: Vec::new(),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.branches.iter().enumerate() {
            if i > 0 {
                write!(f, " UNION ALL ")?;
            }
            if self.branches.len() > 1 {
                write!(f, "({b})")?;
            } else {
                write!(f, "{b}")?;
            }
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY {}", self.order_by.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_select() -> SelectStmt {
        SelectStmt {
            distinct: false,
            items: vec![
                SelectItem {
                    expr: SqlExpr::qcol("s", "suppkey"),
                    alias: Some("s_suppkey".into()),
                },
                SelectItem {
                    expr: SqlExpr::IntLit(1),
                    alias: Some("L1".into()),
                },
            ],
            from: vec![FromItem::Table {
                name: "Supplier".into(),
                alias: "s".into(),
            }],
            joins: vec![],
            where_: vec![SqlCond {
                left: SqlExpr::qcol("s", "suppkey"),
                op: CmpOp::Gt,
                right: SqlExpr::IntLit(5),
            }],
        }
    }

    #[test]
    fn print_simple_select() {
        assert_eq!(
            Query::select(simple_select()).to_string(),
            "SELECT s.suppkey AS s_suppkey, 1 AS L1 FROM Supplier s WHERE s.suppkey > 5"
        );
    }

    #[test]
    fn print_union_and_order_by() {
        let q = Query {
            branches: vec![simple_select(), simple_select()],
            order_by: vec!["s_suppkey".into()],
        };
        let txt = q.to_string();
        assert!(txt.contains(") UNION ALL ("));
        assert!(txt.ends_with("ORDER BY s_suppkey"));
    }

    #[test]
    fn print_left_outer_join() {
        let j = JoinClause {
            kind: JoinKind::LeftOuter,
            item: FromItem::Table {
                name: "Nation".into(),
                alias: "n".into(),
            },
            on: vec![SqlCond {
                left: SqlExpr::qcol("s", "nationkey"),
                op: CmpOp::Eq,
                right: SqlExpr::qcol("n", "nationkey"),
            }],
        };
        assert_eq!(
            j.to_string(),
            "LEFT OUTER JOIN Nation n ON s.nationkey = n.nationkey"
        );
    }

    #[test]
    fn print_literals() {
        assert_eq!(SqlExpr::StrLit("a'b".into()).to_string(), "'a''b'");
        assert_eq!(SqlExpr::FloatLit(2.0).to_string(), "2.0");
        assert_eq!(SqlExpr::FloatLit(2.5).to_string(), "2.5");
        assert_eq!(
            SqlExpr::Null(DataType::Str).to_string(),
            "CAST(NULL AS VARCHAR)"
        );
    }

    #[test]
    fn from_item_same_name_alias_collapses() {
        let f = FromItem::Table {
            name: "Region".into(),
            alias: "Region".into(),
        };
        assert_eq!(f.to_string(), "Region");
    }
}
