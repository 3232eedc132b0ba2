//! SQL subset: AST, lexer, parser, binder (SQL → plan), lowering
//! (plan → SQL) and statement shapes (the prepared-plan cache key).

pub mod ast;
pub mod binder;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod shape;

pub use ast::{FromItem, JoinClause, Query, SelectItem, SelectStmt, SqlCond, SqlExpr};
pub use binder::{bind, plan_sql};
pub use lower::to_sql;
pub use parser::parse;
