//! Scalar expressions and predicates over rows.
//!
//! Expressions are built with *names* and compiled ("bound") against a
//! concrete [`Schema`] into positional form before execution, so the
//! per-row inner loop does no string hashing.

use std::fmt;

use sr_data::{DataType, Row, Schema, Value};

use crate::error::EngineError;

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by (unique) name.
    Col(String),
    /// A literal value.
    Lit(Value),
    /// A typed NULL (`CAST(NULL AS t)`), needed so projected NULL columns
    /// still carry a type for schema construction.
    TypedNull(DataType),
    /// Slot `i` for a literal of type `t` in a prepared plan: planned as a
    /// literal whose value is unknown, bound before the plan executes.
    Param(usize, DataType),
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// The expression's output type against a schema.
    pub fn dtype(&self, schema: &Schema) -> Result<DataType, EngineError> {
        match self {
            Expr::Col(name) => {
                let i = schema.require(name)?;
                Ok(schema.column(i).dtype)
            }
            Expr::Lit(v) => v.data_type().ok_or_else(|| {
                EngineError::Bind("untyped NULL literal; use CAST(NULL AS t)".into())
            }),
            Expr::TypedNull(t) | Expr::Param(_, t) => Ok(*t),
        }
    }

    /// Whether the expression can yield NULL against a schema.
    pub fn nullable(&self, schema: &Schema) -> bool {
        match self {
            Expr::Col(name) => schema
                .position(name)
                .map(|i| schema.column(i).nullable)
                .unwrap_or(true),
            Expr::Lit(v) => v.is_null(),
            Expr::TypedNull(_) => true,
            Expr::Param(..) => false,
        }
    }

    /// Compile against a schema.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr, EngineError> {
        match self {
            Expr::Col(name) => Ok(BoundExpr::Col(schema.require(name)?)),
            Expr::Lit(v) => Ok(BoundExpr::Lit(v.clone())),
            Expr::TypedNull(_) => Ok(BoundExpr::Lit(Value::Null)),
            Expr::Param(i, _) => Err(EngineError::Bind(format!("parameter slot {i} is unbound"))),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(name) => write!(f, "{name}"),
            Expr::Lit(Value::Str(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::TypedNull(t) => write!(f, "CAST(NULL AS {t})"),
            Expr::Param(i, _) => write!(f, "${i}"),
        }
    }
}

/// A compiled expression: positional column access or a constant.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Column by position.
    Col(usize),
    /// Constant.
    Lit(Value),
}

impl BoundExpr {
    /// Evaluate against a row.
    #[inline]
    pub fn eval<'r>(&'r self, row: &'r Row) -> &'r Value {
        match self {
            BoundExpr::Col(i) => row.get(*i),
            BoundExpr::Lit(v) => v,
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply SQL comparison semantics: any NULL operand ⇒ false.
    #[inline]
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql())
    }
}

/// One conjunct of a (CNF) filter: `left op right`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Left operand.
    pub left: Expr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub right: Expr,
}

impl Predicate {
    /// `left op right`.
    pub fn new(left: Expr, op: CmpOp, right: Expr) -> Self {
        Predicate { left, op, right }
    }

    /// Equality between two columns (the common join/filter case).
    pub fn eq_cols(a: impl Into<String>, b: impl Into<String>) -> Self {
        Predicate::new(Expr::col(a), CmpOp::Eq, Expr::col(b))
    }

    /// Compile against a schema.
    pub fn bind(&self, schema: &Schema) -> Result<BoundPredicate, EngineError> {
        Ok(BoundPredicate {
            left: self.left.bind(schema)?,
            op: self.op,
            right: self.right.bind(schema)?,
        })
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// A compiled predicate. Fields are crate-visible so the vectorized
/// executor can compile batch kernels from the same bound form.
#[derive(Debug, Clone)]
pub struct BoundPredicate {
    pub(crate) left: BoundExpr,
    pub(crate) op: CmpOp,
    pub(crate) right: BoundExpr,
}

impl BoundPredicate {
    /// Evaluate against a row.
    #[inline]
    pub fn eval(&self, row: &Row) -> bool {
        self.op.apply(self.left.eval(row), self.right.eval(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_data::row;

    fn schema() -> Schema {
        Schema::of(&[("a", DataType::Int), ("b", DataType::Str)])
    }

    #[test]
    fn bind_and_eval_column() {
        let s = schema();
        let e = Expr::col("b").bind(&s).unwrap();
        let r = row![1i64, "hello"];
        assert_eq!(e.eval(&r), &Value::str("hello"));
    }

    #[test]
    fn bind_unknown_column_fails() {
        assert!(Expr::col("zz").bind(&schema()).is_err());
    }

    #[test]
    fn dtype_inference() {
        let s = schema();
        assert_eq!(Expr::col("a").dtype(&s).unwrap(), DataType::Int);
        assert_eq!(Expr::lit(1.5f64).dtype(&s).unwrap(), DataType::Float);
        assert_eq!(
            Expr::TypedNull(DataType::Str).dtype(&s).unwrap(),
            DataType::Str
        );
        assert!(Expr::Lit(Value::Null).dtype(&s).is_err());
    }

    #[test]
    fn cmp_null_semantics() {
        assert!(!CmpOp::Eq.apply(&Value::Null, &Value::Null));
        assert!(!CmpOp::Ne.apply(&Value::Null, &Value::Int(1)));
        assert!(CmpOp::Lt.apply(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Ge.apply(&Value::Int(2), &Value::Int(2)));
        assert!(CmpOp::Ne.apply(&Value::Int(1), &Value::Int(2)));
    }

    #[test]
    fn predicate_eval() {
        let s = schema();
        let p = Predicate::new(Expr::col("a"), CmpOp::Gt, Expr::lit(10i64))
            .bind(&s)
            .unwrap();
        assert!(p.eval(&row![11i64, "x"]));
        assert!(!p.eval(&row![10i64, "x"]));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Expr::lit("o'k").to_string(), "'o''k'");
        assert_eq!(
            Predicate::eq_cols("s_suppkey", "ps_suppkey").to_string(),
            "s_suppkey = ps_suppkey"
        );
        assert_eq!(
            Expr::TypedNull(DataType::Int).to_string(),
            "CAST(NULL AS INT)"
        );
    }

    #[test]
    fn nullable_propagation() {
        let s = schema();
        assert!(!Expr::col("a").nullable(&s));
        assert!(Expr::TypedNull(DataType::Int).nullable(&s));
        assert!(!Expr::lit(1i64).nullable(&s));
    }
}
