//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query        := branch ( UNION ALL branch )* [ ORDER BY ident (, ident)* ]
//! branch       := select_core | '(' query ')'       -- nested unions flatten
//! select_core  := SELECT [DISTINCT] item (, item)*
//!                 FROM from_item (, from_item)*
//!                 join_clause*
//!                 [ WHERE cond (AND cond)* ]
//! item         := expr [ [AS] ident ]
//! from_item    := ident [ [AS] ident ] | '(' query ')' AS ident
//! join_clause  := [INNER] JOIN from_item ON cond (AND cond)*
//!               | LEFT [OUTER] JOIN from_item ON cond (AND cond)*
//! cond         := expr cmp expr
//! expr         := ident [ '.' ident ] | int | float | string
//!               | CAST '(' NULL AS type ')'
//! type         := INT | FLOAT | VARCHAR
//! ```

use sr_data::DataType;

use crate::error::EngineError;
use crate::expr::CmpOp;
use crate::plan::JoinKind;
use crate::sql::ast::{FromItem, JoinClause, Query, SelectItem, SelectStmt, SqlCond, SqlExpr};
use crate::sql::lexer::{lex, Spanned, Token};

/// Parse SQL text into a [`Query`].
pub fn parse(src: &str) -> Result<Query, EngineError> {
    parse_tokens(lex(src)?)
}

/// Parse lexed tokens; a parameter slot parses as [`SqlExpr::Param`].
pub(crate) fn parse_tokens(tokens: Vec<Spanned>) -> Result<Query, EngineError> {
    let mut p = Parser { tokens, pos: 0 };
    // Statement-level WITH clause.
    let mut ctes = Vec::new();
    if p.eat_kw("WITH") {
        loop {
            let name = p.ident()?;
            p.expect_kw("AS")?;
            p.expect(Token::LParen)?;
            let def = p.query()?;
            p.expect(Token::RParen)?;
            ctes.push((name, def));
            if *p.peek() == Token::Comma {
                p.bump();
            } else {
                break;
            }
        }
    }
    let mut q = p.query()?;
    p.expect_eof()?;
    q.ctes = ctes;
    Ok(q)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> EngineError {
        EngineError::Parse {
            offset: self.offset(),
            message: message.into(),
        }
    }

    /// Is the current token the given keyword (case-insensitive)?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), EngineError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect(&mut self, t: Token) -> Result<(), EngineError> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<(), EngineError> {
        if *self.peek() == Token::Eof {
            Ok(())
        } else {
            Err(self.err(format!("trailing input: {:?}", self.peek())))
        }
    }

    /// Any identifier that is not a reserved structural keyword.
    fn ident(&mut self) -> Result<String, EngineError> {
        const RESERVED: &[&str] = &[
            "SELECT", "FROM", "WHERE", "JOIN", "LEFT", "OUTER", "INNER", "ON", "UNION", "ALL",
            "ORDER", "BY", "AS", "AND", "DISTINCT", "CAST", "NULL", "WITH",
        ];
        match self.peek() {
            Token::Ident(s) if !RESERVED.iter().any(|r| s.eq_ignore_ascii_case(r)) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn query(&mut self) -> Result<Query, EngineError> {
        let mut branches = self.branch()?;
        while self.at_kw("UNION") {
            self.bump();
            self.expect_kw("ALL")?;
            branches.extend(self.branch()?);
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            order_by.push(self.ident()?);
            while *self.peek() == Token::Comma {
                self.bump();
                order_by.push(self.ident()?);
            }
        }
        Ok(Query {
            ctes: Vec::new(),
            branches,
            order_by,
        })
    }

    /// One union branch; parenthesized sub-queries flatten their branches
    /// (UNION ALL is associative) but must not carry their own ORDER BY.
    fn branch(&mut self) -> Result<Vec<SelectStmt>, EngineError> {
        if *self.peek() == Token::LParen {
            self.bump();
            let q = self.query()?;
            if !q.order_by.is_empty() {
                return Err(self.err("ORDER BY not allowed in a union branch"));
            }
            self.expect(Token::RParen)?;
            Ok(q.branches)
        } else {
            Ok(vec![self.select_core()?])
        }
    }

    fn select_core(&mut self) -> Result<SelectStmt, EngineError> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = vec![self.select_item()?];
        while *self.peek() == Token::Comma {
            self.bump();
            items.push(self.select_item()?);
        }
        self.expect_kw("FROM")?;
        let mut from = vec![self.from_item()?];
        while *self.peek() == Token::Comma {
            self.bump();
            from.push(self.from_item()?);
        }
        let mut joins = Vec::new();
        loop {
            let kind = if self.at_kw("LEFT") {
                self.bump();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::LeftOuter
            } else if self.at_kw("INNER") {
                self.bump();
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.at_kw("JOIN") {
                self.bump();
                JoinKind::Inner
            } else {
                break;
            };
            let item = self.from_item()?;
            self.expect_kw("ON")?;
            let mut on = vec![self.cond()?];
            while self.eat_kw("AND") {
                on.push(self.cond()?);
            }
            joins.push(JoinClause { kind, item, on });
        }
        let mut where_ = Vec::new();
        if self.eat_kw("WHERE") {
            where_.push(self.cond()?);
            while self.eat_kw("AND") {
                where_.push(self.cond()?);
            }
        }
        Ok(SelectStmt {
            distinct,
            items,
            from,
            joins,
            where_,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, EngineError> {
        let expr = self.expr()?;
        let has_alias = self.eat_kw("AS")
            || (matches!(self.peek(), Token::Ident(_)) && !self.at_structural_keyword());
        let alias = if has_alias { Some(self.ident()?) } else { None };
        Ok(SelectItem { expr, alias })
    }

    fn at_structural_keyword(&self) -> bool {
        [
            "FROM", "WHERE", "JOIN", "LEFT", "INNER", "ON", "UNION", "ORDER", "AND",
        ]
        .iter()
        .any(|k| self.at_kw(k))
    }

    #[allow(clippy::wrong_self_convention)] // parses a FROM item; not a conversion
    fn from_item(&mut self) -> Result<FromItem, EngineError> {
        if *self.peek() == Token::LParen {
            self.bump();
            let q = self.query()?;
            self.expect(Token::RParen)?;
            self.expect_kw("AS")?;
            let alias = self.ident()?;
            Ok(FromItem::Subquery {
                query: Box::new(q),
                alias,
            })
        } else {
            let name = self.ident()?;
            let has_alias = self.eat_kw("AS")
                || (matches!(self.peek(), Token::Ident(_)) && !self.at_structural_keyword());
            let alias = if has_alias {
                self.ident()?
            } else {
                name.clone()
            };
            Ok(FromItem::Table { name, alias })
        }
    }

    fn cond(&mut self) -> Result<SqlCond, EngineError> {
        let left = self.expr()?;
        let op = match self.bump() {
            Token::Eq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            other => return Err(self.err(format!("expected comparison, found {other:?}"))),
        };
        let right = self.expr()?;
        Ok(SqlCond { left, op, right })
    }

    fn expr(&mut self) -> Result<SqlExpr, EngineError> {
        match self.peek().clone() {
            Token::Int(i) => {
                self.bump();
                Ok(SqlExpr::IntLit(i))
            }
            Token::Float(x) => {
                self.bump();
                Ok(SqlExpr::FloatLit(x))
            }
            Token::Str(s) => {
                self.bump();
                Ok(SqlExpr::StrLit(s))
            }
            Token::Param(i, t) => {
                self.bump();
                Ok(SqlExpr::Param(i, t))
            }
            Token::Ident(s) if s.eq_ignore_ascii_case("CAST") => {
                self.bump();
                self.expect(Token::LParen)?;
                self.expect_kw("NULL")?;
                self.expect_kw("AS")?;
                let t = self.data_type()?;
                self.expect(Token::RParen)?;
                Ok(SqlExpr::Null(t))
            }
            Token::Ident(_) => {
                let first = self.ident()?;
                if *self.peek() == Token::Dot {
                    self.bump();
                    let name = self.ident()?;
                    Ok(SqlExpr::ColRef {
                        qualifier: Some(first),
                        name,
                    })
                } else {
                    Ok(SqlExpr::ColRef {
                        qualifier: None,
                        name: first,
                    })
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    fn data_type(&mut self) -> Result<DataType, EngineError> {
        for (kw, t) in [
            ("INT", DataType::Int),
            ("INTEGER", DataType::Int),
            ("FLOAT", DataType::Float),
            ("DOUBLE", DataType::Float),
            ("VARCHAR", DataType::Str),
            ("TEXT", DataType::Str),
        ] {
            if self.eat_kw(kw) {
                return Ok(t);
            }
        }
        Err(self.err(format!("expected data type, found {:?}", self.peek())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let q = parse("SELECT s.suppkey AS k FROM Supplier s WHERE s.suppkey > 2").unwrap();
        assert_eq!(q.branches.len(), 1);
        let s = &q.branches[0];
        assert_eq!(s.items.len(), 1);
        assert_eq!(s.items[0].alias.as_deref(), Some("k"));
        assert_eq!(s.where_.len(), 1);
    }

    #[test]
    fn parse_comma_joins_and_where() {
        let q = parse(
            "SELECT s.suppkey, p.name FROM Supplier s, PartSupp ps, Part p \
             WHERE s.suppkey = ps.suppkey AND ps.partkey = p.partkey",
        )
        .unwrap();
        let s = &q.branches[0];
        assert_eq!(s.from.len(), 3);
        assert_eq!(s.where_.len(), 2);
        assert!(s.items[0].alias.is_none());
    }

    #[test]
    fn parse_left_outer_join_with_subquery() {
        let q = parse(
            "SELECT s.suppkey AS a, q.pname AS b FROM Supplier s \
             LEFT OUTER JOIN (SELECT ps.suppkey AS sk, p.name AS pname \
             FROM PartSupp ps, Part p WHERE ps.partkey = p.partkey) AS q \
             ON s.suppkey = q.sk ORDER BY a",
        )
        .unwrap();
        let s = &q.branches[0];
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].kind, JoinKind::LeftOuter);
        assert!(matches!(s.joins[0].item, FromItem::Subquery { .. }));
        assert_eq!(q.order_by, vec!["a"]);
    }

    #[test]
    fn parse_union_all_flattens() {
        let q = parse(
            "(SELECT 1 AS L FROM Region) UNION ALL (SELECT 2 AS L FROM Region) \
             UNION ALL (SELECT 3 AS L FROM Region) ORDER BY L",
        )
        .unwrap();
        assert_eq!(q.branches.len(), 3);
        assert_eq!(q.order_by, vec!["L"]);
    }

    #[test]
    fn parse_cast_null() {
        let q = parse("SELECT CAST(NULL AS VARCHAR) AS x FROM Region").unwrap();
        assert_eq!(q.branches[0].items[0].expr, SqlExpr::Null(DataType::Str));
    }

    #[test]
    fn parse_distinct() {
        let q = parse("SELECT DISTINCT r.name FROM Region r").unwrap();
        assert!(q.branches[0].distinct);
    }

    #[test]
    fn implicit_alias_without_as() {
        let q = parse("SELECT r.name nm FROM Region r").unwrap();
        assert_eq!(q.branches[0].items[0].alias.as_deref(), Some("nm"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a FROM").is_err());
        assert!(parse("SELECT a FROM t WHERE a ~ b").is_err());
        assert!(parse("SELECT a FROM t extra garbage ON").is_err());
        assert!(
            parse("SELECT a FROM (SELECT b FROM t ORDER BY b) UNION ALL SELECT c FROM u").is_err()
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse("select r.name from Region r order by name").unwrap();
        assert_eq!(q.order_by, vec!["name"]);
    }

    #[test]
    fn inner_join_keyword() {
        let q = parse("SELECT a.x FROM A a INNER JOIN B b ON a.x = b.x").unwrap();
        assert_eq!(q.branches[0].joins[0].kind, JoinKind::Inner);
        let q2 = parse("SELECT a.x FROM A a JOIN B b ON a.x = b.x").unwrap();
        assert_eq!(q2.branches[0].joins[0].kind, JoinKind::Inner);
    }
}
