//! Statement shapes: the prepared-plan cache key. A shape is the token
//! stream with every literal that is a comparison operand against a column
//! (`col op lit` / `lit op col`) replaced by a typed slot (`?int`, `?float`,
//! `?str`) — the literals no planning pass looks at. Select-list constants,
//! `NULL`s and literal-vs-literal comparisons stay in the key verbatim, and
//! a literal of another class is another shape.

use sr_data::{DataType, Value};

use crate::error::EngineError;
use crate::sql::lexer::{lex, Spanned, Token};

/// A lexed statement with its slot literals lifted out.
pub(crate) struct Shape {
    /// The token text, slots in place of the lifted literals.
    pub key: String,
    /// The lifted literals, in slot order.
    pub params: Vec<Value>,
    /// The tokens, [`Token::Param`] in every slot.
    pub tokens: Vec<Spanned>,
}

/// Lex `sql` and lift out its slot literals.
pub(crate) fn shape(sql: &str) -> Result<Shape, EngineError> {
    let mut tokens = lex(sql)?;
    let mut params = Vec::new();
    for k in 0..tokens.len() {
        let (class, value) = match &tokens[k].token {
            Token::Int(i) if is_slot(&tokens, k) => (DataType::Int, Value::Int(*i)),
            Token::Float(x) if is_slot(&tokens, k) => (DataType::Float, Value::Float(*x)),
            Token::Str(s) if is_slot(&tokens, k) => (DataType::Str, Value::str(s)),
            _ => continue,
        };
        tokens[k].token = Token::Param(params.len(), class);
        params.push(value);
    }
    let key = render(sql, &tokens);
    Ok(Shape {
        key,
        params,
        tokens,
    })
}

/// The spelling of a slot of class `t`.
pub(crate) fn slot_name(t: DataType) -> &'static str {
    match t {
        DataType::Int => "?int",
        DataType::Float => "?float",
        DataType::Str => "?str",
    }
}

/// Is the token at `k` one side of a comparison whose other side is a
/// column reference (which ends in an identifier, and starts with one not
/// followed by `(` as `CAST(` is)?
fn is_slot(t: &[Spanned], k: usize) -> bool {
    let at = |i: usize| t.get(i).map(|s| &s.token);
    let cmp = |i| {
        matches!(
            at(i),
            Some(Token::Eq | Token::Ne | Token::Lt | Token::Le | Token::Gt | Token::Ge)
        )
    };
    let ident = |i| matches!(at(i), Some(Token::Ident(_)));
    (k >= 2 && cmp(k - 1) && ident(k - 2))
        || (cmp(k + 1) && ident(k + 2) && at(k + 3) != Some(&Token::LParen))
}

/// Each token's source text (its span up to the next token, trailing
/// whitespace trimmed), or its slot name, separated by single spaces.
fn render(src: &str, tokens: &[Spanned]) -> String {
    let mut out = String::with_capacity(src.len());
    for w in tokens.windows(2) {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(match w[0].token {
            Token::Param(_, t) => slot_name(t),
            _ => src.get(w[0].offset..w[1].offset).unwrap_or("").trim_end(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_operands_become_typed_slots() {
        let s = shape("SELECT 1 AS L1, p.name AS n FROM Part p WHERE p.name = 'a''b' AND 5 > p.k")
            .unwrap();
        assert_eq!(
            s.key,
            "SELECT 1 AS L1 , p . name AS n FROM Part p WHERE p . name = ?str AND ?int > p . k"
        );
        assert_eq!(s.params, vec![Value::str("a'b"), Value::Int(5)]);
    }

    #[test]
    fn constants_nulls_and_literal_pairs_stay_verbatim() {
        for (sql, key) in [
            (
                "SELECT t.x AS x FROM T t WHERE 1 = 1",
                "SELECT t . x AS x FROM T t WHERE 1 = 1",
            ),
            (
                "SELECT t.x AS x FROM T t WHERE 2 = CAST(NULL AS INT)",
                "SELECT t . x AS x FROM T t WHERE 2 = CAST ( NULL AS INT )",
            ),
            (
                "SELECT CAST(NULL AS INT) AS y FROM T t",
                "SELECT CAST ( NULL AS INT ) AS y FROM T t",
            ),
        ] {
            let s = shape(sql).unwrap();
            assert!(s.params.is_empty(), "{sql}");
            assert_eq!(s.key, key);
        }
    }

    #[test]
    fn literal_class_is_part_of_the_shape() {
        let key = |sql| shape(sql).unwrap().key;
        let int = key("SELECT t.x AS x FROM T t WHERE t.x < 5");
        assert_eq!(int, key("SELECT  t.x AS x\nFROM T t WHERE t.x < -9"));
        assert_ne!(int, key("SELECT t.x AS x FROM T t WHERE t.x < 5.5"));
        assert_ne!(int, key("SELECT t.x AS x FROM T t WHERE t.x < '5'"));
    }
}
