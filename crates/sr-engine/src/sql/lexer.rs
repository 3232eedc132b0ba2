//! SQL tokenizer.

use sr_data::DataType;

use crate::error::EngineError;

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (keywords are recognized case-insensitively by
    /// the parser; the original spelling is preserved).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (with `''` escapes resolved).
    Str(String),
    /// Parameter slot `i` of a literal type, put in by a statement's shape.
    Param(usize, DataType),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

/// A token plus its byte offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset in the source.
    pub offset: usize,
}

/// Tokenize SQL text.
pub fn lex(src: &str) -> Result<Vec<Spanned>, EngineError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push(Spanned {
                    token: Token::LParen,
                    offset: i,
                });
                i += 1;
            }
            ')' => {
                out.push(Spanned {
                    token: Token::RParen,
                    offset: i,
                });
                i += 1;
            }
            ',' => {
                out.push(Spanned {
                    token: Token::Comma,
                    offset: i,
                });
                i += 1;
            }
            '.' => {
                out.push(Spanned {
                    token: Token::Dot,
                    offset: i,
                });
                i += 1;
            }
            '=' => {
                out.push(Spanned {
                    token: Token::Eq,
                    offset: i,
                });
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Spanned {
                        token: Token::Ne,
                        offset: i,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Spanned {
                        token: Token::Le,
                        offset: i,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        token: Token::Lt,
                        offset: i,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Spanned {
                        token: Token::Ge,
                        offset: i,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        token: Token::Gt,
                        offset: i,
                    });
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Spanned {
                        token: Token::Ne,
                        offset: i,
                    });
                    i += 2;
                } else {
                    return Err(EngineError::Lex {
                        offset: i,
                        message: "unexpected '!'".into(),
                    });
                }
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(EngineError::Lex {
                                offset: start,
                                message: "unterminated string literal".into(),
                            });
                        }
                        Some(b'\'') => {
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            // Collect one UTF-8 code point.
                            let ch_len = utf8_len(b);
                            s.push_str(&src[i..i + ch_len]);
                            i += ch_len;
                        }
                    }
                }
                out.push(Spanned {
                    token: Token::Str(s),
                    offset: start,
                });
            }
            '0'..='9' | '-' => {
                let start = i;
                if c == '-' {
                    i += 1;
                    if !matches!(bytes.get(i), Some(b'0'..=b'9')) {
                        return Err(EngineError::Lex {
                            offset: start,
                            message: "expected digit after '-'".into(),
                        });
                    }
                }
                while matches!(bytes.get(i), Some(b'0'..=b'9')) {
                    i += 1;
                }
                let mut is_float = false;
                if bytes.get(i) == Some(&b'.') && matches!(bytes.get(i + 1), Some(b'0'..=b'9')) {
                    is_float = true;
                    i += 1;
                    while matches!(bytes.get(i), Some(b'0'..=b'9')) {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                let token = if is_float {
                    Token::Float(text.parse().map_err(|e| EngineError::Lex {
                        offset: start,
                        message: format!("bad float {text}: {e}"),
                    })?)
                } else {
                    Token::Int(text.parse().map_err(|e| EngineError::Lex {
                        offset: start,
                        message: format!("bad integer {text}: {e}"),
                    })?)
                };
                out.push(Spanned {
                    token,
                    offset: start,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_alphanumeric() || b == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Spanned {
                    token: Token::Ident(src[start..i].to_string()),
                    offset: start,
                });
            }
            other => {
                return Err(EngineError::Lex {
                    offset: i,
                    message: format!("unexpected character {other:?}"),
                });
            }
        }
    }
    out.push(Spanned {
        token: Token::Eof,
        offset: src.len(),
    });
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn keywords_and_symbols() {
        assert_eq!(
            toks("SELECT a.b, 1 FROM t"),
            vec![
                Token::Ident("SELECT".into()),
                Token::Ident("a".into()),
                Token::Dot,
                Token::Ident("b".into()),
                Token::Comma,
                Token::Int(1),
                Token::Ident("FROM".into()),
                Token::Ident("t".into()),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("a = b <> c <= d >= e < f > g != h"),
            vec![
                Token::Ident("a".into()),
                Token::Eq,
                Token::Ident("b".into()),
                Token::Ne,
                Token::Ident("c".into()),
                Token::Le,
                Token::Ident("d".into()),
                Token::Ge,
                Token::Ident("e".into()),
                Token::Lt,
                Token::Ident("f".into()),
                Token::Gt,
                Token::Ident("g".into()),
                Token::Ne,
                Token::Ident("h".into()),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(toks("'it''s'"), vec![Token::Str("it's".into()), Token::Eof]);
        assert!(lex("'unterminated").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 -7 3.5 -0.25"),
            vec![
                Token::Int(42),
                Token::Int(-7),
                Token::Float(3.5),
                Token::Float(-0.25),
                Token::Eof
            ]
        );
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(toks("'café'"), vec![Token::Str("café".into()), Token::Eof]);
    }

    #[test]
    fn errors_carry_offsets() {
        match lex("SELECT @") {
            Err(EngineError::Lex { offset, .. }) => assert_eq!(offset, 7),
            other => panic!("expected lex error, got {other:?}"),
        }
    }
}
