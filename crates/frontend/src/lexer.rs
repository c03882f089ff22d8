//! A shared hand-rolled lexer for the mini query languages.

use pspp_common::{Error, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Bare word (keywords are matched case-insensitively on these).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(String),
    /// Punctuation / operator: `( ) , . * = != < <= > >= - > [ ] :`.
    Sym(String),
}

impl Token {
    /// Case-insensitive keyword check.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Splits `input` into tokens.
///
/// # Errors
///
/// Returns [`Error::Parse`] on unterminated strings or stray characters.
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Token::Ident(chars[start..i].iter().collect()));
        } else if c.is_ascii_digit()
            || (c == '-' && chars.get(i + 1).is_some_and(char::is_ascii_digit))
        {
            let start = i;
            i += 1; // consume digit or minus
            let mut is_float = false;
            while i < chars.len() && (chars[i].is_ascii_digit() || (chars[i] == '.' && !is_float)) {
                if chars[i] == '.' {
                    // `1.` followed by non-digit is a qualified name, not a float.
                    if !chars.get(i + 1).is_some_and(char::is_ascii_digit) {
                        break;
                    }
                    is_float = true;
                }
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            if is_float {
                out.push(Token::Float(text.parse().map_err(|_| {
                    Error::Parse(format!("bad float literal {text}"))
                })?));
            } else {
                out.push(Token::Int(
                    text.parse()
                        .map_err(|_| Error::Parse(format!("bad int literal {text}")))?,
                ));
            }
        } else if c == '\'' {
            let start = i + 1;
            i += 1;
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            if i >= chars.len() {
                return Err(Error::Parse("unterminated string literal".into()));
            }
            out.push(Token::Str(chars[start..i].iter().collect()));
            i += 1;
        } else {
            // Multi-char operators first.
            let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            if two == "!=" || two == "<=" || two == ">=" || two == "->" {
                out.push(Token::Sym(two));
                i += 2;
            } else if "(),.*=<>[]:-".contains(c) {
                out.push(Token::Sym(c.to_string()));
                i += 1;
            } else {
                return Err(Error::Parse(format!("unexpected character {c:?}")));
            }
        }
    }
    Ok(out)
}

/// A cursor over tokens with convenience matchers.
#[derive(Debug, Clone)]
pub struct Cursor {
    tokens: Vec<Token>,
    pos: usize,
}

impl Cursor {
    /// Wraps a token stream.
    pub fn new(tokens: Vec<Token>) -> Self {
        Cursor { tokens, pos: 0 }
    }

    /// The current token.
    pub fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    /// Advances and returns the consumed token.
    #[allow(clippy::should_implement_trait)] // cursor API, deliberately not an Iterator
    pub fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes a keyword (case-insensitive) if present; returns whether
    /// it did.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes a symbol if present; returns whether it did.
    pub fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Token::Sym(s)) if s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Requires a keyword.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when absent.
    pub fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    /// Requires a symbol.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when absent.
    pub fn expect_sym(&mut self, sym: &str) -> Result<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected {sym:?}, found {:?}",
                self.peek()
            )))
        }
    }

    /// Requires an identifier and returns it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when the next token is not an identifier.
    pub fn expect_ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(Error::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// Requires an integer literal.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when the next token is not an integer.
    pub fn expect_int(&mut self) -> Result<i64> {
        match self.next() {
            Some(Token::Int(v)) => Ok(v),
            other => Err(Error::Parse(format!("expected integer, found {other:?}"))),
        }
    }

    /// Requires a numeric literal (int or float) as f64.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when the next token is not numeric.
    pub fn expect_number(&mut self) -> Result<f64> {
        match self.next() {
            Some(Token::Int(v)) => Ok(v as f64),
            Some(Token::Float(v)) => Ok(v),
            other => Err(Error::Parse(format!("expected number, found {other:?}"))),
        }
    }

    /// Whether all tokens were consumed.
    pub fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Fails unless the stream is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] listing the trailing token.
    pub fn expect_end(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "unexpected trailing input: {:?}",
                self.peek()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_mixed_input() {
        let ts = lex("SELECT a, b FROM t WHERE x >= 1.5 AND s = 'hi'").unwrap();
        assert!(ts.contains(&Token::Ident("SELECT".into())));
        assert!(ts.contains(&Token::Sym(">=".into())));
        assert!(ts.contains(&Token::Float(1.5)));
        assert!(ts.contains(&Token::Str("hi".into())));
    }

    #[test]
    fn negative_numbers_and_qualified_names() {
        let ts = lex("db1.t -5 -3.25").unwrap();
        assert_eq!(
            ts,
            vec![
                Token::Ident("db1".into()),
                Token::Sym(".".into()),
                Token::Ident("t".into()),
                Token::Int(-5),
                Token::Float(-3.25),
            ]
        );
    }

    #[test]
    fn arrow_and_brackets() {
        let ts = lex("(a:Person)-[:KNOWS]->(b)").unwrap();
        assert!(ts.contains(&Token::Sym("->".into())));
        assert!(ts.contains(&Token::Sym("[".into())));
        assert!(ts.contains(&Token::Sym(":".into())));
    }

    #[test]
    fn errors() {
        assert!(lex("'unterminated").is_err());
        assert!(lex("a ; b").is_err());
    }

    #[test]
    fn cursor_matchers() {
        let mut c = Cursor::new(lex("SELECT x LIMIT 5").unwrap());
        assert!(c.eat_kw("select"));
        assert_eq!(c.expect_ident().unwrap(), "x");
        assert!(!c.eat_kw("where"));
        c.expect_kw("LIMIT").unwrap();
        assert_eq!(c.expect_int().unwrap(), 5);
        c.expect_end().unwrap();
    }
}
