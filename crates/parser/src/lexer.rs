//! Hand-written streaming lexer for the Vadalog surface syntax.
//!
//! [`Lexer`] reads the source bytes on demand, one token per
//! [`Lexer::next_token`] call — the parser never looks more than one token
//! ahead, so no token list of the whole input is ever built. Identifiers
//! borrow from the source, and so do string literals without an escape.
//! Positions are 1-based lines and columns; columns count chars, not bytes.

use crate::error::ParseError;
use std::borrow::Cow;
use std::fmt;

/// A lexical token, borrowing from the source text.
#[derive(Clone, PartialEq, Debug)]
pub enum Token<'a> {
    /// Identifier (predicate, variable or keyword).
    Ident(&'a str),
    /// String literal (without the quotes), borrowed unless it holds an
    /// escape.
    Str(Cow<'a, str>),
    /// Integer literal: the magnitude, at most 2^63. A leading `-` is its
    /// own token; the parser negates with a checked conversion, so
    /// `-9223372036854775808` reads as `i64::MIN` while the bare magnitude
    /// is out of range.
    Int(u64),
    /// Float literal.
    Float(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `->`
    Arrow,
    /// `:-`
    ColonDash,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%` (only where it cannot start a comment, i.e. we treat `%` at
    /// token position as modulo when it follows a value-like token)
    Percent,
    /// `^`
    Caret,
    /// `@`
    At,
    /// `#`
    Hash,
    /// `!`
    Bang,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// End of input.
    Eof,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Arrow => write!(f, "->"),
            Token::ColonDash => write!(f, ":-"),
            Token::Assign => write!(f, "="),
            Token::EqEq => write!(f, "=="),
            Token::Neq => write!(f, "!="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Caret => write!(f, "^"),
            Token::At => write!(f, "@"),
            Token::Hash => write!(f, "#"),
            Token::Bang => write!(f, "!"),
            Token::AndAnd => write!(f, "&&"),
            Token::OrOr => write!(f, "||"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token together with its source position (1-based line / column).
#[derive(Clone, PartialEq, Debug)]
pub struct SpannedToken<'a> {
    /// The token.
    pub token: Token<'a>,
    /// 1-based line.
    pub line: usize,
    /// 1-based column, in chars.
    pub column: usize,
}

/// A streaming lexer over a source string.
///
/// Comments start with `%` or `//` and run to end of line. A `%` is treated
/// as the modulo operator instead when it directly follows a value-producing
/// token (number, identifier, string, `)`), which is how `w % 2` and
/// `% comment` coexist.
pub struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next unread char.
    pos: usize,
    line: usize,
    column: usize,
    /// Did the last token produce a value (so a `%` is modulo)?
    after_value: bool,
}

impl<'a> Lexer<'a> {
    /// A lexer positioned at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            column: 1,
            after_value: false,
        }
    }

    fn byte_at(&self, i: usize) -> Option<u8> {
        self.src.as_bytes().get(i).copied()
    }

    /// The char at the read position (the input is not exhausted).
    fn char_here(&self) -> char {
        self.src[self.pos..]
            .chars()
            .next()
            .expect("input not exhausted")
    }

    /// Step over one byte, counting a line at `\n` and a column at every
    /// byte that starts a char.
    fn step_byte(&mut self) {
        let b = self.src.as_bytes()[self.pos];
        if b == b'\n' {
            self.line += 1;
            self.column = 1;
        } else if b & 0xC0 != 0x80 {
            self.column += 1;
        }
        self.pos += 1;
    }

    /// Step over one whole char.
    fn step_char(&mut self) -> char {
        let c = self.char_here();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        self.pos += c.len_utf8();
        c
    }

    /// Step over `n` ASCII non-newline bytes.
    fn step_ascii(&mut self, n: usize) {
        self.pos += n;
        self.column += n;
    }

    /// Lex the next token. At the end of the input every call returns
    /// [`Token::Eof`].
    pub fn next_token(&mut self) -> Result<SpannedToken<'a>, ParseError> {
        loop {
            let Some(b) = self.byte_at(self.pos) else {
                return Ok(SpannedToken {
                    token: Token::Eof,
                    line: self.line,
                    column: self.column,
                });
            };
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.step_byte(),
                b'%' if !self.after_value => self.skip_line(),
                b'/' if self.byte_at(self.pos + 1) == Some(b'/') => self.skip_line(),
                _ => break,
            }
        }
        let (line, column) = (self.line, self.column);
        let b = self.src.as_bytes()[self.pos];
        let token = match b {
            b'"' => self.string(line, column)?,
            b'0'..=b'9' => self.number(line, column)?,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
            0x80.. if self.char_here().is_alphabetic() => self.ident(),
            _ => self.operator(line, column)?,
        };
        self.after_value = matches!(
            token,
            Token::Ident(_) | Token::Int(_) | Token::Float(_) | Token::Str(_) | Token::RParen
        );
        Ok(SpannedToken {
            token,
            line,
            column,
        })
    }

    /// Skip a comment up to (not including) the end of its line.
    fn skip_line(&mut self) {
        while self.byte_at(self.pos).is_some_and(|b| b != b'\n') {
            self.step_byte();
        }
    }

    fn string(&mut self, line: usize, column: usize) -> Result<Token<'a>, ParseError> {
        self.step_ascii(1);
        let start = self.pos;
        // Unescaped text since the last escape; `owned` holds everything
        // before it once the literal has an escape.
        let mut run = start;
        let mut owned: Option<String> = None;
        while let Some(b) = self.byte_at(self.pos) {
            match b {
                b'"' => {
                    let text = match owned {
                        None => Cow::Borrowed(&self.src[start..self.pos]),
                        Some(mut s) => {
                            s.push_str(&self.src[run..self.pos]);
                            Cow::Owned(s)
                        }
                    };
                    self.step_ascii(1);
                    return Ok(Token::Str(text));
                }
                b'\\' if self.pos + 1 < self.src.len() => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.src[run..self.pos]);
                    self.step_ascii(1);
                    s.push(match self.step_char() {
                        'n' => '\n',
                        't' => '\t',
                        other => other,
                    });
                    run = self.pos;
                }
                _ => self.step_byte(),
            }
        }
        Err(ParseError::new("unterminated string literal", line, column))
    }

    fn number(&mut self, line: usize, column: usize) -> Result<Token<'a>, ParseError> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.byte_at(self.pos) {
            let fraction = b == b'.'
                && !is_float
                && self
                    .byte_at(self.pos + 1)
                    .is_some_and(|d| d.is_ascii_digit());
            if !b.is_ascii_digit() && !fraction {
                break;
            }
            is_float |= fraction;
            self.step_ascii(1);
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse()
                .map(Token::Float)
                .map_err(|_| ParseError::new(format!("invalid float literal {text}"), line, column))
        } else {
            // Magnitudes up to 2^63, the magnitude of `i64::MIN`.
            match text.parse::<u64>() {
                Ok(magnitude) if magnitude <= 1 << 63 => Ok(Token::Int(magnitude)),
                _ => Err(ParseError::new(
                    format!("invalid integer literal {text}"),
                    line,
                    column,
                )),
            }
        }
    }

    fn ident(&mut self) -> Token<'a> {
        let start = self.pos;
        while let Some(b) = self.byte_at(self.pos) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.step_ascii(1);
            } else if b >= 0x80 && self.char_here().is_alphanumeric() {
                self.step_char();
            } else {
                break;
            }
        }
        Token::Ident(&self.src[start..self.pos])
    }

    fn operator(&mut self, line: usize, column: usize) -> Result<Token<'a>, ParseError> {
        let two = match (self.src.as_bytes()[self.pos], self.byte_at(self.pos + 1)) {
            (b'-', Some(b'>')) => Some(Token::Arrow),
            (b':', Some(b'-')) => Some(Token::ColonDash),
            (b'=', Some(b'=')) => Some(Token::EqEq),
            (b'!', Some(b'=')) => Some(Token::Neq),
            (b'<', Some(b'=')) => Some(Token::Le),
            (b'>', Some(b'=')) => Some(Token::Ge),
            (b'&', Some(b'&')) => Some(Token::AndAnd),
            (b'|', Some(b'|')) => Some(Token::OrOr),
            _ => None,
        };
        if let Some(token) = two {
            self.step_ascii(2);
            return Ok(token);
        }
        let token = match self.char_here() {
            '(' => Token::LParen,
            ')' => Token::RParen,
            ',' => Token::Comma,
            '.' => Token::Dot,
            '=' => Token::Assign,
            '<' => Token::Lt,
            '>' => Token::Gt,
            '+' => Token::Plus,
            '-' => Token::Minus,
            '*' => Token::Star,
            '/' => Token::Slash,
            '%' => Token::Percent,
            '^' => Token::Caret,
            '@' => Token::At,
            '#' => Token::Hash,
            '!' => Token::Bang,
            '[' => Token::LBracket,
            ']' => Token::RBracket,
            other => {
                return Err(ParseError::new(
                    format!("unexpected character '{other}'"),
                    line,
                    column,
                ))
            }
        };
        self.step_ascii(1);
        Ok(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `src` up to and including `Eof`.
    fn toks(src: &str) -> Vec<Token<'_>> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lexer.next_token().unwrap().token;
            let end = t == Token::Eof;
            out.push(t);
            if end {
                return out;
            }
        }
    }

    /// The first lexical error of `src`.
    fn lex_error(src: &str) -> ParseError {
        let mut lexer = Lexer::new(src);
        loop {
            match lexer.next_token() {
                Err(e) => return e,
                Ok(t) => assert_ne!(t.token, Token::Eof, "no lexical error in {src:?}"),
            }
        }
    }

    #[test]
    fn lexes_a_simple_rule() {
        let t = toks("Own(x, y, w), w > 0.5 -> Control(x, y).");
        assert!(t.contains(&Token::Ident("Own")));
        assert!(t.contains(&Token::Arrow));
        assert!(t.contains(&Token::Float(0.5)));
        assert!(t.contains(&Token::Gt));
        assert_eq!(*t.last().unwrap(), Token::Eof);
    }

    #[test]
    fn percent_is_comment_at_line_start_but_modulo_after_value() {
        let t = toks("% a comment line\nP(x).");
        assert_eq!(t[0], Token::Ident("P"));
        let t2 = toks("x % 2");
        assert_eq!(t2[1], Token::Percent);
    }

    #[test]
    fn double_slash_comments_are_skipped() {
        let t = toks("// comment\nQ(y).");
        assert_eq!(t[0], Token::Ident("Q"));
    }

    #[test]
    fn strings_support_escapes() {
        let t = toks(r#"P("a\"b", "line\nbreak")."#);
        assert!(t.contains(&Token::Str("a\"b".into())));
        assert!(t.contains(&Token::Str("line\nbreak".into())));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = lex_error("P(\"oops");
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn numbers_and_dots_disambiguate() {
        // "P(1)." must not read "1." as a float.
        let t = toks("P(1).");
        assert_eq!(t[2], Token::Int(1));
        assert_eq!(t[4], Token::Dot);
        let t2 = toks("w >= 0.25");
        assert_eq!(t2[2], Token::Float(0.25));
    }

    #[test]
    fn positions_are_tracked() {
        let mut lexer = Lexer::new("P(x).\nQ(y).");
        let q = std::iter::from_fn(|| lexer.next_token().ok())
            .find(|t| t.token == Token::Ident("Q"))
            .unwrap();
        assert_eq!(q.line, 2);
        assert_eq!(q.column, 1);
    }

    #[test]
    fn two_char_operators() {
        let t = toks("a :- b, c != d, e <= f, g >= h, i == j.");
        assert!(t.contains(&Token::ColonDash));
        assert!(t.contains(&Token::Neq));
        assert!(t.contains(&Token::Le));
        assert!(t.contains(&Token::Ge));
        assert!(t.contains(&Token::EqEq));
    }

    #[test]
    fn unexpected_character_is_reported_with_position() {
        let err = lex_error("P(x) ; Q(y)");
        assert!(err.message.contains("unexpected character"));
        assert_eq!(err.line, 1);
    }
}
