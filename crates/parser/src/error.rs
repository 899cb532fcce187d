//! Parse errors with source positions.

use std::fmt;

/// A lexing or parsing error, with the 1-based line and column where it was
/// detected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// What kind of error this is.
    pub kind: ParseErrorKind,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

/// The kinds of [`ParseError`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseErrorKind {
    /// The text does not follow the grammar.
    Syntax,
    /// A rule places a monotonic aggregation anywhere but as the whole
    /// right-hand side of an assignment `z = maggr(x, <c̄>)` — the only form
    /// whose value the engine can emit as the aggregate of a group.
    /// `rule` is the offending rule as printed.
    MisplacedAggregate {
        /// The rule, in surface syntax.
        rule: String,
    },
}

impl ParseError {
    /// Build a [`ParseErrorKind::Syntax`] error at a position.
    pub fn new(message: impl Into<String>, line: usize, column: usize) -> Self {
        ParseError {
            kind: ParseErrorKind::Syntax,
            message: message.into(),
            line,
            column,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = ParseError::new("unexpected token", 3, 14);
        assert_eq!(e.to_string(), "parse error at 3:14: unexpected token");
    }
}
