//! # vadalog-parser
//!
//! Lexer, recursive-descent parser and pretty printer for the Vadalog surface
//! syntax used throughout this reproduction.
//!
//! The grammar follows the notation of the paper, in ASCII:
//!
//! ```text
//! % comments start with '%' (or '//') and run to end of line
//!
//! @input("Own").
//! @output("Control").
//! @bind("Own", "csv:data/own.csv").
//!
//! Own("acme", "sub", 0.6).                         % a fact
//!
//! Own(x, y, w), w > 0.5 -> Control(x, y).          % body -> head
//! Control(x, z) :- Control(x, y), Own(y, z, w),
//!                  v = msum(w, <y>), v > 0.5.      % head :- body also works
//!
//! Company(x) -> Owns(p, s, x).                     % p, s implicitly existential
//! Own(x, x, w) -> false.                           % negative constraint
//! Incorp(y, z), Own(x1, y, w), Own(x2, z, w) -> x1 = x2.  % EGD
//! ```
//!
//! Bare identifiers in *rule* atoms are variables; in *facts* (ground
//! clauses with no arrow) they are read as string constants, so the paper's
//! `Company(HSBC).` works as written. Existential variables need no explicit
//! quantifier: every head variable not bound in the body is existential, as
//! in the paper's examples.

pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;

pub use error::{ParseError, ParseErrorKind};
pub use parser::{parse_program, parse_rule, Parser};
pub use pretty::{fact_to_text, program_to_text, rule_to_text};

/// Parse a full program from source text. Convenience alias of
/// [`parse_program`].
pub fn parse(src: &str) -> Result<vadalog_model::Program, ParseError> {
    parse_program(src)
}
