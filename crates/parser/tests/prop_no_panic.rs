//! The parser never panics: on any input — random strings over an alphabet
//! with multi-byte characters, byte-level mutations of a valid program,
//! truncations — `parse_program` and `parse_rule` return `Ok` or a typed
//! `ParseError` whose position lies inside the input.

use proptest::prelude::*;
use vadalog_parser::{parse_program, parse_rule, ParseError, ParseErrorKind};

/// A valid program touching every token class, multi-byte identifiers and
/// strings included.
const PROGRAM: &str = "% a comment\n\
    @input(\"Own\"). @output(\"Città\").\n\
    Own(\"a\", \"b\", 0.6). Own(HSBC, IBA, -3). P(-9223372036854775808). S(\"x\\\"y\\\\z\\nw\").\n\
    Own(x, y, w), w > 0.5, not Closed(y) -> Città(x, y). // trailing comment\n\
    Città(x, y), Own(y, z, w), v = msum(w, <y>), v % 2 != 1, v >= 2.5, t = v || w && v -> Città(x, z).\n\
    Q(x, w) :- P(x), w = #f(x) ^ 2 * -1, !R(x).\n\
    Own(x, x, w) -> false. Ü(x), Ü(y) -> x = y.";

/// Characters mixing the grammar's punctuation with multi-byte UTF-8.
fn alphabet() -> Vec<char> {
    "aZ_09 \t\n().,:-><=!&|%/\"\\@#^*+[]àüÜé€→²日🦀\u{FFFD}"
        .chars()
        .collect()
}

/// `err` points at a position inside `src`: a line that exists, and a
/// column at most one past that line's last char.
fn assert_in_bounds(src: &str, err: &ParseError) {
    let lines: Vec<&str> = src.split('\n').collect();
    assert!(
        err.line >= 1 && err.line <= lines.len(),
        "line {} outside {src:?}",
        err.line
    );
    let width = lines[err.line - 1].chars().count();
    assert!(
        err.column >= 1 && err.column <= width + 1,
        "column {} outside line {} of {src:?}",
        err.column,
        err.line
    );
}

/// Parse `src` both ways; only typed errors are allowed.
fn parses_or_fails_cleanly(src: &str) {
    if let Err(e) = parse_program(src) {
        assert_in_bounds(src, &e);
    }
    if let Err(e) = parse_rule(src) {
        assert_in_bounds(src, &e);
    }
}

#[test]
fn the_seed_program_parses() {
    let p = parse_program(PROGRAM).unwrap();
    assert_eq!(p.rules.len(), 5);
    assert_eq!(p.facts.len(), 4);
}

#[test]
fn edge_inputs_return_typed_results() {
    for src in [
        "",
        "-",
        "P(-",
        "P(-x).",
        "%",
        "//",
        "P(1). %",
        "P(1). //",
        "P(1). % comment without newline",
        "\"",
        "P(\"unterminated",
        "P(\"ends in backslash\\",
        "Città(x) -> Ü(x).",
        "Città(\"日本\", x) -> Ü(x).",
        "€",
        "P(1) ; Q(2).",
        "P(9223372036854775808).",
        "P(-9223372036854775809).",
        "P(x), y = -9223372036854775808 -> Q(y).",
        "1.2.3",
        "@",
        "@output(",
    ] {
        parses_or_fails_cleanly(src);
    }
    let err = parse_program("P(\"oops").unwrap_err();
    assert_eq!((err.line, err.column), (1, 3));
    assert_eq!(err.kind, ParseErrorKind::Syntax);
    let err = parse_program("Città(x) -> Ü(x). P(€).").unwrap_err();
    assert_eq!((err.line, err.column), (1, 21), "columns count chars");
    let err = parse_program("S(\"ü\nü\"). P(€).").unwrap_err();
    assert_eq!((err.line, err.column), (2, 8), "lines count inside strings");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn random_strings_never_panic(
        chars in prop::collection::vec(prop::sample::select(alphabet()), 0..60),
    ) {
        let src: String = chars.into_iter().collect();
        parses_or_fails_cleanly(&src);
    }

    #[test]
    fn byte_mutations_of_a_valid_program_never_panic(
        edits in prop::collection::vec((0usize..PROGRAM.len(), 0u8..4, any::<u8>()), 1..6),
    ) {
        let mut bytes = PROGRAM.as_bytes().to_vec();
        for (at, kind, byte) in edits {
            let at = at.min(bytes.len().saturating_sub(1));
            match kind {
                0 if !bytes.is_empty() => {
                    bytes.remove(at);
                }
                1 => bytes.insert(at, byte),
                2 if !bytes.is_empty() => bytes[at] = byte,
                _ => bytes.truncate(at),
            }
        }
        // Invalid UTF-8 becomes U+FFFD, a multi-byte char the lexer must
        // step over whole.
        let src = String::from_utf8_lossy(&bytes);
        parses_or_fails_cleanly(&src);
    }
}
