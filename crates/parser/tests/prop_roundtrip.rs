//! Property-based tests for the parser and pretty printer.
//!
//! The key invariant is the round trip: for every program a user could
//! write (rules, inline facts over the basic data types, annotations), the
//! pretty-printed text parses back to an equal program. This is what lets
//! the workload generators, the rewriting passes and the CLI move programs
//! between the textual and the structured representation freely.

use proptest::prelude::*;
use vadalog_model::prelude::*;
use vadalog_parser::{parse_program, program_to_text};

// ---------------------------------------------------------------- strategies

/// Predicate names: capitalised identifiers from a small pool plus random
/// alphanumeric suffixes.
fn predicate_name() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec![
            "Own",
            "Control",
            "PSC",
            "Company",
            "KeyPerson",
            "Edge",
        ]),
        0u32..50,
    )
        .prop_map(|(base, n)| {
            if n < 25 {
                base.to_string()
            } else {
                format!("{base}{n}")
            }
        })
}

/// Variable names: lowercase identifiers.
fn variable_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["x", "y", "z", "w", "p", "s", "comp1", "v2"]).prop_map(str::to_string)
}

/// Constant values restricted to the types whose surface form is a clean
/// round trip (strings without quotes/backslashes, integers, whole-float,
/// booleans).
fn constant_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        prop::sample::select(vec!["hsbc", "iba", "alice", "bob", "acme corp", "x-1"])
            .prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
        (-100i64..100).prop_map(|i| Value::Float(i as f64 / 4.0)),
    ]
}

/// A term: mostly variables, sometimes constants.
fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => variable_name().prop_map(|v| Term::var(&v)),
        1 => constant_value().prop_map(Term::Const),
    ]
}

fn atom() -> impl Strategy<Value = Atom> {
    (predicate_name(), prop::collection::vec(term(), 1..4)).prop_map(|(p, terms)| Atom {
        predicate: intern(&p),
        terms,
    })
}

/// Rules whose head variables all occur in the body would be plain Datalog;
/// we deliberately allow head-only variables too so existential rules are
/// covered by the round trip.
fn rule() -> impl Strategy<Value = Rule> {
    (
        prop::collection::vec(atom(), 1..4),
        prop::collection::vec(atom(), 1..3),
    )
        .prop_map(|(body, head)| Rule::tgd(body, head))
}

fn ground_fact() -> impl Strategy<Value = Fact> {
    (
        predicate_name(),
        prop::collection::vec(constant_value(), 1..4),
    )
        .prop_map(|(p, args)| Fact::new(&p, args))
}

fn annotation() -> impl Strategy<Value = Annotation> {
    (
        prop::sample::select(vec![AnnotationKind::Input, AnnotationKind::Output]),
        predicate_name(),
    )
        .prop_map(|(kind, p)| Annotation::new(kind, &p, Vec::new()))
}

fn program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(rule(), 0..6),
        prop::collection::vec(ground_fact(), 0..6),
        prop::collection::vec(annotation(), 0..3),
    )
        .prop_map(|(rules, facts, annotations)| Program {
            rules,
            facts,
            annotations,
        })
}

/// Every ground value with a surface form: integers including both `i64`
/// bounds, negative and whole-number floats, strings holding `"`, `\\` and
/// line breaks, identifier-like strings (`true` and `false` among them) and
/// booleans.
fn any_ground_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        prop::sample::select(vec![
            i64::MIN,
            i64::MIN + 1,
            -1,
            0,
            1,
            i64::MAX - 1,
            i64::MAX
        ])
        .prop_map(Value::Int),
        any::<i64>().prop_map(Value::Int),
        (-1_000_000i64..1_000_000).prop_map(|i| Value::Float(i as f64 / 8.0)),
        (-50i64..50).prop_map(|i| Value::Float(i as f64)),
        prop::sample::select(vec![-1e300, -2.5e-7, 1e21, 0.1, -0.0]).prop_map(Value::Float),
        prop::sample::select(vec![
            "",
            "HSBC",
            "c_12",
            "true",
            "false",
            "Città",
            "quote \" inside",
            "back\\slash",
            "\\\"",
            "two\nlines",
            "tab\tand % not a comment // either",
            "ends with backslash \\",
        ])
        .prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Programs of ground facts only.
fn ground_facts_program() -> impl Strategy<Value = Program> {
    prop::collection::vec(
        (
            predicate_name(),
            prop::collection::vec(any_ground_value(), 0..5),
        )
            .prop_map(|(p, args)| Fact::new(&p, args)),
        0..12,
    )
    .prop_map(|facts| Program {
        rules: Vec::new(),
        facts,
        annotations: Vec::new(),
    })
}

/// A string value the parser also reads when written bare: an identifier
/// other than the boolean keywords.
fn bare_identifier(v: &Value) -> Option<&str> {
    let Value::Str(s) = v else { return None };
    let mut chars = s.chars();
    let first = chars.next()?;
    let ident = (first.is_alphabetic() || first == '_')
        && chars.all(|c| c.is_alphanumeric() || c == '_')
        && !matches!(&**s, "true" | "false");
    ident.then_some(&**s)
}

// ----------------------------------------------------------------- properties

proptest! {
    /// Pretty-print → parse is the identity on generated programs.
    #[test]
    fn pretty_parse_roundtrip(p in program()) {
        let text = program_to_text(&p);
        let reparsed = parse_program(&text)
            .unwrap_or_else(|e| panic!("pretty output failed to parse: {e}\n{text}"));
        prop_assert_eq!(&reparsed.rules, &p.rules, "rules changed\n{}", text);
        prop_assert_eq!(&reparsed.facts, &p.facts, "facts changed\n{}", text);
        prop_assert_eq!(&reparsed.annotations, &p.annotations, "annotations changed\n{}", text);
    }

    /// Round-tripping twice is the same as round-tripping once (the printer
    /// output is a fixpoint).
    #[test]
    fn pretty_is_fixpoint(p in program()) {
        let once = program_to_text(&p);
        let reparsed = parse_program(&once).unwrap();
        let twice = program_to_text(&reparsed);
        prop_assert_eq!(once, twice);
    }

    /// The parser accepts arbitrary whitespace and comments between
    /// statements without changing the result.
    #[test]
    fn whitespace_and_comments_are_ignored(p in program(), padding in 0usize..4) {
        let text = program_to_text(&p);
        let mut noisy = String::new();
        for line in text.lines() {
            for _ in 0..padding {
                noisy.push_str("  \n% a comment line\n");
            }
            noisy.push_str("   ");
            noisy.push_str(line);
            noisy.push('\n');
        }
        let reparsed = parse_program(&noisy)
            .unwrap_or_else(|e| panic!("noisy text failed to parse: {e}\n{noisy}"));
        prop_assert_eq!(reparsed.rules, p.rules);
        prop_assert_eq!(reparsed.facts, p.facts);
    }

    /// Every generated rule also parses in isolation through rule_to_text.
    #[test]
    fn single_rule_roundtrip(r in rule()) {
        let text = vadalog_parser::rule_to_text(&r);
        let program = parse_program(&text).unwrap();
        prop_assert_eq!(program.rules.len(), 1);
        prop_assert_eq!(&program.rules[0], &r);
    }

    /// Facts with string arguments containing quotes or backslashes survive
    /// the round trip thanks to escaping in the printer.
    #[test]
    fn escaped_strings_roundtrip(
        p in predicate_name(),
        s in prop::sample::select(vec![r#"he said "hi""#, r"back\slash", r#"mix "q" and \b"#]),
    ) {
        let f = Fact::new(&p, vec![Value::str(s)]);
        let program = Program { rules: vec![], facts: vec![f.clone()], annotations: vec![] };
        let text = program_to_text(&program);
        let reparsed = parse_program(&text)
            .unwrap_or_else(|e| panic!("escaped text failed to parse: {e}\n{text}"));
        prop_assert_eq!(reparsed.facts, vec![f]);
    }

    /// `parse_program(program_to_text(p)) == p` for ground facts over every
    /// value with a surface form, and writing identifier-like strings bare
    /// reads back the same facts.
    #[test]
    fn ground_facts_roundtrip(p in ground_facts_program()) {
        let text = program_to_text(&p);
        let reparsed = parse_program(&text)
            .unwrap_or_else(|e| panic!("pretty output failed to parse: {e}\n{text}"));
        prop_assert_eq!(&reparsed, &p, "facts changed\n{}", text);
        let bare: String = p
            .facts
            .iter()
            .map(|f| {
                let args: Vec<String> = f
                    .args
                    .iter()
                    .map(|v| match bare_identifier(v) {
                        Some(ident) => ident.to_string(),
                        None => {
                            let one = Fact::new("X", vec![v.clone()]);
                            let text = vadalog_parser::fact_to_text(&one);
                            text["X(".len()..text.len() - ").".len()].to_string()
                        }
                    })
                    .collect();
                format!("{}({}).\n", f.predicate, args.join(", "))
            })
            .collect();
        let reparsed = parse_program(&bare)
            .unwrap_or_else(|e| panic!("bare identifiers failed to parse: {e}\n{bare}"));
        prop_assert_eq!(&reparsed.facts, &p.facts, "bare identifiers changed\n{}", bare);
    }

    /// Garbage that is not a valid program yields an error rather than a
    /// panic or a silent empty program.
    #[test]
    fn junk_never_panics(junk in "[a-zA-Z(),.>\\- ]{0,40}") {
        // must not panic; any Result is acceptable
        let _ = parse_program(&junk);
    }
}
