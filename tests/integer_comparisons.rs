//! Integer comparisons past 2^53: an `f64` holds every integer only up to
//! 2^53, so a comparison that rounds both sides can call two different
//! integers equal. Each program here compares values whose rounded forms
//! tie, on every path a comparison runs: a guard on the delta scan, a
//! range probe with a variable bound, a range probe with a constant bound,
//! and a residual condition on an assigned value.
//!
//! The constants are used by no other test: the interner is process-wide
//! and keeps the first representation of a number it sees.

use std::collections::BTreeSet;
use vadalog::engine::JoinStrategy;
use vadalog::{Reasoner, ReasonerOptions};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;

/// 2^53: the first integer past which `f64` skips integers.
const P53: i64 = 1 << 53;

/// The facts `src` derives for `predicate`, as a set (values compare
/// numerically, so an `Int` and the `Float` of the same number are one
/// value). Every join strategy at one and four workers must agree.
fn derive(src: &str, predicate: &str) -> BTreeSet<Fact> {
    let program = parse_program(src).unwrap();
    let mut answers = Vec::new();
    for join_strategy in [JoinStrategy::FreeJoin, JoinStrategy::Binary] {
        for parallelism in [1, 4] {
            let run = Reasoner::with_options(ReasonerOptions {
                join_strategy,
                parallelism,
                ..Default::default()
            })
            .reason(&program)
            .unwrap();
            answers.push(run.output(predicate));
        }
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
    answers.swap_remove(0).into_iter().collect()
}

fn fact(predicate: &str, args: &[Value]) -> Fact {
    Fact::new(predicate, args.to_vec())
}

#[test]
fn a_guard_on_the_delta_scan_compares_integers_exactly() {
    // Both operands are `Int`; as `f64` they are the same number.
    let derived = derive(
        "N(9007199254740993). N(5).\n\
         N(x), x > 9007199254740992 -> Big(x).\n\
         @output(\"Big\").",
        "Big",
    );
    assert_eq!(
        derived,
        BTreeSet::from([fact("Big", &[Value::Int(P53 + 1)])])
    );
}

#[test]
fn a_range_probe_with_a_variable_bound_compares_int_and_float_exactly() {
    // The `N` delta probes `M` with the range `y < x`, and the `M` delta
    // probes `N` with `x > y`: both resolve the key tie of 2^53 + 1 and
    // 2^53.0.
    let derived = derive(
        "N(9007199254740993). M(9007199254740992.0).\n\
         N(x), M(y), x > y -> Bigger(x, y).\n\
         @output(\"Bigger\").",
        "Bigger",
    );
    assert_eq!(
        derived,
        BTreeSet::from([fact(
            "Bigger",
            &[Value::Int(P53 + 1), Value::Float(P53 as f64)]
        )])
    );
}

#[test]
fn a_range_probe_with_a_constant_bound_keeps_only_the_integers_past_it() {
    // The `K` delta probes `W` on column 0 and ranges `v >= 2^53 + 1` on
    // column 1. 2^53 shares the bound's order key and must be left out.
    let derived = derive(
        "K(1). W(1, 9007199254740993). W(1, 9007199254740992).\n\
         W(1, 9007199254740994). W(1, 5).\n\
         K(x), W(x, v), v >= 9007199254740993 -> Far(x, v).\n\
         @output(\"Far\").",
        "Far",
    );
    assert_eq!(
        derived,
        BTreeSet::from([
            fact("Far", &[Value::Int(1), Value::Int(P53 + 1)]),
            fact("Far", &[Value::Int(1), Value::Int(P53 + 2)]),
        ])
    );
}

#[test]
fn residual_conditions_compare_computed_integers_exactly() {
    // `d = u + 1` is computed after the join, so `d > 2^53` is a residual
    // condition on ids, and `u + 1 > 2^53` one over values: 2^53 + 1
    // passes both, 2^53 neither.
    let src = "U(9007199254740991). U(9007199254740992).\n\
               U(u), d = u + 1, d > 9007199254740992 -> Next(u, d).\n\
               U(u), u + 1 > 9007199254740992 -> Last(u).\n\
               @output(\"Next\"). @output(\"Last\").";
    assert_eq!(
        derive(src, "Next"),
        BTreeSet::from([fact("Next", &[Value::Int(P53), Value::Int(P53 + 1)])])
    );
    assert_eq!(
        derive(src, "Last"),
        BTreeSet::from([fact("Last", &[Value::Int(P53)])])
    );
}
