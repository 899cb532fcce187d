//! Integer arithmetic neither wraps nor panics: an `Int` operation whose
//! result does not fit an `i64` is an arithmetic error, like division by
//! zero, so the match that computes it derives nothing. The rule is the
//! same in debug and release builds (CI runs this file in both), and under
//! both join strategies at every worker count.
//!
//! `msum` is the exception: it folds through `f64`, so a sum past
//! `i64::MAX` comes out as a float (`docs/DEVIATIONS.md`).

use vadalog_engine::{JoinStrategy, Reasoner, ReasonerOptions, RunResult};
use vadalog_model::prelude::*;

/// Run `src` under every worker count and join strategy; each run must
/// give the first one's `C` facts.
fn derived_c(src: &str) -> Vec<Fact> {
    let mut first: Option<Vec<Fact>> = None;
    for join_strategy in [JoinStrategy::FreeJoin, JoinStrategy::Binary] {
        for parallelism in [1, 4] {
            let options = ReasonerOptions {
                join_strategy,
                parallelism,
                ..ReasonerOptions::default()
            };
            let result: RunResult = Reasoner::with_options(options)
                .reason_text(src)
                .unwrap_or_else(|e| panic!("{src}: {e}"));
            let mut c = result.facts_of("C");
            c.sort();
            match &first {
                None => first = Some(c),
                Some(f) => assert_eq!(&c, f, "{src} at {join_strategy:?} x{parallelism}"),
            }
        }
    }
    first.expect("at least one run")
}

fn ints(values: &[i64]) -> Vec<Fact> {
    values
        .iter()
        .map(|&v| Fact::new("C", vec![Value::Int(v)]))
        .collect()
}

#[test]
fn an_overflowing_sum_derives_nothing() {
    assert_eq!(
        derived_c("A(9223372036854775807). A(x), y = x + 1 -> C(y)."),
        ints(&[])
    );
    // One below the bound still computes.
    assert_eq!(
        derived_c("A(9223372036854775806). A(x), y = x + 1 -> C(y)."),
        ints(&[i64::MAX])
    );
}

#[test]
fn an_overflowing_difference_or_product_derives_nothing() {
    assert_eq!(
        derived_c("A(-9223372036854775808). A(x), y = x - 1 -> C(y)."),
        ints(&[])
    );
    assert_eq!(
        derived_c("A(9223372036854775807). A(x), y = x * 9223372036854775807 * 4 -> C(y)."),
        ints(&[])
    );
    // Only the overflowing match is dropped.
    assert_eq!(
        derived_c("A(3). A(4611686018427387904). A(x), y = x * 2 -> C(y)."),
        ints(&[6])
    );
}

#[test]
fn dividing_the_least_integer_by_minus_one_derives_nothing() {
    assert_eq!(
        derived_c("A(-9223372036854775808). A(x), y = x / -1 -> C(y)."),
        ints(&[])
    );
    // `%` overflows on the same operands, although the remainder is 0.
    assert_eq!(
        derived_c("A(-9223372036854775808). A(x), y = x % -1 -> C(y)."),
        ints(&[])
    );
    assert_eq!(
        derived_c("A(-9223372036854775807). A(x), y = x / -1 -> C(y)."),
        ints(&[i64::MAX])
    );
}

#[test]
fn negating_the_least_integer_derives_nothing() {
    assert_eq!(
        derived_c("A(-9223372036854775808). A(x), y = -x -> C(y)."),
        ints(&[])
    );
    assert_eq!(
        derived_c("A(-9223372036854775807). A(x), y = -x -> C(y)."),
        ints(&[i64::MAX])
    );
}

/// Pins the one documented departure (`docs/DEVIATIONS.md`): `msum` sums in
/// `f64`, so two `i64::MAX` contributions give `2^64` as a float instead of
/// an overflow.
#[test]
fn msum_folds_integers_through_floats() {
    let src = "V(\"a\", 9223372036854775807). V(\"b\", 9223372036854775807).\n\
               V(k, v), s = msum(v, <k>) -> S(s).\n\
               @output(\"S\").";
    let result = Reasoner::new().reason_text(src).unwrap();
    let sums = result.output("S");
    assert_eq!(sums.len(), 1);
    assert_eq!(sums[0].args, vec![Value::Float(18446744073709551616.0)]);
    assert_eq!(
        vadalog_parser::fact_to_text(&sums[0]),
        "S(18446744073709551616.0)."
    );
}
