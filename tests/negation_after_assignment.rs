//! A negated atom that mentions a variable an assignment binds is checked
//! once that variable is bound, whatever the order the literals are written
//! in: `A(x), y = x + 4, not B(y)` asks whether `B(x + 4)` is absent, not
//! whether `B` is empty. The answers are written by hand, and the engine
//! must give them at every worker count under both join strategies, as must
//! the chase.

use std::collections::BTreeSet;
use vadalog_chase::{run_chase, ChaseOptions, WardedStrategy};
use vadalog_engine::{JoinStrategy, Reasoner, ReasonerOptions, RunResult};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;

/// Programs deriving `C`, and the values of `C` each must derive.
const RULES: &[(&str, &[i64])] = &[
    // The assignment binds `y` before the negation reads it.
    ("A(1). B(9). A(x), y = x + 4, not B(y) -> C(y).", &[5]),
    // The same rule with the negation written first.
    ("A(1). B(9). A(x), not B(y), y = x + 4 -> C(y).", &[5]),
    // `B(5)` blocks `x = 1`; nothing blocks `x = 2`.
    ("A(1). A(2). B(5). A(x), y = x + 4, not B(y) -> C(y).", &[6]),
    // A negated atom over one positive and one assigned variable: `B(1, 3)`
    // blocks `x = 1`, and `B(3, 9)` does not block `x = 3` (`y = 5`).
    (
        "E(1, 2). E(3, 4). B(1, 3). B(3, 9). E(x, z), y = z + 1, not B(x, y) -> C(y).",
        &[5],
    ),
];

/// Constraints whose negated atom reads an assigned variable, each violated
/// exactly once, and the bindings its one violation must show (the order a
/// substitution prints its variables in is the interner's, so each binding
/// is matched on its own).
const CHECKS: &[(&str, &[&str])] = &[
    // No positive atom: `B(5)` is absent, so the constraint is violated.
    ("B(1). y = 2 + 3, not B(y) -> false.", &["y ↦ 5"]),
    // `B(6)` blocks `x = 2`; `x = 1` violates.
    (
        "N(1). N(2). B(6). N(x), y = x + 4, not B(y) -> false.",
        &["x ↦ 1", "y ↦ 5"],
    ),
];

/// The program's engine runs at 1 and 4 workers under both join strategies.
fn engine_runs(src: &str) -> Vec<RunResult> {
    let program = parse_program(src).unwrap();
    let mut runs = Vec::new();
    for parallelism in [1, 4] {
        for join_strategy in [JoinStrategy::FreeJoin, JoinStrategy::Binary] {
            let options = ReasonerOptions {
                parallelism,
                join_strategy,
                ..ReasonerOptions::default()
            };
            runs.push(Reasoner::with_options(options).reason(&program).unwrap());
        }
    }
    runs
}

fn values(facts: &[Fact]) -> BTreeSet<Value> {
    facts.iter().map(|f| f.args[0].clone()).collect()
}

#[test]
fn a_negation_reads_the_value_an_assignment_binds() {
    for (src, expected) in RULES {
        let expected: BTreeSet<Value> = expected.iter().map(|&v| Value::Int(v)).collect();
        for run in engine_runs(src) {
            assert_eq!(values(&run.facts_of("C")), expected, "{src}");
        }
        let program = parse_program(src).unwrap();
        let chase = run_chase(
            &program,
            &mut WardedStrategy::new(),
            &ChaseOptions::default(),
        );
        assert_eq!(values(&chase.facts_of("C")), expected, "chase: {src}");
    }
}

#[test]
fn a_check_negation_reads_the_value_an_assignment_binds() {
    for (src, bindings) in CHECKS {
        let program = parse_program(src).unwrap();
        let chase = run_chase(
            &program,
            &mut WardedStrategy::new(),
            &ChaseOptions::default(),
        );
        assert_eq!(chase.violations.len(), 1, "chase: {src}");
        let violation = &chase.violations[0];
        assert!(
            violation.starts_with("constraint violated: "),
            "{violation}"
        );
        for binding in *bindings {
            assert!(violation.contains(binding), "chase: {violation}");
        }
        for run in engine_runs(src) {
            assert_eq!(run.violations, chase.violations, "{src}");
        }
    }
}
