//! Emission rebuilds every variable the join does not bind. A match
//! leaves the join with only the positive body variables bound; assigned
//! values, aggregate results and existential witnesses are computed again
//! for each match as it is emitted, and nothing one match computed may
//! leak into the next. Each program runs at one and four workers under
//! both join strategies, over enough rows that four workers split the
//! delta windows into chunks, and its outputs are pinned by hand.

use vadalog::engine::JoinStrategy;
use vadalog::{Reasoner, ReasonerOptions, RunResult};
use vadalog_parser::parse_program;

/// Run `src` at every setting, check that all settings print the same
/// outputs and violations, and return the single-worker `FreeJoin` run.
fn run_everywhere(src: &str, outputs: &[&str]) -> RunResult {
    let program = parse_program(src).unwrap();
    let mut runs = Vec::new();
    for join_strategy in [JoinStrategy::FreeJoin, JoinStrategy::Binary] {
        for parallelism in [1, 4] {
            let run = Reasoner::with_options(ReasonerOptions {
                join_strategy,
                parallelism,
                ..Default::default()
            })
            .reason(&program)
            .unwrap();
            runs.push(((join_strategy, parallelism), run));
        }
    }
    let (_, first) = &runs[0];
    for (setting, run) in &runs[1..] {
        for output in outputs {
            assert_eq!(shown(run, output), shown(first, output), "{setting:?}");
        }
        assert_eq!(run.violations, first.violations, "{setting:?}");
    }
    runs.swap_remove(0).1
}

/// The facts of `predicate` as printed, in output order.
fn shown(run: &RunResult, predicate: &str) -> Vec<String> {
    run.output(predicate)
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn a_fold_filter_recomputes_the_assignment_before_its_aggregate() {
    // Group `x` holds `y = 0..=x % 7`, so it counts `x % 7 + 1` distinct
    // `z = y + 1`. The fold stratum emits one row per group, in
    // first-seen order.
    let mut src = String::new();
    for x in 0..40 {
        for y in 0..=x % 7 {
            src += &format!("Ef({x}, {y}). ");
        }
    }
    src += "\nEf(x, y), z = y + 1, n = mcount(z) -> Ff(x, n).\n@output(\"Ff\").";
    let run = run_everywhere(&src, &["Ff"]);
    let expected: Vec<String> = (0..40).map(|x| format!("Ff({x}, {})", x % 7 + 1)).collect();
    assert_eq!(shown(&run, "Ff"), expected);
}

#[test]
fn a_swept_rule_mints_one_null_per_match_next_to_its_assignment() {
    // Every `Pq` row gets its own witness `w`, numbered in emission (=
    // `Pq` row) order, and `z` is recomputed for every row; the second
    // rule reads both back.
    let mut src: String = (0..80).map(|k| format!("Pq({k}, {}). ", 10 * k)).collect();
    src += "\nPq(x, y), z = y + 5 -> Qq(x, z, w).\n\
            Qq(x, z, w), v = z * 3 -> Sq(w, v).\n\
            @output(\"Qq\"). @output(\"Sq\").";
    let run = run_everywhere(&src, &["Qq", "Sq"]);
    let qq: Vec<String> = (0..80)
        .map(|k| format!("Qq({k}, {}, ν{k})", 10 * k + 5))
        .collect();
    let sq: Vec<String> = (0..80)
        .map(|k| format!("Sq(ν{k}, {})", 3 * (10 * k + 5)))
        .collect();
    assert_eq!(shown(&run, "Qq"), qq);
    assert_eq!(shown(&run, "Sq"), sq);
}

#[test]
fn checks_print_the_empty_binding_and_the_assigned_values() {
    // `not Bc(3000)` has no positive atom: it runs once, on the empty
    // binding. The second check prints `vy`, which only emission computes,
    // for the two rows past the threshold.
    let mut src: String = (1..=80).map(|x| format!("Bc({x}). ")).collect();
    src += "\nnot Bc(3000) -> false.\n\
            Bc(vx), vy = vx * 4, vy > 312 -> false.";
    let run = run_everywhere(&src, &[]);
    let violations = &run.violations;
    assert_eq!(violations.len(), 3, "{violations:?}");
    assert_eq!(
        violations[0],
        "constraint violated: not Bc(3000) -> ⊥ under {}"
    );
    // Variables print in symbol order, which depends on what the process
    // interned first: check each binding, not the order.
    let prefix = "constraint violated: Bc(vx), vy = (vx * 4), vy > 312 -> ⊥ under {";
    for (violation, (vx, vy)) in violations[1..].iter().zip([(79, 316), (80, 320)]) {
        assert!(violation.starts_with(prefix), "{violation}");
        assert!(violation.contains(&format!("vx ↦ {vx}")), "{violation}");
        assert!(violation.contains(&format!("vy ↦ {vy}")), "{violation}");
        assert_eq!(violation.matches('↦').count(), 2, "{violation}");
    }
}
