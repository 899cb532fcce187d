//! Range-condition workloads: fig5-style ownership reasoning whose rules
//! carry selective comparison guards (`w > θ`).
//!
//! The paper's company-control programs guard every join on the ownership
//! share (`Own(x, y, w), w > 0.5 -> Control(x, y)`). These generators make
//! the guard's **selectivity** a parameter: with weights uniform in `[0, 1)`
//! a threshold θ keeps a `1 - θ` fraction of the edges, so high θ is the
//! regime where pushing the condition into the index (a sorted-run range
//! probe on the weight column under the join-key prefix) beats the
//! post-filter plan by the widest margin (PR 3 measured 2.9× at θ = 0.5 and
//! 8.7× at θ = 0.95; `CHANGES.md`). Inputs for the paper suite that
//! `benchmark/` is to absorb.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;

/// `Own(owner, owned, w)` facts over a random dense-ish graph: `edges`
/// ownership edges among `companies` companies, weights uniform in `[0, 1)`.
pub fn ownership_edges(companies: usize, edges: usize, seed: u64) -> Vec<Fact> {
    let mut rng = StdRng::seed_from_u64(seed);
    let companies = companies.max(2);
    let mut facts = Vec::with_capacity(edges);
    for _ in 0..edges {
        let a = rng.gen_range(0..companies);
        let b = rng.gen_range(0..companies);
        let w: f64 = rng.gen();
        facts.push(Fact::new(
            "Own",
            vec![
                Value::str(&format!("c{a}")),
                Value::str(&format!("c{b}")),
                Value::Float(w),
            ],
        ));
    }
    facts
}

/// The guarded transitive-control program: both the base rule and the
/// recursive join carry a `w > θ` guard, so the recursive step probes
/// `Own` on `(y, w > θ)` — composite prefix plus pushed range condition.
pub fn guarded_control_program(theta: f64) -> Program {
    parse_program(&format!(
        "Own(x, y, w), w > {theta} -> Control(x, y).\n\
         Control(x, y), Own(y, z, w), w > {theta} -> Control(x, z).\n\
         @output(\"Control\")."
    ))
    .expect("guarded control program parses")
}

/// A complete range workload: guarded transitive control over a random
/// ownership graph. `theta` is the guard threshold (selectivity `1 - θ`).
pub fn guarded_control(companies: usize, edges: usize, theta: f64, seed: u64) -> Program {
    let mut program = guarded_control_program(theta);
    for f in ownership_edges(companies, edges, seed) {
        program.add_fact(f);
    }
    program
}

/// `Own(owner, owned, w, k)` facts for the two-guard workload: the weight
/// `w` is **quantised** to ten levels (a coarse range column — few distinct
/// order keys, wide postings groups) while the capital `k` stays uniform in
/// `[0, 1)` (a fine range column — one group per edge, roughly).
pub fn two_guard_edges(companies: usize, edges: usize, seed: u64) -> Vec<Fact> {
    let mut rng = StdRng::seed_from_u64(seed);
    let companies = companies.max(2);
    let mut facts = Vec::with_capacity(edges);
    for _ in 0..edges {
        let a = rng.gen_range(0..companies);
        let b = rng.gen_range(0..companies);
        let w = (rng.gen_range(0..10) as f64) / 10.0;
        let k: f64 = rng.gen();
        facts.push(Fact::new(
            "Own",
            vec![
                Value::str(&format!("c{a}")),
                Value::str(&format!("c{b}")),
                Value::Float(w),
                Value::Float(k),
            ],
        ));
    }
    facts
}

/// The two-guard control workload for the adaptive-range ablation: both
/// rules carry a coarse weight guard (`w > θ`, first in body order — the
/// planner's static default probe) **and** a fine capital guard (`k < κ`).
/// When κ is selective, probing the capital column wins, but only the run
/// directory's group-width statistics can see that: the adaptive selection
/// must demote the weight range to a guard per activation.
pub fn two_guard_control(
    companies: usize,
    edges: usize,
    theta: f64,
    kappa: f64,
    seed: u64,
) -> Program {
    let mut program = parse_program(&format!(
        "Own(x, y, w, k), w > {theta}, k < {kappa} -> Control(x, y).\n\
         Control(x, y), Own(y, z, w, k), w > {theta}, k < {kappa} -> Control(x, z).\n\
         @output(\"Control\")."
    ))
    .expect("two-guard control program parses");
    for f in two_guard_edges(companies, edges, seed) {
        program.add_fact(f);
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_uniform_and_program_is_datalog() {
        let program = guarded_control(50, 400, 0.9, 7);
        assert_eq!(program.facts.len(), 400);
        assert!(program
            .facts
            .iter()
            .all(|f| matches!(f.args[2], Value::Float(w) if (0.0..1.0).contains(&w))));
        assert_eq!(program.rules.len(), 2);
        assert!(vadalog_analysis::classify(&program).is_datalog);
    }

    #[test]
    fn two_guard_workload_triggers_adaptive_range_selection() {
        let program = two_guard_control(40, 600, 0.5, 0.25, 13);
        assert!(program.facts.iter().all(|f| f.args.len() == 4
            && matches!(f.args[2], Value::Float(w) if w * 10.0 == (w * 10.0).round())));
        let result = vadalog_engine::Reasoner::new()
            .reason(&program)
            .expect("run failed");
        // The fine capital column must replace the planner's default weight
        // range in at least one activation.
        assert!(result.stats.pipeline.adaptive_range_picks > 0);
    }

    #[test]
    fn higher_thresholds_derive_fewer_controls() {
        let run = |theta: f64| {
            let program = guarded_control(40, 300, theta, 11);
            vadalog_engine::Reasoner::new()
                .reason(&program)
                .expect("run failed")
                .output("Control")
                .len()
        };
        let low = run(0.2);
        let high = run(0.95);
        assert!(
            high < low,
            "selective guards must prune: θ=0.95 gave {high}, θ=0.2 gave {low}"
        );
        assert!(high > 0, "θ=0.95 still keeps ~5% of 300 edges");
    }
}
