//! Baseline engines used for the comparative experiments (Sections 6.2, 6.5,
//! 6.6 and 7 of the paper).
//!
//! None of the systems the paper compares against (RDFox, LLunatic, DLV,
//! Graal, PDQ, PostgreSQL, Neo4j) is available here, so each *class* of
//! system is represented by the algorithmic behaviour the paper attributes to
//! it:
//!
//! * [`trivial_iso_chase`] — exhaustive isomorphism checking over every
//!   generated fact (the "trivial technique" of §6.6);
//! * [`restricted_chase`] — the restricted chase with per-step homomorphism
//!   checks, the behaviour of back-end based chase systems (§7 point (a));
//! * [`seminaive_datalog`] — a Skolemizing, fully grounding semi-naive
//!   Datalog evaluator, standing in for DLV-style in-memory grounding
//!   engines and for recursive-SQL evaluation of transitive closures.

use std::collections::{HashMap, HashSet};
use vadalog_model::prelude::*;
use vadalog_storage::FactStore;

use vadalog_analysis::rule_strata;

use crate::chase::{run_chase, ChaseOptions, ChaseResult, ChaseVariant};
use crate::strategy::{ExactDedupStrategy, TrivialIsoStrategy};

/// Run the chase with the exhaustive-isomorphism termination strategy.
pub fn trivial_iso_chase(program: &Program, options: &ChaseOptions) -> ChaseResult {
    let mut strategy = TrivialIsoStrategy::new();
    run_chase(program, &mut strategy, options)
}

/// Run the restricted chase (per-step homomorphism check, exact duplicate
/// elimination otherwise).
pub fn restricted_chase(program: &Program, max_rounds: Option<usize>) -> ChaseResult {
    let mut strategy = ExactDedupStrategy::new();
    run_chase(
        program,
        &mut strategy,
        &ChaseOptions {
            variant: ChaseVariant::Restricted,
            max_rounds,
            max_facts: Some(5_000_000),
        },
    )
}

/// Statistics of a semi-naive evaluation.
#[derive(Clone, Copy, Default, Debug)]
pub struct SeminaiveStats {
    /// Iterations until fixpoint.
    pub iterations: usize,
    /// Facts derived (beyond the EDB).
    pub derived: usize,
}

/// Result of a semi-naive evaluation.
#[derive(Clone, Debug)]
pub struct SeminaiveResult {
    /// The final instance.
    pub store: FactStore,
    /// Statistics.
    pub stats: SeminaiveStats,
}

impl SeminaiveResult {
    /// Facts of one predicate.
    pub fn facts_of(&self, predicate: &str) -> Vec<Fact> {
        self.store.facts_of(intern(predicate))
    }
}

/// Semi-naive bottom-up Datalog evaluation with Skolemized existentials.
///
/// Existential head variables are replaced by deterministic Skolem strings
/// `"_sk<rule>(<frontier values>)"`, which is how DLV-style systems simulated
/// existentials in the ChaseBench comparison (§7). The evaluation grounds
/// every rule against the full extent of its first delta-bound predicate —
/// deliberately "grounding heavy", as the paper describes those systems.
///
/// The strata of [`rule_strata`] run in order, each to its fixpoint, so a
/// negated atom is checked against a complete relation.
///
/// Termination caveat: with recursion through existentials Skolem terms can
/// nest unboundedly, so `max_iterations` caps the run, counted over all
/// strata (the paper makes the same observation about grounding-based
/// systems on warded programs).
///
/// # Panics
///
/// On a program with no stratification (a predicate negated inside its
/// own recursion).
pub fn seminaive_datalog(program: &Program, max_iterations: usize) -> SeminaiveResult {
    let strata = rule_strata(program).unwrap_or_else(|e| panic!("seminaive_datalog: {e}"));
    let mut store = FactStore::new();
    for f in &program.facts {
        store.insert(f.clone());
    }
    // Every fact, EDB first, in the order it entered the store.
    let mut facts: Vec<Fact> = program.facts.clone();

    let mut stats = SeminaiveStats::default();
    let mut seen: HashSet<Fact> = program.facts.iter().cloned().collect();

    'strata: for stratum in &strata {
        // delta = facts added in the previous iteration, per predicate. To
        // a stratum's first iteration every stored fact is new.
        let mut delta: HashMap<Sym, Vec<Fact>> = HashMap::new();
        for f in &facts {
            delta.entry(f.predicate).or_default().push(f.clone());
        }
        loop {
            if stats.iterations >= max_iterations {
                break 'strata;
            }
            stats.iterations += 1;
            let mut new_delta: HashMap<Sym, Vec<Fact>> = HashMap::new();
            let mut added_any = false;

            for &rule_idx in stratum {
                let rule = &program.rules[rule_idx];
                if rule.has_aggregation() {
                    continue;
                }
                let body_atoms = rule.body_atoms();
                if body_atoms.is_empty() {
                    continue;
                }
                // Semi-naive: at least one body atom must be matched against the
                // delta. We iterate over which atom takes the delta role.
                for delta_pos in 0..body_atoms.len() {
                    let delta_facts = match delta.get(&body_atoms[delta_pos].predicate) {
                        Some(fs) if !fs.is_empty() => fs.clone(),
                        _ => continue,
                    };
                    let mut substs = vec![Substitution::new()];
                    for (i, atom) in body_atoms.iter().enumerate() {
                        let candidates: Vec<Fact> = if i == delta_pos {
                            delta_facts.clone()
                        } else {
                            store.facts_of(atom.predicate)
                        };
                        let mut next = Vec::new();
                        for s in &substs {
                            for f in &candidates {
                                if let Some(e) = atom.match_fact(f, s) {
                                    next.push(e);
                                }
                            }
                        }
                        substs = next;
                        if substs.is_empty() {
                            break;
                        }
                    }
                    // conditions / assignments / negation
                    substs.retain(|s| {
                        rule.negated_atoms().iter().all(|atom| {
                            !store
                                .facts_of(atom.predicate)
                                .iter()
                                .any(|f| atom.match_fact(f, s).is_some())
                        })
                    });
                    let mut extended = Vec::new();
                    'outer: for mut s in substs {
                        for lit in &rule.body {
                            match lit {
                                Literal::Assignment(a) if !a.expr.contains_aggregate() => {
                                    match a.expr.eval(&s) {
                                        Ok(v) => s.bind(a.var, v),
                                        Err(_) => continue 'outer,
                                    }
                                }
                                Literal::Condition(c) => {
                                    match (c.left.eval(&s), c.right.eval(&s)) {
                                        (Ok(l), Ok(r)) if c.op.eval(&l, &r) => {}
                                        _ => continue 'outer,
                                    }
                                }
                                _ => {}
                            }
                        }
                        extended.push(s);
                    }

                    let frontier: Vec<Var> = rule.frontier_variables().into_iter().collect();
                    let existentials = rule.existential_variables();
                    for mut s in extended {
                        // Skolemize existentials deterministically.
                        for v in &existentials {
                            let args: Vec<String> = frontier
                                .iter()
                                .map(|fv| s.get(*fv).map(|x| x.to_string()).unwrap_or_default())
                                .collect();
                            let skolem = Value::string(format!(
                                "_sk{rule_idx}_{}({})",
                                v.name(),
                                args.join(",")
                            ));
                            s.bind(*v, skolem);
                        }
                        for head in rule.head_atoms() {
                            if let Some(fact) = head.apply(&s) {
                                if seen.insert(fact.clone()) {
                                    store.insert(fact.clone());
                                    facts.push(fact.clone());
                                    new_delta.entry(fact.predicate).or_default().push(fact);
                                    stats.derived += 1;
                                    added_any = true;
                                }
                            }
                        }
                    }
                }
            }

            if !added_any {
                break;
            }
            delta = new_delta;
        }
    }

    SeminaiveResult { store, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog_parser::parse_program;

    const TC: &str = "Edge(\"a\", \"b\"). Edge(\"b\", \"c\"). Edge(\"c\", \"d\").\n\
                      Edge(x, y) -> Reach(x, y).\n\
                      Reach(x, y), Edge(y, z) -> Reach(x, z).";

    #[test]
    fn seminaive_computes_transitive_closure() {
        let program = parse_program(TC).unwrap();
        let result = seminaive_datalog(&program, 100);
        assert_eq!(result.facts_of("Reach").len(), 6);
        assert!(result.stats.iterations <= 5);
    }

    #[test]
    fn seminaive_skolemizes_existentials_deterministically() {
        let program = parse_program("Company(\"a\").\nCompany(x) -> KeyPerson(p, x).").unwrap();
        let r1 = seminaive_datalog(&program, 10);
        let r2 = seminaive_datalog(&program, 10);
        assert_eq!(r1.facts_of("KeyPerson"), r2.facts_of("KeyPerson"));
        assert_eq!(r1.facts_of("KeyPerson").len(), 1);
        assert!(r1.facts_of("KeyPerson")[0].args[0]
            .as_str()
            .unwrap()
            .starts_with("_sk"));
    }

    #[test]
    fn seminaive_is_capped_on_infinite_skolem_chases() {
        let program = parse_program(
            "Person(\"eve\").\n\
             Person(x) -> HasParent(x, p).\n\
             HasParent(x, p) -> Person(p).",
        )
        .unwrap();
        let result = seminaive_datalog(&program, 8);
        assert_eq!(result.stats.iterations, 8);
        assert!(result.facts_of("Person").len() > 4);
    }

    #[test]
    fn baselines_agree_with_each_other_on_datalog() {
        let program = parse_program(TC).unwrap();
        let trivial = trivial_iso_chase(&program, &ChaseOptions::default());
        let restricted = restricted_chase(&program, None);
        let seminaive = seminaive_datalog(&program, 100);
        assert_eq!(trivial.facts_of("Reach").len(), 6);
        assert_eq!(restricted.facts_of("Reach").len(), 6);
        assert_eq!(seminaive.facts_of("Reach").len(), 6);
    }

    /// Reachability from `Start` and its complement.
    const REACH: &str = "Node(1). Node(2). Node(3). Node(5). Node(9).\n\
                         Edge(1, 2). Edge(2, 3). Start(1).\n\
                         Start(x) -> Reach(x).\n\
                         Reach(x), Edge(x, y) -> Reach(y).\n\
                         Node(x), not Reach(x) -> Unreached(x).";

    /// Three strata, the top one's rule first.
    const CHAIN: &str = "E(1, 2). E(2, 3). V(1). V(2). V(3). V(4).\n\
                         V(x), not Isolated(x) -> Member(x).\n\
                         V(x), not Touched(x) -> Isolated(x).\n\
                         T(x, y) -> Touched(x).\n\
                         T(x, y) -> Touched(y).\n\
                         E(x, y) -> T(x, y).\n\
                         T(x, y), E(y, z) -> T(x, z).";

    /// The answers both programs have, by hand: (predicate, its values).
    const STRATIFIED_ANSWERS: [(&str, &str, &[i64]); 4] = [
        (REACH, "Reach", &[1, 2, 3]),
        (REACH, "Unreached", &[5, 9]),
        (CHAIN, "Member", &[1, 2, 3]),
        (CHAIN, "Isolated", &[4]),
    ];

    fn sorted_values(mut facts: Vec<Fact>) -> Vec<Value> {
        facts.sort();
        facts.into_iter().map(|f| f.args[0].clone()).collect()
    }

    #[test]
    fn both_baselines_negate_complete_lower_strata() {
        for (src, predicate, values) in STRATIFIED_ANSWERS {
            let program = parse_program(src).unwrap();
            let expected: Vec<Value> = values.iter().map(|&v| Value::Int(v)).collect();
            let mut strategy = crate::strategy::WardedStrategy::new();
            let chase = run_chase(&program, &mut strategy, &ChaseOptions::default());
            assert_eq!(sorted_values(chase.facts_of(predicate)), expected, "{src}");
            let seminaive = seminaive_datalog(&program, 100);
            assert_eq!(
                sorted_values(seminaive.facts_of(predicate)),
                expected,
                "{src}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "predicate Q")]
    fn the_chase_refuses_an_unstratifiable_program() {
        let program = parse_program("A(1). A(x), not Q(x) -> Q(x).").unwrap();
        let mut strategy = crate::strategy::WardedStrategy::new();
        run_chase(&program, &mut strategy, &ChaseOptions::default());
    }

    #[test]
    #[should_panic(expected = "predicate Q")]
    fn seminaive_refuses_an_unstratifiable_program() {
        let program = parse_program("A(1). A(x), not Q(x) -> Q(x).").unwrap();
        seminaive_datalog(&program, 100);
    }

    #[test]
    fn restricted_chase_terminates_on_example3() {
        let program = parse_program(
            "Company(a). Company(b). Control(a, b). KeyPerson(a, Bob).\n\
             Company(x) -> KeyPerson(p, x).\n\
             Control(x, y), KeyPerson(p, x) -> KeyPerson(p, y).",
        )
        .unwrap();
        let result = restricted_chase(&program, Some(50));
        // b inherits Bob; a already has Bob so no new null for a.
        let kp = result.facts_of("KeyPerson");
        assert!(
            kp.contains(&Fact::new("KeyPerson", vec!["Bob".into(), "b".into()]))
                || kp.contains(&Fact::new("KeyPerson", vec!["b".into(), "Bob".into()]))
                || kp.iter().any(|f| f.args.contains(&Value::str("Bob")))
        );
    }
}
