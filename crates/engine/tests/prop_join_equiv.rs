//! Property tests for the zero-clone join core: the ID-based store and the
//! borrow-based slot-machine join must be *observationally identical* to the
//! naive `Fact`-level semantics they replaced.
//!
//! Three equivalences are checked on randomly generated programs:
//!
//! 1. **engine vs. chase** — the indexed, condition-pushing engine and the
//!    chase's naive matcher (no indexes, no pushdown) derive the same ground
//!    facts, so the access paths never filter;
//! 2. **ID-based join vs. Fact-level reference join** — `find_matches`
//!    (interned patterns over borrowed rows) agrees with a straightforward
//!    `facts_of` + `match_fact` implementation of the same semantics, rule by
//!    rule, including negation;
//! 3. **Relation dedup semantics** — the row-hash → `FactId` map behaves
//!    exactly like a set of `Fact`s, including labelled-null keys and
//!    cross-variant numeric equality (`Int(2)` vs `Float(2.0)`).

use proptest::prelude::*;
use std::collections::BTreeSet;
use vadalog_chase::chase::find_matches;
use vadalog_chase::{run_chase, ChaseOptions, WardedStrategy};
use vadalog_engine::{Reasoner, ReasonerOptions};
use vadalog_model::prelude::*;
use vadalog_storage::{FactStore, Relation};

// ---------------------------------------------------------------- generators

fn node_value(domain: usize) -> impl Strategy<Value = Value> {
    (0..domain).prop_map(|i| Value::str(&format!("n{i}")))
}

/// Values that may be labelled nulls or numerics with cross-variant equality.
fn tricky_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (-5i64..5).prop_map(Value::Int),
        2 => (-5i64..5).prop_map(|i| Value::Float(i as f64)),
        2 => prop::sample::select(vec!["a", "b", "c"]).prop_map(Value::str),
        2 => (0u64..4).prop_map(|n| Value::Null(NullId(n))),
        1 => any::<bool>().prop_map(Value::Bool),
    ]
}

fn tricky_fact() -> impl Strategy<Value = Fact> {
    (
        prop::sample::select(vec!["P", "Q"]),
        prop::collection::vec(tricky_value(), 1..4),
    )
        .prop_map(|(p, args)| Fact::new(p, args))
}

/// A random warded program: graph EDB + transitive closure + an existential
/// head + a negated rule, exercising every literal kind the join handles.
fn warded_program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec((0usize..5, 0usize..5), 1..20),
        prop::collection::vec(0usize..5, 0..4),
    )
        .prop_map(|(edges, blocked)| {
            let mut program = vadalog_parser::parse_program(
                "Edge(x, y) -> Reach(x, y).\n\
                 Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
                 Reach(x, y) -> Sponsor(p, x).\n\
                 Sponsor(p, x), Reach(x, y) -> Sponsor(p, y).\n\
                 Reach(x, y), not Blocked(y) -> Open(x, y).\n\
                 @output(\"Reach\").\n\
                 @output(\"Open\").",
            )
            .unwrap();
            for (a, b) in edges {
                program.add_fact(Fact::new(
                    "Edge",
                    vec![Value::str(&format!("n{a}")), Value::str(&format!("n{b}"))],
                ));
            }
            for b in blocked {
                program.add_fact(Fact::new("Blocked", vec![Value::str(&format!("n{b}"))]));
            }
            program
        })
}

/// A random weighted-ownership program whose rules carry every pushable
/// condition shape: constant range guards on the recursive join (`w > θ`,
/// `w >= θ`), a variable-variable comparison (`w <= v`), plus an
/// existential head so labelled-null identity is observable. Weights mix
/// `Int` and `Float` (cross-variant numeric keys) and the guard threshold is
/// drawn randomly.
fn guarded_program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec((0usize..6, 0usize..6, -8i64..8, any::<bool>()), 1..22),
        -4i64..4,
    )
        .prop_map(|(edges, theta)| {
            let mut program = vadalog_parser::parse_program(&format!(
                "Own(x, y, w), w > {theta} -> Control(x, y).\n\
                 Control(x, y), Own(y, z, w), w >= {theta} -> Control(x, z).\n\
                 Own(x, y, w), Own(y, x, v), w <= v -> Mutual(x, y).\n\
                 Control(x, y) -> Sponsor(p, y).\n\
                 @output(\"Control\")."
            ))
            .unwrap();
            for (a, b, w, as_float) in edges {
                let weight = if as_float {
                    Value::Float(w as f64 / 2.0)
                } else {
                    Value::Int(w)
                };
                program.add_fact(Fact::new(
                    "Own",
                    vec![
                        Value::str(&format!("c{a}")),
                        Value::str(&format!("c{b}")),
                        weight,
                    ],
                ));
            }
            program
        })
}

/// A small random EDB over three predicates with mixed arities.
fn random_edb() -> impl Strategy<Value = Vec<Fact>> {
    (
        prop::collection::vec((node_value(4), node_value(4)), 1..12),
        prop::collection::vec(node_value(4), 0..5),
        prop::collection::vec((node_value(4), node_value(4)), 0..6),
    )
        .prop_map(|(edges, marks, links)| {
            let mut facts = Vec::new();
            for (a, b) in edges {
                facts.push(Fact::new("Edge", vec![a, b]));
            }
            for m in marks {
                facts.push(Fact::new("Mark", vec![m]));
            }
            for (a, b) in links {
                facts.push(Fact::new("Link", vec![a, b]));
            }
            facts
        })
}

// --------------------------------------------------- Fact-level reference join

/// The pre-interning reference implementation of `find_matches`: naive
/// nested-loop join over materialised facts with `Atom::match_fact`, then
/// negation, assignments and conditions — kept here as the semantic oracle
/// for the ID-based implementation.
fn reference_find_matches(rule: &Rule, store: &FactStore) -> Vec<Substitution> {
    let mut results = vec![Substitution::new()];
    for atom in rule.body_atoms() {
        if results.is_empty() {
            return results;
        }
        let facts = store.facts_of(atom.predicate);
        let mut next = Vec::new();
        for subst in &results {
            for fact in &facts {
                if let Some(extended) = atom.match_fact(fact, subst) {
                    next.push(extended);
                }
            }
        }
        results = next;
    }
    for atom in rule.negated_atoms() {
        let facts = store.facts_of(atom.predicate);
        results.retain(|subst| !facts.iter().any(|f| atom.match_fact(f, subst).is_some()));
    }
    for literal in &rule.body {
        match literal {
            Literal::Assignment(asg) if !asg.expr.contains_aggregate() => {
                let mut next = Vec::new();
                for subst in results.into_iter() {
                    if let Ok(value) = asg.expr.eval(&subst) {
                        let mut s = subst;
                        s.bind(asg.var, value);
                        next.push(s);
                    }
                }
                results = next;
            }
            Literal::Condition(cond) => {
                results.retain(
                    |subst| match (cond.left.eval(subst), cond.right.eval(subst)) {
                        (Ok(l), Ok(r)) => cond.op.eval(&l, &r),
                        _ => false,
                    },
                );
            }
            _ => {}
        }
    }
    results
}

fn subst_key(s: &Substitution) -> BTreeSet<(String, Value)> {
    s.iter().map(|(v, val)| (v.name(), val.clone())).collect()
}

fn ground_set(facts: Vec<Fact>) -> BTreeSet<Fact> {
    facts.into_iter().filter(|f| f.is_ground()).collect()
}

/// The independent oracle: the chase's naive left-to-right matcher under the
/// same termination strategy — no indexes, conditions evaluated after
/// matching.
fn chase(p: &Program) -> vadalog_chase::ChaseResult {
    run_chase(p, &mut WardedStrategy::new(), &ChaseOptions::default())
}

// ----------------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Index probes and pushed conditions produce the ground instance of
    /// the chase's naive matcher — the index is an access path, never a
    /// filter.
    #[test]
    fn indices_do_not_change_the_instance(p in warded_program()) {
        let engine = Reasoner::new().reason(&p).expect("engine run failed");
        let oracle = chase(&p);
        prop_assert!(engine.stats.pipeline.index_probes > 0);
        for pred in ["Reach", "Open", "Edge", "Blocked"] {
            prop_assert_eq!(
                ground_set(engine.facts_of(pred)),
                ground_set(oracle.facts_of(pred)),
                "engine and chase diverge on {}",
                pred
            );
        }
        // null-producing predicates may differ in null ids but not in count
        prop_assert_eq!(engine.facts_of("Sponsor").len(), oracle.facts_of("Sponsor").len());
    }

    /// The parallel sweep is bit-identical to the sequential one at every
    /// worker count: same relation contents in the same insertion order,
    /// same labelled-null ids, same violations — not merely isomorphic
    /// instances. Batch boundaries and the deterministic delta merge are
    /// independent of the thread count, so nothing may diverge.
    #[test]
    fn parallel_sweep_is_bit_identical_across_thread_counts(p in warded_program()) {
        let runs: Vec<vadalog_engine::RunResult> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                Reasoner::with_options(ReasonerOptions {
                    parallelism: threads,
                    ..ReasonerOptions::default()
                })
                .reason(&p)
                .expect("parallel run failed")
            })
            .collect();
        for r in &runs[1..] {
            for pred in ["Reach", "Open", "Edge", "Blocked", "Sponsor"] {
                // Exact Vec equality: same facts, same FactId (insertion)
                // order, same null ids — bit-identical, not just isomorphic.
                prop_assert_eq!(
                    runs[0].facts_of(pred),
                    r.facts_of(pred),
                    "instances diverge on {} across thread counts",
                    pred
                );
            }
            // The null-bearing predicate also agrees under the labelled-null
            // canonical form (νs renamed consistently) — implied by exact
            // equality, asserted separately to pin the weaker guarantee too.
            let canon = |run: &vadalog_engine::RunResult| -> Vec<vadalog_model::IsoKey> {
                run.facts_of("Sponsor").iter().map(vadalog_model::iso_key).collect()
            };
            prop_assert_eq!(canon(&runs[0]), canon(r), "canonical forms diverge");
            prop_assert_eq!(&runs[0].violations, &r.violations);
            prop_assert_eq!(
                runs[0].stats.pipeline.facts_derived,
                r.stats.pipeline.facts_derived
            );
            prop_assert_eq!(
                runs[0].stats.pipeline.sweep_batches,
                r.stats.pipeline.sweep_batches
            );
        }
    }

    /// Condition pushdown (sorted-run range probes + id-level guards) is
    /// bit-identical at thread counts 1, 2 and 8 — same rows in the same
    /// insertion order, same labelled-null ids — agrees with the chase's
    /// post-matching condition evaluation on every ground fact, and
    /// actually exercises range probes.
    #[test]
    fn pushed_conditions_are_bit_identical_across_thread_counts(p in guarded_program()) {
        let run = |threads: usize| {
            Reasoner::with_options(ReasonerOptions {
                parallelism: threads,
                ..ReasonerOptions::default()
            })
            .reason(&p)
            .expect("guarded run failed")
        };
        let first = run(1);
        let oracle = chase(&p);
        for pred in ["Own", "Control", "Mutual"] {
            prop_assert_eq!(
                ground_set(first.facts_of(pred)),
                ground_set(oracle.facts_of(pred)),
                "engine and chase diverge on {}",
                pred
            );
        }
        // The Mutual join always range-probes (`w <= v` in the mirrored
        // orientation) since Own is never empty.
        prop_assert!(first.stats.pipeline.range_probes > 0,
            "pushdown runs must push a guard into the index");
        for threads in [2, 8] {
            let r = run(threads);
            for pred in ["Own", "Control", "Mutual", "Sponsor"] {
                // Exact Vec equality: facts, FactId order and null ids.
                prop_assert_eq!(
                    first.facts_of(pred),
                    r.facts_of(pred),
                    "instances diverge on {} (threads={})",
                    pred, threads
                );
            }
            prop_assert_eq!(
                first.stats.pipeline.facts_derived,
                r.stats.pipeline.facts_derived
            );
            prop_assert_eq!(
                first.stats.pipeline.range_probes,
                r.stats.pipeline.range_probes
            );
        }
    }

    /// Intra-filter delta-window sharding is bit-identical to
    /// whole-activation joins: same facts in the same `FactId` (insertion)
    /// order, same labelled-null ids, same deterministic statistics — across
    /// worker counts 2/4/8 (the shard bound, and so the chunk layout),
    /// against the sequential (sharding-off) baseline. Only the chunk-count
    /// accounting itself and the `steals` scheduling diagnostic may differ
    /// between chunk layouts.
    #[test]
    fn intra_filter_sharding_is_bit_identical(p in guarded_program()) {
        use vadalog_engine::{AccessPlan, Pipeline, ReasonerOptions};
        // A 16-link ownership chain above every threshold, so the `Own`
        // and `Control` windows are wide enough to split.
        let mut p = p;
        for k in 0..16 {
            p.add_fact(Fact::new(
                "Own",
                vec![
                    Value::str(&format!("p{k}")),
                    Value::str(&format!("p{}", k + 1)),
                    Value::Int(4),
                ],
            ));
        }
        let plan = AccessPlan::compile(&p);
        let run = |threads: usize| {
            let mut pipe = Pipeline::new(&plan, Box::new(WardedStrategy::new())).with_options(
                &ReasonerOptions {
                    parallelism: threads,
                    ..ReasonerOptions::default()
                },
            );
            pipe.load_facts(p.facts.clone());
            pipe.run();
            pipe
        };
        // Sharding off, fully sequential: the reference enumeration.
        let base = run(1);
        for threads in [2usize, 4, 8] {
            let r = run(threads);
            for pred in ["Own", "Control", "Mutual", "Sponsor"] {
                // Exact Vec equality: facts, FactId order and null ids.
                prop_assert_eq!(
                    base.store().facts_of(vadalog_model::intern(pred)),
                    r.store().facts_of(vadalog_model::intern(pred)),
                    "instances diverge on {} (threads={})",
                    pred, threads
                );
            }
            let (a, b) = (base.stats(), r.stats());
            // Some activation split: more work items than activations.
            prop_assert!(b.intra_filter_chunks > a.intra_filter_chunks);
            prop_assert_eq!(a.facts_derived, b.facts_derived);
            prop_assert_eq!(a.facts_suppressed, b.facts_suppressed);
            prop_assert_eq!(a.join_probes, b.join_probes);
            prop_assert_eq!(a.index_probes, b.index_probes);
            prop_assert_eq!(a.range_probes, b.range_probes);
            prop_assert_eq!(a.scan_fallbacks, b.scan_fallbacks);
            prop_assert_eq!(a.sweep_batches, b.sweep_batches);
            prop_assert_eq!(a.iterations, b.iterations);
        }
        // The chunk layout itself repeats: identical options produce
        // identical work-item counts run after run.
        let a = run(8);
        let b = run(8);
        prop_assert_eq!(a.stats().intra_filter_chunks, b.stats().intra_filter_chunks);
        prop_assert_eq!(a.stats().batch_width_hist, b.stats().batch_width_hist);
    }

    /// The ID-based `find_matches` enumerates exactly the substitutions the
    /// Fact-level reference join does, on every rule shape (joins, repeated
    /// variables, constants, negation, conditions).
    #[test]
    fn id_join_matches_reference_join(edb in random_edb()) {
        let store = FactStore::from_facts(edb);
        let program = vadalog_parser::parse_program(
            "Edge(x, y), Edge(y, z) -> Two(x, z).\n\
             Edge(x, x) -> Loop(x).\n\
             Edge(x, y), Link(y, w), Mark(w) -> Chain(x, w).\n\
             Edge(x, y), not Mark(y) -> Unmarked(x, y).\n\
             Edge(\"n0\", y) -> FromZero(y).\n\
             Edge(x, y), x != y -> Proper(x, y).",
        )
        .unwrap();
        // Pre-build some (not all) indices so both probe paths are exercised.
        let mut store = store;
        store.relation_mut(intern("Edge")).ensure_index(&[0]);
        store.relation_mut(intern("Mark")).ensure_index(&[0]);
        for rule in &program.rules {
            let fast: Vec<BTreeSet<(String, Value)>> =
                find_matches(rule, &store).iter().map(subst_key).collect();
            let slow: Vec<BTreeSet<(String, Value)>> =
                reference_find_matches(rule, &store).iter().map(subst_key).collect();
            let fast_set: BTreeSet<_> = fast.iter().cloned().collect();
            let slow_set: BTreeSet<_> = slow.iter().cloned().collect();
            prop_assert_eq!(
                &fast_set, &slow_set,
                "join results diverge on rule {}", rule
            );
            // and multiplicities agree (each combination enumerated once)
            prop_assert_eq!(fast.len(), slow.len(), "multiplicity differs on {}", rule);
        }
    }

    /// Relation dedup behaves exactly like a set of `Fact`s — including
    /// labelled-null arguments and `Int`/`Float` cross-variant equality —
    /// and `contains` never lies in either direction.
    #[test]
    fn relation_dedup_is_fact_set_semantics(facts in prop::collection::vec(tricky_fact(), 0..40)) {
        let mut rel = Relation::new();
        let mut model: BTreeSet<Fact> = BTreeSet::new();
        for f in &facts {
            // only same-predicate facts go into one relation
            if f.predicate != intern("P") {
                continue;
            }
            let fresh = model.insert(f.clone());
            prop_assert_eq!(rel.insert(f.clone()), fresh, "dedup disagrees for {}", f);
        }
        prop_assert_eq!(rel.len(), model.len());
        for f in &facts {
            if f.predicate != intern("P") {
                continue;
            }
            prop_assert!(rel.contains(f));
            prop_assert!(rel.contains_row(&f.intern_args()));
        }
        // materialisation round-trips the whole instance (as a set: rows
        // store the first-inserted representative of each equality class,
        // e.g. Int(2) for Float(2.0))
        let materialised: BTreeSet<Fact> = rel.to_facts(intern("P")).into_iter().collect();
        prop_assert_eq!(materialised, model);
    }

    /// FactStore-level membership agrees with an honest set of facts even
    /// when probed with never-inserted (possibly never-interned) values.
    #[test]
    fn store_contains_has_no_false_positives(
        inserted in prop::collection::vec(tricky_fact(), 0..25),
        probes in prop::collection::vec(tricky_fact(), 0..25),
    ) {
        let store = FactStore::from_facts(inserted.clone());
        let model: BTreeSet<Fact> = inserted.into_iter().collect();
        for probe in &probes {
            prop_assert_eq!(store.contains(probe), model.contains(probe), "probe {}", probe);
        }
    }
}
