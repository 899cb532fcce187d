//! Property tests for [`vadalog_engine::QuerySession::append_facts`]: a
//! session maintained through a random schedule of EDB appends — overlay
//! promotions into immutable base layers, delta-driven re-activation of the
//! live instance — must be **observationally identical** to a fresh session
//! built over the union EDB (initial facts, then every appended fact, in
//! exactly the append order).
//!
//! Two levels of "identical" are checked:
//!
//! * **query answers** are *byte-identical* — the same facts in the same
//!   order with the same labelled-null ids, for random query adornments and
//!   at thread counts 1, 2 and 8 (queries run on fresh overlays whose
//!   insertion history replays the union session's exactly);
//! * **materialised outputs** are *set-identical* — the incrementally
//!   maintained live instance derives facts in delta order, so `FactId`
//!   layout differs, but the instance itself (including aggregate results)
//!   must match a from-scratch materialisation, with the rebuild ablation
//!   (`incremental = false`) agreeing as well.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vadalog_engine::{Reasoner, ReasonerOptions};
use vadalog_model::prelude::*;

// ---------------------------------------------------------------- generators

/// The rule set shared by every case: transitive closure, a join against
/// `Mark`, and an `mcount` aggregate folding the closure — so appends
/// exercise the delta join path and the monotonic-aggregate path. With
/// `existential` the query slice invents labelled nulls, putting sessions
/// on the bottom-up fallback where null ids become observable.
fn rules(existential: bool) -> String {
    let mut src = String::from(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         Reach(x, y), Mark(y) -> Hit(x, y).\n\
         Reach(x, y), c = mcount(y) -> OutDegree(x, c).\n",
    );
    if existential {
        src.push_str("Hit(x, y) -> Cert(c, x).\n");
        src.push_str("Cert(c, x), Reach(x, y) -> Cert(c, y).\n");
    }
    src.push_str("@output(\"Reach\").\n@output(\"Hit\").\n@output(\"OutDegree\").\n");
    src
}

fn edge(a: usize, b: usize) -> Fact {
    Fact::new(
        "Edge",
        vec![Value::str(&format!("n{a}")), Value::str(&format!("n{b}"))],
    )
}

fn mark(m: usize) -> Fact {
    Fact::new("Mark", vec![Value::str(&format!("n{m}"))])
}

/// A random initial EDB plus a random append schedule: 1–4 batches of 1–6
/// facts each, drawn from the same domain as the initial facts so appends
/// routinely duplicate existing rows, touch existing keys, and connect new
/// chain segments.
#[allow(clippy::type_complexity)]
fn program_and_schedule(existential: bool) -> impl Strategy<Value = (Program, Vec<Vec<Fact>>)> {
    (
        prop::collection::vec((0usize..6, 0usize..6), 1..14),
        prop::collection::vec(0usize..6, 0..4),
        prop::collection::vec(
            prop::collection::vec((any::<bool>(), 0usize..7, 0usize..7), 1..6),
            1..4,
        ),
    )
        .prop_map(move |(edges, marks, raw_schedule)| {
            let mut program = vadalog_parser::parse_program(&rules(existential)).unwrap();
            for (a, b) in edges {
                program.add_fact(edge(a, b));
            }
            for m in marks {
                program.add_fact(mark(m));
            }
            let schedule: Vec<Vec<Fact>> = raw_schedule
                .into_iter()
                .map(|batch| {
                    batch
                        .into_iter()
                        .map(|(is_edge, a, b)| if is_edge { edge(a, b) } else { mark(a) })
                        .collect()
                })
                .collect();
            (program, schedule)
        })
}

/// A random query atom over the IDB (same adornment space as the session
/// property tests: bound constants sometimes outside the domain, free
/// variables sometimes repeated).
fn random_query() -> impl Strategy<Value = Atom> {
    (
        prop::sample::select(vec!["Reach", "Hit", "Cert"]),
        prop::collection::vec((any::<bool>(), 0usize..8), 2),
        any::<bool>(),
    )
        .prop_map(|(pred, shape, repeat_vars)| {
            let terms: Vec<Term> = shape
                .iter()
                .enumerate()
                .map(|(i, (bound, c))| {
                    if *bound {
                        Term::Const(Value::str(&format!("n{c}")))
                    } else if repeat_vars {
                        Term::var("v")
                    } else {
                        Term::var(&format!("v{i}"))
                    }
                })
                .collect();
            Atom {
                predicate: intern(pred),
                terms,
            }
        })
}

/// The union program: the initial EDB followed by every appended fact in
/// append order — the exact insertion history the layered session replays.
fn union_program(program: &Program, schedule: &[Vec<Fact>]) -> Program {
    let mut union = program.clone();
    for batch in schedule {
        for f in batch {
            union.add_fact(f.clone());
        }
    }
    union
}

fn canon(m: BTreeMap<Sym, Vec<Fact>>) -> BTreeMap<Sym, Vec<Fact>> {
    m.into_iter()
        .map(|(p, mut fs)| {
            fs.sort();
            (p, fs)
        })
        .collect()
}

// ----------------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: after any append schedule, session query
    /// answers are byte-identical — same facts, same order, same null ids —
    /// to a fresh session on the union EDB, at every thread count, on both
    /// the magic-sets path (plain Datalog slice) and the bottom-up fallback
    /// (existential slice).
    #[test]
    fn append_is_equivalent_to_rebuild(
        program_schedule in program_and_schedule(false),
        existential in any::<bool>(),
        query in random_query(),
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let (program, schedule) = program_schedule;
        // rebuild the same EDB onto the existential rule set when selected
        // (the generator's rule choice must not correlate with the schedule)
        let program = if existential {
            let mut p = vadalog_parser::parse_program(&rules(true)).unwrap();
            for f in &program.facts {
                p.add_fact(f.clone());
            }
            p
        } else {
            program
        };
        let options = ReasonerOptions {
            parallelism: threads,
            ..ReasonerOptions::default()
        };
        let mut session = Reasoner::with_options(options)
            .session(&program)
            .unwrap();
        // interleave a query before the appends: the promoted layers must
        // not disturb later answers
        let _ = session.query(&query).unwrap();
        for batch in &schedule {
            session.append_facts(batch.iter().cloned()).unwrap();
        }
        let mut rebuilt = Reasoner::with_options(options)
            .session(&union_program(&program, &schedule))
            .unwrap();
        let live = session.query(&query).unwrap();
        let fresh = rebuilt.query(&query).unwrap();
        prop_assert_eq!(
            &live.answers,
            &fresh.answers,
            "layered session diverges from union rebuild (threads={}, existential={})",
            threads,
            existential
        );
        prop_assert_eq!(live.used_magic_sets, fresh.used_magic_sets);
        // and a repeat query on the layered session must not drift
        let again = session.query(&query).unwrap();
        prop_assert_eq!(&again.answers, &fresh.answers, "repeat layered query drifts");
    }

    /// The maintained live instance: materialise → append* → outputs equals
    /// a from-scratch materialisation of the union EDB (set-level — the
    /// delta derivation order differs), and the `incremental = false`
    /// rebuild ablation agrees. Null-free slice, so set equality is exact.
    #[test]
    fn incremental_materialisation_equals_rebuild(
        program_schedule in program_and_schedule(false),
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let (program, schedule) = program_schedule;
        let options = ReasonerOptions {
            parallelism: threads,
            ..ReasonerOptions::default()
        };
        let mut incremental = Reasoner::with_options(options)
            .session(&program)
            .unwrap();
        incremental.materialise().unwrap();
        let mut ablation = Reasoner::with_options(ReasonerOptions {
            incremental: false,
            ..options
        })
        .session(&program)
        .unwrap();
        ablation.materialise().unwrap();
        for batch in &schedule {
            incremental.append_facts(batch.iter().cloned()).unwrap();
            ablation.append_facts(batch.iter().cloned()).unwrap();
        }
        let union = union_program(&program, &schedule);
        let mut scratch = Reasoner::with_options(options).session(&union).unwrap();
        let reference = canon(scratch.outputs().unwrap());
        prop_assert_eq!(
            canon(incremental.outputs().unwrap()),
            reference.clone(),
            "incremental maintenance diverges from scratch (threads={})",
            threads
        );
        prop_assert_eq!(
            canon(ablation.outputs().unwrap()),
            reference,
            "rebuild ablation diverges from scratch (threads={})",
            threads
        );
    }
}
