//! Property tests for [`vadalog_engine::QuerySession::append_facts`]: a
//! session grown through a random schedule of EDB appends — overlay
//! promotions into immutable base layers — must be **observationally
//! identical** to a fresh session built over the union EDB (initial facts,
//! then every appended fact, in exactly the append order).
//!
//! Both of a session's evaluations are checked *byte-identically* — the
//! same facts in the same order with the same labelled-null ids, at thread
//! counts 1, 2 and 8, since every run reads a fresh overlay whose insertion
//! history replays the union session's exactly:
//!
//! * **query answers**, for random query adornments; they must also hold
//!   what [`vadalog_engine::Reasoner::reason`] derives over the union EDB,
//!   filtered by the query;
//! * **the full instance** ([`vadalog_engine::QuerySession::reason`]): its
//!   `@output`s and its work equal a plain run over the union EDB.
//!
//! The rules negate an appendable EDB predicate, so an append can remove
//! an output fact.

use proptest::prelude::*;
use vadalog_engine::{Reasoner, ReasonerOptions, RunResult};
use vadalog_model::prelude::*;

// ---------------------------------------------------------------- generators

/// The rule set shared by every case: transitive closure, a join against
/// `Mark`, its negation, and two `mcount` sinks, one folding the closure and
/// one folding the appendable `Edge` itself — so appended `Mark` facts both
/// add `Hit` facts and remove `Unmarked` ones, and appended edges grow
/// aggregate groups the EDB already holds. With
/// `existential` the query slice invents labelled nulls, putting sessions
/// on the bottom-up fallback where null ids become observable.
fn rules(existential: bool) -> String {
    let mut src = String::from(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         Reach(x, y), Mark(y) -> Hit(x, y).\n\
         Reach(x, y), not Mark(y) -> Unmarked(x, y).\n\
         Reach(x, y), c = mcount(y) -> OutDegree(x, c).\n\
         Edge(x, y), d = mcount(y), d >= 2 -> Fanout(x, d).\n",
    );
    if existential {
        src.push_str("Hit(x, y) -> Cert(c, x).\n");
        src.push_str("Cert(c, x), Reach(x, y) -> Cert(c, y).\n");
    }
    src.push_str("@output(\"Reach\").\n@output(\"Hit\").\n@output(\"Unmarked\").\n");
    src.push_str("@output(\"OutDegree\").\n@output(\"Fanout\").\n");
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
        prop::sample::select(vec![
            "Reach",
            "Hit",
            "Unmarked",
            "Cert",
            "OutDegree",
            "Fanout",
        ]),
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

/// `program`'s facts under the rule set `existential` selects (the
/// generator's rule choice must not correlate with the schedule).
fn with_rules(program: Program, existential: bool) -> Program {
    if !existential {
        return program;
    }
    let mut p = vadalog_parser::parse_program(&rules(true)).unwrap();
    for f in &program.facts {
        p.add_fact(f.clone());
    }
    p
}

/// The facts of `query`'s predicate in `run`'s instance that match the
/// query atom, sorted: constants agree, repeated variables bind equal
/// values.
fn filtered(run: &RunResult, query: &Atom) -> Vec<Fact> {
    let mut facts: Vec<Fact> = run
        .store
        .facts_of(query.predicate)
        .into_iter()
        .filter(|f| {
            query.terms.iter().enumerate().all(|(i, t)| match t {
                Term::Const(c) => f.args[i] == *c,
                Term::Var(v) => query
                    .terms
                    .iter()
                    .enumerate()
                    .all(|(j, u)| u.as_var() != Some(*v) || f.args[j] == f.args[i]),
            })
        })
        .collect();
    facts.sort();
    facts
}

// ----------------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: after any append schedule, session query
    /// answers are byte-identical — same facts, same order, same null ids —
    /// to a fresh session on the union EDB, at every thread count, on both
    /// the magic-sets path (plain Datalog slice) and the bottom-up fallback
    /// (existential or negated slice), and they are what a plain run over
    /// the union EDB derives, filtered by the query.
    #[test]
    fn append_is_equivalent_to_rebuild(
        program_schedule in program_and_schedule(false),
        existential in any::<bool>(),
        query in random_query(),
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let (program, schedule) = program_schedule;
        let program = with_rules(program, existential);
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
        let union = union_program(&program, &schedule);
        let mut rebuilt = Reasoner::with_options(options).session(&union).unwrap();
        let layered = session.query(&query).unwrap();
        let fresh = rebuilt.query(&query).unwrap();
        prop_assert_eq!(
            &layered.answers,
            &fresh.answers,
            "layered session diverges from union rebuild (threads={}, existential={})",
            threads,
            existential
        );
        prop_assert_eq!(layered.used_magic_sets, fresh.used_magic_sets);
        let mut answers = layered.answers.clone();
        answers.sort();
        let plain = Reasoner::with_options(options).reason(&union).unwrap();
        prop_assert_eq!(answers, filtered(&plain, &query), "answers diverge from the run");
        // and a repeat query on the layered session must not drift
        let again = session.query(&query).unwrap();
        prop_assert_eq!(&again.answers, &fresh.answers, "repeat layered query drifts");
    }

    /// The full instance after appends: `reason` → append* → `reason`
    /// returns the `@output`s of a plain run over the union EDB — the same
    /// facts in the same order, aggregates folded and negated `Mark`s
    /// removed — and the same derivation work, as does a fresh session.
    #[test]
    fn full_instance_after_appends_equals_rebuild(
        program_schedule in program_and_schedule(false),
        existential in any::<bool>(),
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let (program, schedule) = program_schedule;
        let program = with_rules(program, existential);
        let options = ReasonerOptions {
            parallelism: threads,
            ..ReasonerOptions::default()
        };
        let mut session = Reasoner::with_options(options)
            .session(&program)
            .unwrap();
        session.reason().unwrap();
        for batch in &schedule {
            session.append_facts(batch.iter().cloned()).unwrap();
        }
        let layered = session.reason().unwrap();
        let union = union_program(&program, &schedule);
        let plain = Reasoner::with_options(options).reason(&union).unwrap();
        prop_assert_eq!(
            &layered.outputs,
            &plain.outputs,
            "layered full instance diverges from a plain run (threads={}, existential={})",
            threads,
            existential
        );
        prop_assert_eq!(
            layered.stats.pipeline.facts_derived,
            plain.stats.pipeline.facts_derived
        );
        let rebuilt = Reasoner::with_options(options)
            .session(&union)
            .unwrap()
            .reason()
            .unwrap();
        prop_assert_eq!(&layered.outputs, &rebuilt.outputs);
    }
}
