//! Property tests for [`vadalog_engine::QuerySession`]: answering a query
//! atom on a session — copy-on-write EDB snapshot, cached adorned
//! compile, a fresh termination strategy per run — must be
//! **observationally identical** to a fresh bottom-up run of the whole
//! program with value-level post-filtering, for random chain/join
//! programs, random query adornments, every thread count and with the
//! magic-sets rewrite both on and off.
//!
//! "Identical" is exact: the same facts *including labelled-null ids* (the
//! fallback path replays the fresh run's admission and invention order bit
//! for bit; the magic path derives no nulls by construction).

use proptest::prelude::*;
use std::collections::BTreeSet;
use vadalog_engine::{Reasoner, ReasonerOptions};
use vadalog_model::prelude::*;

// ---------------------------------------------------------------- generators

/// A random chain/join program: an Edge graph, transitive closure, a Mark
/// relation joined against it, and (optionally) an existential rule on the
/// query slice — which pushes the session onto the bottom-up fallback path
/// and makes labelled nulls observable in the answers.
fn chain_join_program(existential: bool) -> impl Strategy<Value = Program> {
    (
        prop::collection::vec((0usize..6, 0usize..6), 1..18),
        prop::collection::vec(0usize..6, 0..5),
    )
        .prop_map(move |(edges, marks)| {
            let mut src = String::from(
                "Edge(x, y) -> Reach(x, y).\n\
                 Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
                 Reach(x, y), Mark(y) -> Hit(x, y).\n",
            );
            if existential {
                src.push_str("Hit(x, y) -> Cert(c, x).\n");
                src.push_str("Cert(c, x), Reach(x, y) -> Cert(c, y).\n");
            }
            src.push_str("@output(\"Reach\").\n@output(\"Hit\").\n");
            let mut program = vadalog_parser::parse_program(&src).unwrap();
            for (a, b) in edges {
                program.add_fact(Fact::new(
                    "Edge",
                    vec![Value::str(&format!("n{a}")), Value::str(&format!("n{b}"))],
                ));
            }
            for m in marks {
                program.add_fact(Fact::new("Mark", vec![Value::str(&format!("n{m}"))]));
            }
            program
        })
}

/// A random query atom over the program's IDB: predicate, and per position
/// either a bound constant (sometimes absent from the domain) or a free
/// variable (sometimes repeated, forcing an id-equality group).
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
                        // c in 6..8 denotes a constant outside the domain
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

/// The reference semantics: a fresh bottom-up run of the full program, with
/// the query predicate's facts post-filtered by value-level matching.
fn fresh_post_filter(program: &Program, query: &Atom, threads: usize) -> BTreeSet<Fact> {
    let full = Reasoner::with_options(ReasonerOptions {
        parallelism: threads,
        ..ReasonerOptions::default()
    })
    .reason(program)
    .expect("fresh bottom-up run failed");
    full.store
        .facts_of(query.predicate)
        .into_iter()
        .filter(|f| query.match_fact(f, &Substitution::new()).is_some())
        .collect()
}

// ----------------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Datalog slice: session answers equal the fresh bottom-up +
    /// post-filter reference at every thread count — through magic sets
    /// for a query with a bound position, through the bottom-up fallback
    /// for a fully free one — repeat queries hit the compile cache without
    /// changing anything, and a session that first answered a freer variant
    /// of the query answers exactly what a cold session answers, order
    /// included.
    #[test]
    fn session_answers_equal_fresh_post_filtering(
        program in chain_join_program(false),
        query in random_query(),
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let reference = fresh_post_filter(&program, &query, threads);
        let reasoner = Reasoner::with_options(ReasonerOptions {
            parallelism: threads,
            ..ReasonerOptions::default()
        });
        let mut session = reasoner.session(&program).unwrap();
        let first: BTreeSet<Fact> = session.query(&query).unwrap().answers.into_iter().collect();
        prop_assert_eq!(
            &first,
            &reference,
            "session diverges from fresh post-filter at {} threads",
            threads
        );
        // a repeat on the same session is served from the caches and must
        // not drift
        let again: BTreeSet<Fact> = session.query(&query).unwrap().answers.into_iter().collect();
        prop_assert_eq!(&again, &reference, "repeat query drifts");
        prop_assert_eq!(session.edb_builds(), 1);
        // History independence: free the first bound position, ask that
        // freer query first, then the query itself.
        if let Some(pos) = query.terms.iter().position(|t| matches!(t, Term::Const(_))) {
            let mut freer = query.clone();
            freer.terms[pos] = Term::var("freed");
            let reasoner = Reasoner::with_options(ReasonerOptions {
                parallelism: threads,
                ..ReasonerOptions::default()
            });
            let mut warm = reasoner.session(&program).unwrap();
            warm.query(&freer).unwrap();
            let after_freer = warm.query(&query).unwrap().answers;
            let cold = reasoner.session(&program).unwrap().query(&query).unwrap().answers;
            prop_assert_eq!(
                after_freer,
                cold,
                "answers after {} differ from a cold session's at {} threads",
                freer,
                threads
            );
        }
    }

    /// Existential slice (bottom-up fallback): answers — *including
    /// labelled-null ids* — equal the fresh reference exactly, at every
    /// thread count. The per-run strategy and the shared snapshot must
    /// replay the fresh run's null invention order bit for bit.
    #[test]
    fn session_fallback_replays_nulls_exactly(
        program in chain_join_program(true),
        query in random_query(),
        threads in prop::sample::select(vec![1usize, 2, 8]),
    ) {
        let reference = fresh_post_filter(&program, &query, threads);
        let reasoner = Reasoner::with_options(ReasonerOptions {
            parallelism: threads,
            ..ReasonerOptions::default()
        });
        let mut session = reasoner.session(&program).unwrap();
        let result = session.query(&query).unwrap();
        let answers: BTreeSet<Fact> = result.answers.into_iter().collect();
        prop_assert_eq!(
            &answers,
            &reference,
            "fallback session diverges (incl. null ids) at {} threads",
            threads
        );
        // and a second query still starts from a clean overlay
        let again: BTreeSet<Fact> =
            session.query(&query).unwrap().answers.into_iter().collect();
        prop_assert_eq!(&again, &reference, "second fallback query drifts");
    }
}
