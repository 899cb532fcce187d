//! Snapshot-isolation property test: hammer a [`ReasoningServer`] with a
//! random interleaving of concurrent queries and appends, then verify every
//! answer is **byte-identical** (after canonical sorting) to a fresh
//! session over exactly the EDB prefix its `observed_stamp` names.
//!
//! The oracle construction relies on two server guarantees:
//! * every append batch here is globally unique (per-batch node
//!   namespaces), so each batch promotes exactly once and its
//!   [`Response::Appended`] stamp identifies its position in the promote
//!   order — stamp `k` means "the k-th promoted batch";
//! * an answer tagged `observed_stamp = s` was computed on a copy-on-write
//!   snapshot containing precisely the batches promoted at stamps
//!   `1..=s` — no torn reads of a half-promoted batch, no lost layers.
//!
//! Worker concurrency (2 and 8 workers) is drawn next to intra-query
//! parallelism (1 and 4 threads per query): the two must compose.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use vadalog_engine::ReasonerOptions;
use vadalog_model::prelude::*;
use vadalog_server::{ReasoningServer, Request, Response, ServerConfig};

fn edge(a: &str, b: &str) -> Fact {
    Fact::new("Edge", vec![Value::str(a), Value::str(b)])
}

fn chain_program(n: usize, extra: &[Fact]) -> Program {
    let mut program = vadalog_parser::parse_program(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         @output(\"Reach\").",
    )
    .unwrap();
    for i in 0..n {
        program.add_fact(edge(&format!("n{i}"), &format!("n{}", i + 1)));
    }
    for f in extra {
        program.add_fact(f.clone());
    }
    program
}

fn reach(source: &str) -> Atom {
    Atom {
        predicate: intern("Reach"),
        terms: vec![Term::Const(Value::str(source)), Term::var("y")],
    }
}

/// One append batch: edges that link a chain node into the batch's own
/// node namespace and extend it — unique across batches by construction.
fn batch_facts(batch: usize, chain_n: usize, links: &[(usize, usize)]) -> Vec<Fact> {
    let mut facts = BTreeSet::new();
    for (from, len) in links {
        let entry = format!("b{batch}x0");
        facts.insert(edge(&format!("n{}", from % (chain_n + 1)), &entry));
        for j in 0..*len {
            facts.insert(edge(
                &format!("b{batch}x{j}"),
                &format!("b{batch}x{}", j + 1),
            ));
        }
    }
    facts.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn concurrent_answers_match_the_stamped_prefix_oracle(
        chain_n in 2usize..6,
        batches in prop::collection::vec(
            prop::collection::vec((0usize..8, 1usize..3), 1..3),
            1..5,
        ),
        query_sources in prop::collection::vec(0usize..10, 4..10),
        workers in prop::sample::select(vec![2usize, 8]),
        parallelism in prop::sample::select(vec![1usize, 4]),
        shuffle_seed in any::<u32>(),
    ) {
        let batches: Vec<Vec<Fact>> = batches
            .iter()
            .enumerate()
            .map(|(i, links)| batch_facts(i, chain_n, links))
            .collect();
        // Query sources span the chain and the batch namespaces.
        let sources: Vec<String> = query_sources
            .iter()
            .map(|s| {
                if *s <= chain_n {
                    format!("n{s}")
                } else {
                    format!("b{}x0", (*s - chain_n - 1) % batches.len().max(1))
                }
            })
            .collect();

        // Random interleaving of appends and queries.
        let mut ops: Vec<Request> = batches
            .iter()
            .map(|b| Request::Append(b.clone()))
            .chain(sources.iter().map(|s| Request::Query(reach(s))))
            .collect();
        let mut rng = StdRng::seed_from_u64(shuffle_seed as u64);
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.gen_range(0..=i));
        }

        let program = chain_program(chain_n, &[]);
        let server = ReasoningServer::start(
            &program,
            ServerConfig {
                workers,
                queue_cap: 1024,
                options: ReasonerOptions {
                    parallelism,
                    ..ReasonerOptions::default()
                },
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let tickets: Vec<_> = ops.iter().map(|op| server.submit(op.clone())).collect();
        let responses: Vec<Response> = tickets.into_iter().map(Ticket::recv).collect();
        server.shutdown();

        // Reconstruct the promote order: each unique batch promoted once,
        // so its response stamp is its position in the order.
        let mut stamp_of_batch: Vec<u64> = Vec::new();
        let mut appended_batches: Vec<(u64, &Vec<Fact>)> = Vec::new();
        for (op, resp) in ops.iter().zip(&responses) {
            if let Request::Append(facts) = op {
                match resp {
                    Response::Appended { appended, stamp, .. } => {
                        prop_assert_eq!(*appended, facts.len());
                        appended_batches.push((*stamp, facts));
                        stamp_of_batch.push(*stamp);
                    }
                    other => prop_assert!(false, "append got {:?}", other),
                }
            }
        }
        let stamps: BTreeSet<u64> = stamp_of_batch.iter().copied().collect();
        prop_assert_eq!(stamps.len(), batches.len(), "each batch promotes exactly once");
        prop_assert_eq!(stamps.iter().max().copied(), Some(batches.len() as u64));

        // Oracle check: every answer equals a fresh session over the EDB
        // prefix its observed stamp names.
        for (op, resp) in ops.iter().zip(&responses) {
            let Request::Query(atom) = op else { continue };
            let Response::Answers { answers, used_magic_sets, observed_stamp } = resp else {
                prop_assert!(false, "query got {:?}", resp);
                unreachable!();
            };
            let prefix: Vec<Fact> = appended_batches
                .iter()
                .filter(|(stamp, _)| *stamp <= *observed_stamp)
                .flat_map(|(_, facts)| facts.iter().cloned())
                .collect();
            let oracle_program = chain_program(chain_n, &prefix);
            let mut oracle = vadalog_engine::Reasoner::new()
                .session(&oracle_program)
                .unwrap();
            let expected = oracle.query(atom).unwrap();
            let mut expected_answers = expected.answers;
            expected_answers.sort();
            prop_assert_eq!(
                answers,
                &expected_answers,
                "stamp {} diverges from its prefix oracle",
                observed_stamp
            );
            prop_assert_eq!(*used_magic_sets, expected.used_magic_sets);
        }
    }
}

use vadalog_server::Ticket;
