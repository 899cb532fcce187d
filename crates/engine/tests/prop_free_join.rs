//! Property tests for the join executor: on random programs whose rule
//! bodies are acyclic (all probe stages), mixed (a cyclic core leapfrogged
//! between prefix and suffix ear probes) and fully cyclic (an intersect
//! stage and nothing else), the free-join plans must be **bit-identical**
//! to the all-probe `Binary` reference — same facts in the same `FactId`
//! (insertion) order, same labelled-null ids, same deterministic statistics
//! — at every thread count, and so at every chunk layout. The plan shape is
//! an access decision, never a semantics change: the per-row
//! support-vector ordering restores the all-probe enumeration order
//! exactly, so nothing downstream (dedup, null invention, violation
//! reporting) may observe which stages ran.

use proptest::prelude::*;
use vadalog_chase::WardedStrategy;
use vadalog_engine::{AccessPlan, JoinStrategy, Pipeline, PipelineStats, ReasonerOptions};
use vadalog_model::prelude::*;
use vadalog_storage::FactStore;

/// A random program covering every stage layout: fully cyclic bodies
/// (triangle, 4-clique), a triangle core with a pendant suffix ear, the
/// same core behind a constant-bearing prefix ear (the join order puts the
/// most-constant atom first), an acyclic body, recursion feeding derived
/// edges and pendants back through the cyclic joins, conditions, negation,
/// and existential heads so labelled-null identity is observable. Every
/// program also holds a 24-node `Raw` ring (no triangle, no pendant), so
/// the `Edge` windows are wide enough to split into chunks at more than
/// one worker.
fn mixed_program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec((0usize..6, 0usize..6), 1..24),
        prop::collection::vec((0usize..6, 0usize..9), 1..12),
        prop::collection::vec(0usize..6, 0..4),
        prop::collection::vec(0usize..9, 0..3),
    )
        .prop_map(|(edges, pends, hubs, blocked)| {
            let mut program = vadalog_parser::parse_program(
                "Raw(x, y) -> Edge(x, y).\n\
                 Edge(x, y), Edge(y, z), Edge(x, z) -> Triangle(x, y, z).\n\
                 Edge(x, y), Edge(y, z), Edge(x, z), x != z -> Lt(x, z).\n\
                 Edge(x, y), Edge(x, z), Edge(x, w), Edge(y, z), Edge(y, w), Edge(z, w) \
                 -> Clique(x, y, z, w).\n\
                 Edge(x, y), Edge(y, z), Edge(x, z), Pend(z, w) \
                 -> Lolli(x, y, z, w).\n\
                 Edge(x, y), Edge(y, z), Edge(x, z), Pend(z, w), \
                 not Blocked(w), x != w -> Open(x, z, w).\n\
                 Edge(x, y), Edge(y, z), Edge(x, z), Kind(\"hub\", x) -> HubTri(x, y, z).\n\
                 Pend(x, y), Pend(y, z) -> Hop(x, z).\n\
                 Triangle(x, y, z), not Blocked(x) -> Edge(z, x).\n\
                 Lolli(x, y, z, w) -> Pend(x, w).\n\
                 Lolli(x, y, z, w) -> Owner(p, w).\n\
                 Triangle(x, y, z) -> Owner(p, x).",
            )
            .unwrap();
            let pair = |p: &str, a: usize, b: usize| {
                Fact::new(p, vec![Value::Int(a as i64), Value::Int(b as i64)])
            };
            for (a, b) in edges {
                program.add_fact(pair("Raw", a, b));
            }
            for k in 0..RING {
                program.add_fact(pair("Raw", 100 + k, 100 + (k + 1) % RING));
            }
            for (a, b) in pends {
                program.add_fact(pair("Pend", a, b));
            }
            for h in hubs {
                program.add_fact(Fact::new(
                    "Kind",
                    vec![Value::str("hub"), Value::Int(h as i64)],
                ));
            }
            for b in blocked {
                program.add_fact(Fact::new("Blocked", vec![Value::Int(b as i64)]));
            }
            program
        })
}

/// Nodes of the padding ring every program holds.
const RING: usize = 24;

/// One run: the strategy and the worker count (also the shard bound).
fn run(
    p: &Program,
    strategy: JoinStrategy,
    threads: usize,
) -> (FactStore, PipelineStats, Vec<String>) {
    let plan = AccessPlan::compile(p);
    let mut pipeline =
        Pipeline::new(&plan, Box::new(WardedStrategy::new())).with_options(&ReasonerOptions {
            join_strategy: strategy,
            parallelism: threads,
            ..ReasonerOptions::default()
        });
    pipeline.load_facts(p.facts.clone());
    let violations = pipeline.run();
    let stats = pipeline.stats();
    (pipeline.into_store(), stats, violations)
}

const PREDS: [&str; 13] = [
    "Raw", "Edge", "Pend", "Kind", "Blocked", "Triangle", "Lt", "Clique", "Lolli", "Open",
    "HubTri", "Hop", "Owner",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Free-join × binary, threads 1/2/4/8: exact instance equality (facts,
    /// FactId order, labelled-null ids) and pinned deterministic stats
    /// against the sequential binary-join reference.
    #[test]
    fn free_join_is_bit_identical_to_binary(p in mixed_program()) {
        let (ref_store, ref_stats, ref_violations) = run(&p, JoinStrategy::Binary, 1);
        prop_assert_eq!(ref_stats.hybrid_activations, 0);
        prop_assert_eq!(ref_stats.wcoj_activations, 0);
        prop_assert_eq!(ref_stats.wcoj_seeks, 0);
        prop_assert_eq!(ref_stats.wcoj_intersections, 0);
        let matrix = [
            (JoinStrategy::FreeJoin, 1),
            (JoinStrategy::FreeJoin, 2),
            (JoinStrategy::FreeJoin, 4),
            (JoinStrategy::FreeJoin, 8),
            (JoinStrategy::Binary, 2),
            (JoinStrategy::Binary, 8),
        ];
        for &(strategy, threads) in &matrix {
            let (store, stats, violations) = run(&p, strategy, threads);
            for pred in PREDS {
                // Exact Vec equality: same facts, same insertion order,
                // same null ids — bit-identical, not merely isomorphic.
                prop_assert_eq!(
                    ref_store.facts_of(intern(pred)),
                    store.facts_of(intern(pred)),
                    "instances diverge on {} ({:?}, threads={})",
                    pred, strategy, threads
                );
            }
            prop_assert_eq!(&ref_violations, &violations);
            prop_assert_eq!(ref_stats.facts_derived, stats.facts_derived);
            prop_assert_eq!(ref_stats.facts_suppressed, stats.facts_suppressed);
            prop_assert_eq!(ref_stats.nulls_invented, stats.nulls_invented);
            prop_assert_eq!(ref_stats.iterations, stats.iterations);
            prop_assert_eq!(ref_stats.sweep_batches, stats.sweep_batches);
            if threads > 1 {
                // Some activation split: more work items than activations.
                prop_assert!(stats.intra_filter_chunks > ref_stats.intra_filter_chunks);
            }
            match strategy {
                JoinStrategy::FreeJoin => {
                    // Every stage layout is exercised in one run: cores
                    // wrapped in ears and fully cyclic bodies.
                    prop_assert!(
                        stats.hybrid_activations > 0,
                        "mixed bodies must compile an intersect stage between ears"
                    );
                    prop_assert!(
                        stats.wcoj_activations > 0,
                        "fully cyclic bodies must compile an intersect stage with no ears"
                    );
                }
                JoinStrategy::Binary => {
                    prop_assert_eq!(stats.hybrid_activations, 0);
                    prop_assert_eq!(stats.wcoj_activations, 0);
                    prop_assert_eq!(stats.wcoj_seeks, 0);
                    prop_assert_eq!(stats.wcoj_intersections, 0);
                }
            }
        }
        // The work counters do not depend on the chunk layout (chunk merges
        // are deterministic sums of per-delta-row work): one chunk per
        // window at one worker and up to eight per window agree...
        let (_, a, _) = run(&p, JoinStrategy::FreeJoin, 1);
        let (_, b, _) = run(&p, JoinStrategy::FreeJoin, 8);
        prop_assert_eq!(a.join_probes, b.join_probes);
        prop_assert_eq!(a.index_probes, b.index_probes);
        prop_assert_eq!(a.scan_fallbacks, b.scan_fallbacks);
        prop_assert_eq!(a.hybrid_activations, b.hybrid_activations);
        prop_assert_eq!(a.wcoj_activations, b.wcoj_activations);
        prop_assert_eq!(a.wcoj_seeks, b.wcoj_seeks);
        prop_assert_eq!(a.wcoj_intersections, b.wcoj_intersections);
        // ...and the layout itself repeats run to run at one setting.
        let (_, c, _) = run(&p, JoinStrategy::FreeJoin, 8);
        prop_assert_eq!(b.intra_filter_chunks, c.intra_filter_chunks);
        prop_assert_eq!(&b.batch_width_hist, &c.batch_width_hist);
    }
}
