//! Tier-1 smoke for the join executor: every stage kind of the stage
//! interpreter — all-probe plans, an intersect stage between ear probes, an
//! intersect stage alone, and an intersect stage over tries mounted on a
//! layered session base — runs under the root `cargo test`, each checked
//! against the naive chase and the `Binary` reference, with the work its
//! plan does pinned exactly: a plan change shows up here as a moved count.

use std::collections::{BTreeMap, BTreeSet};
use vadalog::engine::{AccessPlan, JoinStrategy, Pipeline};
use vadalog::{Reasoner, ReasonerOptions, RunResult};
use vadalog_chase::{run_chase, ChaseOptions, WardedStrategy};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;

const EDGES: &str = "Edge(1, 2). Edge(2, 3). Edge(1, 3). Edge(3, 4). Edge(2, 4). Edge(1, 4).\n\
                     Edge(4, 1). Pend(3, 30). Pend(4, 40). Pend(4, 41).\n";

/// The work counters a plan decides: probes, scans, leapfrog work and the
/// activations, batches and facts they produce. None depends on the worker
/// count.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    join_probes: u64,
    index_probes: u64,
    range_probes: u64,
    scan_fallbacks: u64,
    wcoj_activations: u64,
    wcoj_seeks: u64,
    wcoj_intersections: u64,
    hybrid_activations: u64,
    productive_activations: usize,
    sweep_batches: usize,
    facts_derived: usize,
}

fn work(run: &RunResult) -> Work {
    let s = &run.stats.pipeline;
    Work {
        join_probes: s.join_probes,
        index_probes: s.index_probes,
        range_probes: s.range_probes,
        scan_fallbacks: s.scan_fallbacks,
        wcoj_activations: s.wcoj_activations,
        wcoj_seeks: s.wcoj_seeks,
        wcoj_intersections: s.wcoj_intersections,
        hybrid_activations: s.hybrid_activations,
        productive_activations: s.productive_activations,
        sweep_batches: s.sweep_batches,
        facts_derived: s.facts_derived,
    }
}

/// Run `rules` over [`EDGES`] through `reason_text` and compare `output`
/// fact-for-fact with the `Binary` reference (same rows, same order) and
/// with the chase (same set). Returns the default run for stat assertions.
fn check(rules: &str, output: &str) -> RunResult {
    let src = format!("{EDGES}{rules}\n@output(\"{output}\").");
    let run = Reasoner::new().reason_text(&src).unwrap();
    assert!(!run.output(output).is_empty(), "{output} is empty");

    let binary = Reasoner::with_options(ReasonerOptions {
        join_strategy: JoinStrategy::Binary,
        ..Default::default()
    })
    .reason_text(&src)
    .unwrap();
    assert_eq!(binary.stats.pipeline.wcoj_activations, 0);
    assert_eq!(binary.stats.pipeline.hybrid_activations, 0);
    assert_eq!(run.output(output), binary.output(output), "vs Binary");

    let program = parse_program(&src).unwrap();
    let chase = run_chase(
        &program,
        &mut WardedStrategy::new(),
        &ChaseOptions::default(),
    );
    let set = |facts: Vec<Fact>| facts.into_iter().collect::<BTreeSet<Fact>>();
    assert_eq!(
        set(run.output(output)),
        set(chase.facts_of(output)),
        "vs chase"
    );
    run
}

#[test]
fn acyclic_bodies_run_probe_stages_only() {
    let run = check("Edge(x, y), Edge(y, z), Pend(z, w) -> Path(x, w).", "Path");
    assert_eq!(
        work(&run),
        Work {
            join_probes: 37,
            index_probes: 17,
            range_probes: 0,
            scan_fallbacks: 0,
            wcoj_activations: 0,
            wcoj_seeks: 0,
            wcoj_intersections: 0,
            hybrid_activations: 0,
            productive_activations: 1,
            sweep_batches: 1,
            facts_derived: 8,
        }
    );
}

#[test]
fn ranged_steps_probe_prefix_and_range_in_one_index() {
    // The `Edge` delta probes `Pend` on `y` (column 0) and ranges `w > 35`
    // on column 1.
    let run = check("Edge(x, y), Pend(y, w), w > 35 -> Big(x, w).", "Big");
    assert_eq!(
        work(&run),
        Work {
            join_probes: 16,
            index_probes: 7,
            range_probes: 7,
            scan_fallbacks: 0,
            wcoj_activations: 0,
            wcoj_seeks: 0,
            wcoj_intersections: 0,
            hybrid_activations: 0,
            productive_activations: 1,
            sweep_batches: 1,
            facts_derived: 6,
        }
    );
}

#[test]
fn negated_atoms_are_probed_after_the_join() {
    // A two-step path whose end has no edge back to its start.
    let run = check(
        "Edge(x, y), Edge(y, z), not Edge(z, x) -> Open(x, z).",
        "Open",
    );
    assert_eq!(
        work(&run),
        Work {
            join_probes: 24,
            index_probes: 7,
            range_probes: 0,
            scan_fallbacks: 0,
            wcoj_activations: 0,
            wcoj_seeks: 0,
            wcoj_intersections: 0,
            hybrid_activations: 0,
            productive_activations: 1,
            sweep_batches: 1,
            facts_derived: 4,
        }
    );
}

#[test]
fn lollipop_bodies_leapfrog_the_core_between_ear_probes() {
    let run = check(
        "Edge(x, y), Edge(y, z), Edge(x, z), Pend(z, w) -> Lolli(x, y, z, w).",
        "Lolli",
    );
    assert_eq!(
        work(&run),
        Work {
            join_probes: 14,
            index_probes: 4,
            range_probes: 0,
            scan_fallbacks: 0,
            wcoj_activations: 0,
            wcoj_seeks: 15,
            wcoj_intersections: 4,
            hybrid_activations: 4,
            productive_activations: 1,
            sweep_batches: 1,
            facts_derived: 7,
        }
    );
}

#[test]
fn triangle_bodies_are_one_intersect_stage() {
    let run = check(
        "Edge(x, y), Edge(y, z), Edge(x, z) -> Triangle(x, y, z).",
        "Triangle",
    );
    assert_eq!(
        work(&run),
        Work {
            join_probes: 7,
            index_probes: 0,
            range_probes: 0,
            scan_fallbacks: 0,
            wcoj_activations: 3,
            wcoj_seeks: 15,
            wcoj_intersections: 4,
            hybrid_activations: 0,
            productive_activations: 1,
            sweep_batches: 1,
            facts_derived: 4,
        }
    );
    // (1,2,3), (1,2,4), (1,3,4), (2,3,4).
    assert_eq!(run.output("Triangle").len(), 4);
}

#[test]
fn layered_session_queries_leapfrog_on_base_indexes() {
    // The `T` trie walks a three-column permutation no binary probe plans,
    // and after an append the base holds appended rows: the session builds the
    // core's trie lists on the base, and the cursors walk those runs.
    let src = "T(0, 2, 3). A(2, 4). B(3, 4). Pend(0, 100).\n\
               T(x, y, u), A(y, v), B(u, v), Pend(x, w) -> Out(x, y, u, v, w).\n\
               @output(\"Out\").";
    let program = parse_program(src).unwrap();
    let int = |p: &str, args: &[i64]| Fact::new(p, args.iter().map(|a| Value::Int(*a)).collect());
    let batch = [
        int("T", &[1, 5, 6]),
        int("A", &[5, 7]),
        int("B", &[6, 7]),
        int("Pend", &[1, 101]),
    ];
    let mut session = Reasoner::new().session(&program).unwrap();
    session.append_facts(batch.clone()).unwrap();
    let query = Atom {
        predicate: intern("Out"),
        terms: std::iter::once(Term::Const(Value::Int(1)))
            .chain(["y", "u", "v", "w"].map(Term::var))
            .collect(),
    };
    let answer = session.query(&query).unwrap();
    assert!(answer.run.stats.pipeline.hybrid_activations > 0);

    let mut union = program.clone();
    for f in batch {
        union.add_fact(f);
    }
    let run = Reasoner::new().reason(&union).unwrap();
    let from_run: Vec<Fact> = run
        .output("Out")
        .into_iter()
        .filter(|f| f.args[0] == Value::Int(1))
        .collect();
    assert_eq!(answer.answers, from_run);
    assert_eq!(answer.answers, vec![int("Out", &[1, 5, 6, 7, 101])]);
}

/// The index lists a plain [`Pipeline`] run leaves on its relations, by
/// predicate.
fn built_index_cols(src: &str) -> (AccessPlan, BTreeMap<Sym, BTreeSet<Vec<usize>>>) {
    let program = parse_program(src).unwrap();
    let plan = AccessPlan::compile(&program);
    let mut pipeline = Pipeline::new(&plan, Box::new(WardedStrategy::new()));
    pipeline.load_facts(program.facts.clone());
    pipeline.run();
    let store = pipeline.store();
    let mut built: BTreeMap<Sym, BTreeSet<Vec<usize>>> = BTreeMap::new();
    for predicate in store.predicates() {
        let lists = store.relation(predicate).unwrap().indexed_col_lists();
        if !lists.is_empty() {
            built.insert(predicate, lists.iter().map(|c| c.to_vec()).collect());
        }
    }
    (plan, built)
}

#[test]
fn plans_name_exactly_the_indexes_a_run_builds() {
    // A ranged step: the `Control` delta probes `Own` on `[0, 2]` (prefix
    // `y`, range `w > 0.5`), and no run probes `Own` on `[0]` alone. The
    // check and the fold-stratum filter have one atom each.
    let ranged = "Own(\"a\", \"b\", 0.7). Own(\"b\", \"c\", 0.8). Own(\"c\", \"d\", 0.2).\n\
                  Own(x, y, w), w > 0.5 -> Control(x, y).\n\
                  Control(x, y), Own(y, z, w), w > 0.5 -> Control(x, z).\n\
                  Own(x, x, w) -> false.\n\
                  Control(x, y), n = mcount(y) -> Reach(x, n).";
    // A lollipop core with an ear, a negated atom and a check joining
    // three atoms (only its driver's lists are built).
    let mixed = format!(
        "{EDGES}\
         Edge(x, y), Edge(y, z), Edge(x, z), Pend(z, w) -> Lolli(x, w).\n\
         Edge(x, y), not Edge(y, x) -> OneWay(x, y).\n\
         Edge(x, y), Edge(y, x), Pend(x, w) -> false."
    );
    for src in [ranged, mixed.as_str()] {
        let (plan, built) = built_index_cols(src);
        assert_eq!(
            plan.planned_index_cols(JoinStrategy::FreeJoin),
            built,
            "{src}"
        );
    }
    let (_, built) = built_index_cols(ranged);
    assert_eq!(built[&intern("Own")], BTreeSet::from([vec![0, 2]]));
}

#[test]
fn each_strategy_builds_only_the_lists_its_stages_read() {
    // Free join reads `Edge` through the cores' tries alone: the triangle
    // and the lollipop walk `[0, 1]` and `[1, 0]`, and only `Pend` is
    // probed. `Binary` probes every atom and builds the all-probe lists.
    let src = format!(
        "{EDGES}\
         Edge(x, y), Edge(y, z), Edge(x, z) -> Triangle(x, y, z).\n\
         Edge(x, y), Edge(y, z), Edge(x, z), Pend(z, w) -> Lolli(x, y, z, w)."
    );
    let program = parse_program(&src).unwrap();
    let plan = AccessPlan::compile(&program);
    let run = |join_strategy| {
        let options = ReasonerOptions {
            join_strategy,
            ..Default::default()
        };
        let mut pipeline =
            Pipeline::new(&plan, Box::new(WardedStrategy::new())).with_options(&options);
        pipeline.load_facts(program.facts.clone());
        pipeline.run();
        let store = pipeline.store();
        let edge = store.relation(intern("Edge")).unwrap().indexed_col_lists();
        let edge: BTreeSet<Vec<usize>> = edge.iter().map(|c| c.to_vec()).collect();
        (
            edge,
            ["Triangle", "Lolli"].map(|p| store.facts_of(intern(p))),
        )
    };
    let lists =
        |cols: &[&[usize]]| -> BTreeSet<Vec<usize>> { cols.iter().map(|c| c.to_vec()).collect() };
    let (free, free_outputs) = run(JoinStrategy::FreeJoin);
    let (binary, binary_outputs) = run(JoinStrategy::Binary);
    assert_eq!(free, lists(&[&[0, 1], &[1, 0]]));
    assert_eq!(
        free,
        plan.planned_index_cols(JoinStrategy::FreeJoin)[&intern("Edge")]
    );
    assert_eq!(binary, lists(&[&[0], &[1], &[0, 1]]));
    assert!(free_outputs.iter().all(|facts| !facts.is_empty()));
    assert_eq!(free_outputs, binary_outputs);
}

#[test]
fn fold_filters_plan_the_lists_of_every_driver() {
    // A fold-stratum filter drives from its smallest body relation, known
    // only once the fixpoint is reached, so the plan names the lists of
    // both positions. Here `P` (2 rows) drives: the run probes `E` on
    // `[1]`, and the plan's extra list is the `E`-driven position's `P [0]`.
    let src = "E(1, 2). E(2, 3). E(3, 3). P(2, 20). P(3, 30).\n\
               E(x, y), P(y, w), n = mcount(w) -> Fan(x, n).";
    let (plan, built) = built_index_cols(src);
    assert_eq!(plan.fold_stratum(), [0]);
    let planned = plan.planned_index_cols(JoinStrategy::FreeJoin);
    let mut extra = planned.clone();
    for (predicate, lists) in &built {
        let named = extra.get_mut(predicate).expect("a built list is planned");
        assert!(
            lists.is_subset(named),
            "{predicate}: {lists:?} within {named:?}"
        );
        named.retain(|cols| !lists.contains(cols));
    }
    extra.retain(|_, lists| !lists.is_empty());
    let mut idle: BTreeMap<Sym, BTreeSet<Vec<usize>>> = BTreeMap::new();
    for (predicate, cols) in plan.filters[0].index_lists(Some(0), true) {
        idle.entry(predicate).or_default().insert(cols.to_vec());
    }
    assert_eq!(extra, idle);
    assert_eq!(
        extra,
        BTreeMap::from([(intern("P"), BTreeSet::from([vec![0]]))])
    );
    assert_eq!(
        built,
        BTreeMap::from([(intern("E"), BTreeSet::from([vec![1]]))])
    );
}

#[test]
fn rule_constants_leave_the_data_as_loaded() {
    // The interner keeps the first representation of a number it sees, so
    // the rule's `7919.0` must not be interned before the fact's `7919`:
    // the fact stays an integer, and integer division halves it to 3959.
    // Values no other test uses: the interner is process-global.
    let src = "N(7919).\n\
               N(x), x <= 7919.0 -> Low(x).\n\
               N(x), h = x / 2 -> Half(h).\n\
               @output(\"N\"). @output(\"Low\"). @output(\"Half\").";
    let run = Reasoner::new()
        .reason(&parse_program(src).unwrap())
        .unwrap();
    let shown = |predicate: &str| -> Vec<String> {
        run.output(predicate)
            .iter()
            .map(|f| f.to_string())
            .collect()
    };
    assert_eq!(shown("N"), ["N(7919)"]);
    assert_eq!(shown("Low"), ["Low(7919)"]);
    assert_eq!(shown("Half"), ["Half(3959)"]);
}

#[test]
fn peak_batch_matches_counts_the_largest_batch_at_every_worker_count() {
    // A 100-edge chain over nodes 0..=100 and 98 back edges `i + 2 -> i`:
    // 198 edges, 391 two-step paths (in-degree times out-degree summed
    // over the middle node: 1 + 2 + 96 * 4 + 2 + 2) and 294 triangles (3
    // rotations of each `i -> i + 1 -> i + 2 -> i`). No rule reads another's
    // head, so the three filters form one batch, which holds all their
    // matches at once; nothing is left to run after it.
    let mut src = String::new();
    for i in 0..100 {
        src += &format!("Ln({i}, {}). ", i + 1);
    }
    for i in 0..98 {
        src += &format!("Ln({}, {i}). ", i + 2);
    }
    src += "\nLn(x, y) -> Cp(x, y).\n\
            Ln(x, y), Ln(y, z) -> Two(x, z).\n\
            Ln(x, y), Ln(y, z), Ln(z, x) -> Tri(x, y, z).\n\
            @output(\"Cp\"). @output(\"Two\"). @output(\"Tri\").";
    let program = parse_program(&src).unwrap();
    for join_strategy in [JoinStrategy::FreeJoin, JoinStrategy::Binary] {
        for parallelism in [1, 4] {
            let run = Reasoner::with_options(ReasonerOptions {
                join_strategy,
                parallelism,
                ..Default::default()
            })
            .reason(&program)
            .unwrap();
            let setting = (join_strategy, parallelism);
            assert_eq!(run.stats.pipeline.peak_batch_matches, 883, "{setting:?}");
            assert_eq!(run.stats.pipeline.sweep_batches, 1, "{setting:?}");
            assert_eq!(run.output("Tri").len(), 294, "{setting:?}");
        }
    }
}
