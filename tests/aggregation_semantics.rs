//! Integration tests for monotonic aggregation (Section 5, Example 10 and
//! the aggregation-based scenarios of Section 6.3).
//!
//! The `pinned_*` tests fix what each aggregate function emits: a digest of
//! the whole final instance (every aggregate fact, in `FactId` order), a
//! digest of the post-processed outputs and the admission counters. An
//! aggregate that streams emits a fact per match that improves its value; a
//! sink aggregate in the final stratum emits one per group, so its instance
//! digest and counters were re-pinned when that stratum came in, while
//! every output digest stayed as first recorded. A faster emission path may
//! not change any of them.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use vadalog_engine::{OutputFacts, Reasoner, ReasonerOptions, RunResult, TerminationKind};
use vadalog_model::prelude::*;
use vadalog_model::FxHasher;

/// Example 10: msum with contributor windowing, final values per group.
#[test]
fn example10_msum_groups() {
    let result = Reasoner::new()
        .reason_text(
            "P(1, 2, 5.0). P(1, 2, 3.0). P(1, 3, 7.0). P(2, 4, 2.0). P(2, 4, 3.0). P(2, 5, 1.0).\n\
             P(x, y, w), j = msum(w, <y>) -> Q(x, j).\n\
             @output(\"Q\").",
        )
        .unwrap();
    let q = result.output("Q");
    assert_eq!(q.len(), 2);
    assert!(q.contains(&Fact::new("Q", vec![Value::Int(1), Value::Float(12.0)])));
    assert!(q.contains(&Fact::new("Q", vec![Value::Int(2), Value::Float(4.0)])));
}

/// The AllPSC grouping of Example 12: one set of persons per company.
#[test]
fn munion_collects_person_sets() {
    let result = Reasoner::new()
        .reason_text(
            "KeyPers(\"c1\", \"alice\"). KeyPers(\"c1\", \"bob\"). KeyPers(\"c2\", \"carol\").\n\
             Pers(\"alice\"). Pers(\"bob\"). Pers(\"carol\").\n\
             Control(\"c1\", \"c2\").\n\
             KeyPers(x, p), Pers(p) -> PSC(x, p).\n\
             Control(y, x), PSC(y, p) -> PSC(x, p).\n\
             PSC(x, p), j = munion(p) -> AllPSC(x, j).\n\
             @output(\"AllPSC\").",
        )
        .unwrap();
    let all = result.output("AllPSC");
    assert_eq!(all.len(), 2);
    let c2 = all.iter().find(|f| f.args[0] == Value::str("c2")).unwrap();
    match &c2.args[1] {
        Value::Set(s) => assert_eq!(s.len(), 3, "c2 inherits alice and bob plus carol"),
        other => panic!("expected a set, got {other}"),
    }
}

/// mcount-based strong links: threshold filtering works and intermediate
/// counts never leak into the final output.
#[test]
fn mcount_threshold_and_final_values() {
    let src = "PSCF(\"x\", \"p1\"). PSCF(\"x\", \"p2\"). PSCF(\"x\", \"p3\").\n\
               PSCF(\"y\", \"p1\"). PSCF(\"y\", \"p2\"). PSCF(\"y\", \"p3\").\n\
               PSCF(\"z\", \"p1\").\n\
               PSCF(a, p), PSCF(b, p), a > b, w = mcount(p), w >= 2 -> Linked(a, b, w).\n\
               @output(\"Linked\").";
    let result = Reasoner::new().reason_text(src).unwrap();
    let linked = result.output("Linked");
    // Exactly one surviving group: (y, x) wait — "y" > "x" and they share 3
    // persons; z shares only one with anybody so never reaches the threshold.
    assert_eq!(linked.len(), 1);
    let f = &linked[0];
    assert_eq!(f.args[0], Value::str("y"));
    assert_eq!(f.args[1], Value::str("x"));
    assert_eq!(f.args[2], Value::Int(3), "only the final count is reported");
}

/// Monotonic aggregation composes with recursion (Example 2): the aggregate
/// feeds a recursive predicate and the reasoner still terminates.
#[test]
fn msum_inside_recursion_terminates() {
    let src = "Own(\"h\", \"a\", 0.6). Own(\"h\", \"b\", 0.6).\n\
               Own(\"a\", \"t\", 0.3). Own(\"b\", \"t\", 0.3).\n\
               Own(\"t\", \"deep\", 0.9).\n\
               Own(x, y, w), w > 0.5 -> Control(x, y).\n\
               Control(x, y), Own(y, z, w), v = msum(w, <y>), v > 0.5 -> Control(x, z).\n\
               @output(\"Control\").";
    for termination in [TerminationKind::Warded, TerminationKind::TrivialIso] {
        let result = Reasoner::with_options(ReasonerOptions {
            termination,
            ..Default::default()
        })
        .reason_text(src)
        .unwrap();
        let control = result.output("Control");
        assert!(control.contains(&Fact::new("Control", vec!["h".into(), "t".into()])));
        assert!(control.contains(&Fact::new("Control", vec!["h".into(), "deep".into()])));
        assert!(!control
            .iter()
            .any(|f| f.args[0] == Value::str("a") && f.args[1] == Value::str("t")));
    }
}

/// What a run emitted.
#[derive(Debug, PartialEq, Eq)]
struct Emitted {
    /// Every relation of the final instance, by predicate name, facts in
    /// `FactId` order.
    instance_digest: u64,
    /// The post-processed `@output` facts.
    output_digest: u64,
    facts_derived: usize,
    facts_suppressed: usize,
}

/// Digest of named fact lists. Values are fed through [`Value`]'s own
/// `Hash`, which hashes `Int(2)` like `Float(2.0)`: the digest does not
/// depend on which of two equal values the process interned first, but a
/// different float (another summation order) changes it.
fn digest<'a>(relations: impl IntoIterator<Item = (String, &'a [Fact])>) -> u64 {
    let by_name: BTreeMap<String, &[Fact]> = relations.into_iter().collect();
    let mut h = FxHasher::default();
    for (predicate, facts) in by_name {
        predicate.hash(&mut h);
        facts.len().hash(&mut h);
        for f in facts {
            f.args.hash(&mut h);
        }
    }
    h.finish()
}

fn outputs_digest(outputs: &BTreeMap<Sym, OutputFacts>) -> u64 {
    digest(outputs.iter().map(|(p, f)| (p.to_string(), f.as_slice())))
}

fn emitted(run: &RunResult) -> Emitted {
    let relations: Vec<(String, Vec<Fact>)> = run
        .store
        .predicates()
        .into_iter()
        .map(|p| (p.to_string(), run.store.facts_of(p)))
        .collect();
    Emitted {
        instance_digest: digest(relations.iter().map(|(p, f)| (p.clone(), f.as_slice()))),
        output_digest: outputs_digest(&run.outputs),
        facts_derived: run.stats.pipeline.facts_derived,
        facts_suppressed: run.stats.pipeline.facts_suppressed,
    }
}

fn run(src: &str) -> RunResult {
    Reasoner::new().reason_text(src).expect("program runs")
}

/// `mcount` without contributors counts distinct arguments — `2` and `2.0`
/// are one — and with contributors distinct contributor tuples.
#[test]
fn pinned_mcount_with_and_without_contributors() {
    let result = run(
        "P(1, \"a\", 2). P(1, \"b\", 2.0). P(1, \"c\", 3). P(1, \"c\", 2).\n\
         P(2, \"a\", 2.0). P(2, \"b\", 4.5).\n\
         P(x, k, y), c = mcount(y) -> Distinct(x, c).\n\
         P(x, k, y), c = mcount(y, <k>) -> ByKey(x, c).\n\
         P(x, k, y), c = mcount(k, <k, y>) -> ByPair(x, c).\n\
         P(x, k, y), c = mcount(k, <y>) -> ByNumber(x, c).\n\
         @output(\"Distinct\"). @output(\"ByKey\"). @output(\"ByPair\"). @output(\"ByNumber\").",
    );
    assert!(result
        .output("Distinct")
        .contains(&Fact::new("Distinct", vec![Value::Int(1), Value::Int(2)])));
    assert!(result
        .output("ByNumber")
        .contains(&Fact::new("ByNumber", vec![Value::Int(1), Value::Int(2)])));
    assert_eq!(
        emitted(&result),
        Emitted {
            instance_digest: 589411345675403032,
            output_digest: 2155989388906976771,
            facts_derived: 8,
            facts_suppressed: 0,
        }
    );
}

/// `msum` / `mprod` with contributors over fractional weights: each
/// contributor counts with its largest weight, and the tuples combine in
/// value order, which fixes the rounding.
#[test]
fn pinned_msum_windowing_over_fractional_weights() {
    let result = run(
        "W(\"g\", \"c\", 0.3). W(\"g\", \"a\", 0.1). W(\"g\", \"b\", 0.2).\n\
         W(\"g\", \"a\", 0.05). W(\"g\", \"d\", 0.7). W(\"h\", \"a\", 1.1). W(\"h\", \"b\", 2.2).\n\
         W(g, k, w), s = msum(w, <k>) -> Total(g, s).\n\
         W(g, k, w), p = mprod(w, <k>) -> Product(g, p).\n\
         @output(\"Total\"). @output(\"Product\").",
    );
    assert_eq!(
        emitted(&result),
        Emitted {
            instance_digest: 5538112262654542639,
            output_digest: 18004652553895151236,
            facts_derived: 12,
            facts_suppressed: 2,
        }
    );
}

#[test]
fn pinned_mmin_mmax_and_munion() {
    let result = run(
        "V(\"a\", 3). V(\"a\", 1.5). V(\"a\", 7). V(\"a\", 3.0). V(\"b\", 2). V(\"b\", \"x\").\n\
         V(g, x), lo = mmin(x) -> Low(g, lo).\n\
         V(g, x), hi = mmax(x) -> High(g, hi).\n\
         V(g, x), u = munion(x) -> Members(g, u).\n\
         @output(\"Low\"). @output(\"High\"). @output(\"Members\").",
    );
    assert_eq!(
        emitted(&result),
        Emitted {
            instance_digest: 16706786491915116506,
            output_digest: 1708041951854196503,
            facts_derived: 6,
            facts_suppressed: 0,
        }
    );
}

/// Conditions on the aggregate's output: one on ids (`w >= 2`), one over
/// an expression (`w * 10 != 30`).
#[test]
fn pinned_residual_conditions_on_the_aggregate_output() {
    let result = run(
        "S(\"x\", \"p1\"). S(\"x\", \"p2\"). S(\"x\", \"p3\"). S(\"x\", \"p4\").\n\
         S(\"y\", \"p1\"). S(\"y\", \"p2\"). S(\"y\", \"p3\"). S(\"y\", \"p4\").\n\
         S(\"z\", \"p1\"). S(\"z\", \"p2\"). S(\"w\", \"p3\").\n\
         S(a, p), S(b, p), a > b, w = mcount(p), w >= 2, w * 10 != 30 -> Link(a, b, w).\n\
         @output(\"Link\").",
    );
    assert_eq!(
        emitted(&result),
        Emitted {
            instance_digest: 901721804888771115,
            output_digest: 14389421118856466723,
            facts_derived: 4,
            facts_suppressed: 0,
        }
    );
}

/// Arithmetic reads the aggregate's value as computed: `s` is a float, so
/// `t = s + 1` and `h = s / 4` are float operations even where the equal
/// integer owns the interned id (`6` is stored before the sum `6.0`
/// exists, and `6 / 4` would be the integer `1`, failing `h > 1`).
#[test]
fn pinned_arithmetic_after_an_aggregate() {
    let result = run(
        "N(\"g\", 1). N(\"g\", 2). N(\"g\", 2). N(\"g\", 3). N(\"h\", 1). N(\"h\", 5). N(\"k\", 6).\n\
         N(g, y), s = msum(y, <y>), t = s + 1, t > 3.5 -> Out(g, s, t).\n\
         N(g, y), s = msum(y, <y>), h = s / 4, h > 1 -> Half(g, s).\n\
         @output(\"Out\"). @output(\"Half\").",
    );
    assert_eq!(
        emitted(&result),
        Emitted {
            instance_digest: 4279142778321606164,
            output_digest: 5613074700475302165,
            facts_derived: 7,
            facts_suppressed: 0,
        }
    );
}

/// Appended contributions fold into the groups the EDB already holds: a
/// session's full instance after the append has the final value per group.
#[test]
fn pinned_append_folds_into_existing_groups() {
    let src = "E(\"a\", \"b\", 0.4). E(\"a\", \"c\", 0.3). E(\"d\", \"b\", 1.0).\n\
               E(x, y, w), s = msum(w, <y>) -> Weight(x, s).\n\
               E(x, y, w), n = mcount(y) -> Degree(x, n).\n\
               E(x, y, w), u = munion(y) -> Targets(x, u).\n\
               @output(\"Weight\"). @output(\"Degree\"). @output(\"Targets\").";
    let mut session = Reasoner::new().session_text(src).unwrap();
    session.reason().unwrap();
    let edge = |x: &str, y: &str, w: f64| {
        Fact::new("E", vec![Value::str(x), Value::str(y), Value::Float(w)])
    };
    session
        .append_facts([
            edge("a", "b", 0.6),
            edge("a", "e", 0.25),
            edge("f", "b", 2.0),
        ])
        .unwrap();
    let outputs = session.reason().unwrap().outputs;
    assert_eq!(outputs_digest(&outputs), 12428835063035610314);
}

/// Sink aggregates for the query test: an `mcount` with a threshold (it
/// runs in the final stratum) and an `msum` (it keeps monotonic emission).
const SINKS: &str = "S(\"x\", \"p1\"). S(\"x\", \"p2\"). S(\"x\", \"p3\"). S(\"x\", \"p4\").\n\
     S(\"y\", \"p1\"). S(\"y\", \"p2\"). S(\"y\", \"p3\"). S(\"y\", \"p4\").\n\
     S(\"z\", \"p1\"). S(\"z\", \"p2\").\n\
     W(\"g\", \"a\", 0.5). W(\"g\", \"b\", 0.25). W(\"g\", \"a\", 0.125). W(\"h\", \"a\", 1.5).\n\
     S(a, p), S(b, p), a > b, w = mcount(p), w >= 2 -> Link(a, b, w).\n\
     W(g, k, v), t = msum(v, <k>) -> Total(g, t).\n\
     @output(\"Link\"). @output(\"Total\").";

/// The answers each query must give, written by hand: the final value per
/// group, as `run` reports it, filtered by the query.
fn expected_sink_answers() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "Link(a, b, w)",
            vec![
                "Link(\"y\", \"x\", 4)",
                "Link(\"z\", \"x\", 2)",
                "Link(\"z\", \"y\", 2)",
            ],
        ),
        (
            "Link(a, b, 2)",
            vec!["Link(\"z\", \"x\", 2)", "Link(\"z\", \"y\", 2)"],
        ),
        ("Link(\"y\", b, w)", vec!["Link(\"y\", \"x\", 4)"]),
        ("Link(a, b, 3)", vec![]),
        (
            "Total(g, t)",
            vec!["Total(\"g\", 0.75)", "Total(\"h\", 1.5)"],
        ),
        ("Total(\"g\", t)", vec!["Total(\"g\", 0.75)"]),
        ("Total(g, 0.5)", vec![]),
    ]
}

/// Query answers on an aggregate sink are the final value per group, the
/// answers `run` gives, never an intermediate value, through the session
/// and through the CLI.
#[test]
fn query_answers_on_aggregate_sinks_equal_run_answers() {
    let run = run(SINKS);
    let mut session = Reasoner::new().session_text(SINKS).unwrap();
    for (query, expected) in expected_sink_answers() {
        let atom = vadalog_cli::commands::parse_query_atom(query).unwrap();
        let mut answers: Vec<String> = session
            .query(&atom)
            .unwrap()
            .answers
            .iter()
            .map(Fact::to_string)
            .collect();
        answers.sort();
        assert_eq!(answers, expected, "session query {query}");
        // Every query here binds constants only (no repeated variable).
        let mut from_run: Vec<String> = run
            .output(&atom.predicate.to_string())
            .iter()
            .filter(|f| {
                atom.terms
                    .iter()
                    .zip(&f.args)
                    .all(|(t, v)| t.as_const().is_none_or(|c| c == v))
            })
            .map(Fact::to_string)
            .collect();
        from_run.sort();
        assert_eq!(from_run, expected, "run outputs for {query}");
    }

    let path = std::env::temp_dir().join(format!(
        "vadalog_aggregation_semantics_{}_sinks.vada",
        std::process::id()
    ));
    std::fs::write(&path, SINKS).unwrap();
    let queries = expected_sink_answers();
    let mut args = vec!["query".to_string(), path.to_string_lossy().into_owned()];
    args.extend(queries.iter().map(|(q, _)| q.to_string()));
    let out = vadalog_cli::run_cli(&args).unwrap();
    std::fs::remove_file(&path).ok();
    // One `% query ...` header per atom, then its answers, one per line.
    let mut blocks: Vec<Vec<String>> = Vec::new();
    for line in out.lines() {
        if line.starts_with("% query ") {
            blocks.push(Vec::new());
        } else if let Some(block) = blocks.last_mut() {
            block.push(line.trim_end_matches('.').to_string());
        }
    }
    assert_eq!(blocks.len(), queries.len(), "{out}");
    for (mut block, (query, expected)) in blocks.into_iter().zip(queries) {
        block.sort();
        assert_eq!(block, expected, "CLI query {query}:\n{out}");
    }
}

/// A sink aggregate in the final stratum reports what monotonic emission
/// reports. Each program runs as is, where its aggregate filters qualify
/// for the final stratum, and again with one rule that reads the aggregate
/// head, which keeps them on monotonic emission: the aggregate `@output`
/// facts must be equal, in order.
#[test]
fn final_stratum_outputs_equal_monotonic_emission() {
    let data = "S(\"x\", \"p1\"). S(\"x\", \"p2\"). S(\"x\", \"p3\"). S(\"y\", \"p1\").\n\
                S(\"y\", \"p2\"). S(\"y\", \"p3\"). S(\"z\", \"p1\"). S(\"z\", \"p3\").\n\
                V(\"a\", 3). V(\"a\", 1.5). V(\"a\", 7). V(\"b\", 2). V(\"b\", 6). V(\"c\", 9).\n\
                E(\"n1\", \"n2\"). E(\"n2\", \"n3\"). E(\"n3\", \"n4\"). E(\"n2\", \"n5\"). E(\"n5\", \"n1\").\n";
    // (head, rules, a rule reading the head)
    let programs = [
        (
            "Link",
            "S(a, p), S(b, p), a > b, w = mcount(p), w >= 2 -> Link(a, b, w).",
            "Link(a, b, w) -> Seen(a).",
        ),
        (
            "Link",
            "S(a, p), S(b, p), a > b, w = mcount(p, <p>), 2 < w -> Link(a, b, w).",
            "Link(a, b, w) -> Seen(a).",
        ),
        (
            "High",
            "V(g, x), hi = mmax(x), 2 <= hi -> High(g, hi).",
            "High(g, hi) -> Seen(g).",
        ),
        (
            "Low",
            "V(g, x), lo = mmin(x), lo < 5 -> Low(g, lo).",
            "Low(g, lo) -> Seen(g).",
        ),
        (
            "Members",
            "V(g, x), u = munion(x) -> Members(g, u).",
            "Members(g, u) -> Seen(g).",
        ),
        (
            "Reach2",
            "E(x, y) -> R(x, y).\n\
             R(x, y), E(y, z) -> R(x, z).\n\
             R(x, y), n = mcount(y), n > 1 -> Reach2(x, n).",
            "Reach2(x, n) -> Seen(x).",
        ),
        (
            "Degree",
            "E(x, y), n = mcount(y) -> Degree(x, n).\n\
             E(y, x), n = mcount(y) -> Degree(x, n).",
            "Degree(x, n) -> Seen(x).",
        ),
    ];
    for (head, rules, reader) in programs {
        let sink = format!("{data}{rules}\n@output(\"{head}\").");
        let read = format!("{sink}\n{reader}");
        let finals = |src: &str| {
            let program = vadalog_parser::parse_program(src).unwrap();
            let plan =
                vadalog_engine::AccessPlan::compile(&vadalog_rewrite::prepare_rules(&program));
            plan.fold_stratum()
                .iter()
                .filter(|&&f| plan.filters[f].has_aggregation)
                .count()
        };
        assert!(finals(&sink) > 0, "{rules} runs in the final stratum");
        assert_eq!(finals(&read), 0, "{reader} keeps {rules} monotonic");
        let (once, streamed) = (run(&sink).output(head), run(&read).output(head));
        assert!(!once.is_empty(), "{rules}");
        assert_eq!(once, streamed, "{rules}");
    }
}
