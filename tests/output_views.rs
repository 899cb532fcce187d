//! `RunResult::outputs` are views over the run's final store: the rows each
//! view selects, and the order it yields them in, written out by hand.

use std::collections::BTreeSet;
use vadalog_engine::{QuerySession, Reasoner, ReasonerOptions, RunResult};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;

fn s(text: &str) -> Value {
    Value::str(text)
}

fn fact(predicate: &str, args: Vec<Value>) -> Fact {
    Fact::new(predicate, args)
}

fn set(members: &[&str]) -> Value {
    Value::Set(members.iter().map(|m| Value::str(m)).collect())
}

/// What the view yields as `&Fact`, in order.
fn facts(result: &RunResult, predicate: &str) -> Vec<Fact> {
    result.outputs[&intern(predicate)].iter().cloned().collect()
}

/// A plain sink yields every row of its relation in `FactId` order, which
/// here is the order `B`'s rows were derived from `A`'s: not sorted.
#[test]
fn a_plain_sink_yields_its_rows_in_fact_id_order() {
    let result = Reasoner::new()
        .reason_text(
            "A(\"c\"). A(\"a\"). A(\"b\").\n\
             A(x) -> B(x).\n\
             @output(\"B\").",
        )
        .unwrap();
    let view = &result.outputs[&intern("B")];
    assert_eq!(view.len(), 3);
    assert!(!view.is_empty());
    let expected = vec![
        fact("B", vec![s("c")]),
        fact("B", vec![s("a")]),
        fact("B", vec![s("b")]),
    ];
    // Ids first: reading rows resolves nothing, and yields the same rows.
    let rows: Vec<Vec<Value>> = view.rows().map(resolve_values).collect();
    assert_eq!(rows, vec![vec![s("c")], vec![s("a")], vec![s("b")]]);
    assert_eq!(facts(&result, "B"), expected);
    assert_eq!(view.iter().count(), view.len());
    assert_eq!((view).into_iter().count(), 3);
    assert_eq!(result.output("B"), expected);
    assert_eq!(result.output("NotAnOutput"), Vec::new());
}

/// `mmax` and `munion` outputs keep one row per group, the final one, and
/// list the groups in the order of their key values. A sink aggregate
/// emits one row per group; an aggregate whose head another rule reads
/// emits a row per improvement, and the view keeps only the last.
#[test]
fn aggregate_sinks_keep_the_final_row_of_each_group_in_key_order() {
    let result = Reasoner::new()
        .reason_text(
            "S(\"b\", 3). S(\"a\", 1). S(\"b\", 5). S(\"a\", 4). S(\"b\", 2).\n\
             S(g, v), m = mmax(v) -> Max(g, m).\n\
             S(g, v), m = mmax(v) -> Best(g, m).\n\
             Best(g, m) -> Seen(g).\n\
             T(g, v), u = munion(v) -> U(g, u).\n\
             T(\"y\", \"p\"). T(\"x\", \"q\"). T(\"y\", \"r\"). T(\"x\", \"p\").\n\
             @output(\"Max\"). @output(\"Best\"). @output(\"U\").",
        )
        .unwrap();
    let maxima = vec![
        fact("Max", vec![s("a"), Value::Int(4)]),
        fact("Max", vec![s("b"), Value::Int(5)]),
    ];
    assert_eq!(facts(&result, "Max"), maxima);
    let best = vec![
        fact("Best", vec![s("a"), Value::Int(4)]),
        fact("Best", vec![s("b"), Value::Int(5)]),
    ];
    assert_eq!(facts(&result, "Best"), best);
    // `Best` streams: the store holds the superseded values too.
    assert!(result.facts_of("Best").len() > 2);
    assert_eq!(result.outputs[&intern("Best")].len(), 2);
    let unions = vec![
        fact("U", vec![s("x"), set(&["p", "q"])]),
        fact("U", vec![s("y"), set(&["p", "r"])]),
    ];
    assert_eq!(facts(&result, "U"), unions);
    assert_eq!(result.outputs[&intern("U")].len(), 2);
}

/// Certain answers drop a row whose `munion` set holds a labelled null,
/// although the set's own id is not a null id.
#[test]
fn certain_answers_drop_a_set_that_holds_a_null() {
    let result = Reasoner::new()
        .reason_text(
            "Person(\"a\"). Link(\"b\", \"c\").\n\
             Person(x) -> Link(x, y).\n\
             Link(x, y), u = munion(y) -> People(x, u).\n\
             @output(\"People\"). @post(\"People\", \"certain\").",
        )
        .unwrap();
    let people = result.facts_of("People");
    assert_eq!(people.len(), 2, "{people:?}");
    let with_null = people.iter().find(|f| f.args[0] == s("a")).unwrap();
    assert!(!with_null.is_ground());
    assert!(!with_null.args[1].interned().is_null());
    let view = &result.outputs[&intern("People")];
    assert_eq!(view.len(), 1);
    assert_eq!(
        facts(&result, "People"),
        vec![fact("People", vec![s("b"), set(&["c"])])]
    );
}

/// A session query's outputs are the same on the cone-cache miss that
/// derives them and on the hit that repeats it.
#[test]
fn a_cone_hit_has_the_outputs_of_its_miss() {
    let mut program = parse_program(
        "Edge(x, y) -> Reach(x, y).\n\
         Reach(x, y), Edge(y, z) -> Reach(x, z).\n\
         @output(\"Reach\").",
    )
    .unwrap();
    for (x, y) in [("a", "b"), ("b", "c"), ("d", "e")] {
        program.add_fact(fact("Edge", vec![s(x), s(y)]));
    }
    let query = Atom {
        predicate: intern("Reach"),
        terms: vec![Term::Const(s("a")), Term::var("y")],
    };
    let mut session = QuerySession::new(&program, ReasonerOptions::default()).unwrap();
    let miss = session.query(&query).unwrap();
    assert!(miss.used_magic_sets);
    let hit = session.query(&query).unwrap();
    assert_eq!(session.cone_cache_hits(), 1);

    let expected: BTreeSet<Fact> = [
        fact("Reach", vec![s("a"), s("b")]),
        fact("Reach", vec![s("a"), s("c")]),
    ]
    .into();
    for result in [&miss, &hit] {
        let answers: BTreeSet<Fact> = result.answers.iter().cloned().collect();
        assert_eq!(answers, expected);
        let reach: BTreeSet<Fact> = facts(&result.run, "Reach").into_iter().collect();
        assert_eq!(reach, expected);
    }
    assert_eq!(hit.answers, miss.answers);
    assert_eq!(hit.run.outputs, miss.run.outputs);
}

/// A query answers what a run outputs: on a sink annotated
/// `@post("P", "certain")` the row holding a labelled null is dropped from
/// the answers too, through the session and through `vadalog query`.
#[test]
fn a_query_answers_only_the_certain_rows_a_run_outputs() {
    let src = "Company(\"a\"). KeyPerson(\"bob\", \"a\").\n\
               Company(x) -> KeyPerson(p, x).\n\
               @output(\"KeyPerson\"). @post(\"KeyPerson\", \"certain\").";
    let certain = vec![fact("KeyPerson", vec![s("bob"), s("a")])];
    let run = Reasoner::new().reason_text(src).unwrap();
    assert_eq!(facts(&run, "KeyPerson"), certain);

    let program = parse_program(src).unwrap();
    let query = Atom {
        predicate: intern("KeyPerson"),
        terms: vec![Term::var("p"), Term::Const(s("a"))],
    };
    let mut session = QuerySession::new(&program, ReasonerOptions::default()).unwrap();
    for _ in 0..2 {
        let result = session.query(&query).unwrap();
        assert_eq!(result.answers, certain);
        assert_eq!(facts(&result.run, "KeyPerson"), certain);
    }

    let path = std::env::temp_dir().join(format!(
        "vadalog_output_views_{}_certain.vada",
        std::process::id()
    ));
    std::fs::write(&path, src).unwrap();
    let args: Vec<String> = ["query", &path.to_string_lossy(), "KeyPerson(p, \"a\")"]
        .iter()
        .map(|a| a.to_string())
        .collect();
    let out = vadalog_cli::run_cli_with(&args, ReasonerOptions::default()).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(out.contains("KeyPerson(\"bob\", \"a\")"), "{out}");
    assert!(!out.contains("_:"), "a null witness answered:\n{out}");
}
