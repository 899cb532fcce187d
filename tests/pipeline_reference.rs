//! The plain `Pipeline` path — `Pipeline::new` over an access plan,
//! `load_facts`, `run` — against `Reasoner::reason`, which runs the same
//! plan over a one-shot session's copy-on-write overlay. The benchmark's
//! traced pass replays the plain path stage by stage, so the two must do the
//! same work: the same rows in the same `FactId` order, the same
//! labelled-null ids and the same deterministic `PipelineStats`, at 1 and 4
//! workers under both join strategies.

use vadalog_chase::WardedStrategy;
use vadalog_engine::{
    AccessPlan, JoinStrategy, Pipeline, PipelineStats, Reasoner, ReasonerOptions,
};
use vadalog_model::prelude::*;
use vadalog_parser::parse_program;
use vadalog_rewrite::prepare_rules;
use vadalog_storage::FactStore;

/// `Control` has EDB rows that rules also derive, `KeyPerson` is
/// existential, `Root` negates in a stratum of its own and `Reach` is a
/// sink aggregate (the fold stratum).
const PROGRAM: &str = "\
    Own(\"a\", \"b\"). Own(\"b\", \"c\"). Own(\"c\", \"d\").\n\
    Company(\"a\"). Company(\"b\"). Company(\"c\"). Company(\"d\"). Company(\"e\").\n\
    Control(\"d\", \"e\").\n\
    Own(x, y) -> Control(x, y).\n\
    Control(x, y), Control(y, z) -> Control(x, z).\n\
    Company(x) -> KeyPerson(p, x).\n\
    Control(x, y), KeyPerson(p, x) -> KeyPerson(p, y).\n\
    Control(x, y) -> Controlled(y).\n\
    Company(x), not Controlled(x) -> Root(x).\n\
    Control(x, y), n = mcount(y) -> Reach(x, n).\n\
    @output(\"Control\"). @output(\"KeyPerson\"). @output(\"Root\"). @output(\"Reach\").";

/// Every relation's rows in `FactId` order, by predicate name.
fn rows(store: &FactStore) -> Vec<(String, Vec<Fact>)> {
    let mut out: Vec<(String, Vec<Fact>)> = store
        .predicates()
        .into_iter()
        .map(|p| (p.as_str().to_string(), store.facts_of(p)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The statistics both paths must agree on: all but the scheduling
/// diagnostic `steals` and the counters of where the rows live (a plain
/// store owns every row, a session overlay reads the EDB from its base).
fn deterministic(stats: &PipelineStats) -> String {
    let stats = PipelineStats {
        steals: 0,
        edb_rows_reused: 0,
        snapshot_overlay_rows: 0,
        base_layers: 0,
        ..*stats
    };
    format!("{stats:?}")
}

#[test]
fn the_plain_pipeline_does_the_work_of_reason() {
    let program = parse_program(PROGRAM).unwrap();
    let plan = AccessPlan::compile(&prepare_rules(&program));
    assert!(plan.strata.len() >= 3, "negation and fold strata");
    assert!(plan.strata.last().unwrap().fold, "a sink aggregate");
    for join_strategy in [JoinStrategy::FreeJoin, JoinStrategy::Binary] {
        for parallelism in [1, 4] {
            let options = ReasonerOptions {
                join_strategy,
                parallelism,
                ..ReasonerOptions::default()
            };
            let at = format!("{join_strategy:?} x{parallelism}");

            let mut pipeline =
                Pipeline::new(&plan, Box::new(WardedStrategy::new())).with_options(&options);
            pipeline.load_facts(program.facts.iter().cloned());
            let violations = pipeline.run();
            let plain_stats = pipeline.stats();
            let plain = pipeline.into_store();

            let reasoned = Reasoner::with_options(options).reason(&program).unwrap();
            assert_eq!(violations, reasoned.violations, "{at}");
            assert_eq!(rows(&plain), rows(&reasoned.store), "{at}");
            assert_eq!(
                deterministic(&plain_stats),
                deterministic(&reasoned.stats.pipeline),
                "{at}"
            );
            assert!(plain_stats.nulls_invented > 0, "{at}: nulls were invented");
            // The one-shot session read the EDB from its base.
            assert_eq!(
                reasoned.stats.pipeline.edb_rows_reused,
                program.facts.len() as u64,
                "{at}"
            );
        }
    }
}
