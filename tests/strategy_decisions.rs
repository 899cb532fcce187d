//! Algorithm 1's decisions, pinned. Three null-inventing programs run
//! through the default reasoner, and every termination-strategy counter,
//! the derived and invented counts and a digest of the outputs must equal
//! the values recorded below. A change to how the warded strategy stores
//! or compares facts may make it faster or smaller, never change what it
//! admits, suppresses or learns.
//!
//! SynthB exercises every branch of Algorithm 1: isomorphism checks,
//! suppression, learnt stop provenances and pruning by them. The two
//! company-graph programs pin the exact-duplicate and tree-local paths on a
//! different rule shape. Their control graph is a forest (each company has
//! one parent), so each invented null reaches a company along one path only
//! and no candidate is ever isomorphic to a fact of its own tree: their
//! suppression counters are 0 by construction, not by choice of size.

use std::collections::BTreeMap;
use vadalog_chase::StrategyStats;
use vadalog_engine::{OutputFacts, Reasoner};
use vadalog_model::prelude::*;
use vadalog_workloads::{dbpedia, scaling};

/// What one run decided.
#[derive(Debug, PartialEq, Eq)]
struct Decisions {
    strategy: StrategyStats,
    facts_derived: usize,
    nulls_invented: u64,
    output_digest: u64,
}

/// FNV-1a over the rendered output facts: predicates by name (symbol ids
/// depend on what the process interned first), facts in the order the run
/// returns them.
fn digest(outputs: &BTreeMap<Sym, OutputFacts>) -> u64 {
    let by_name: BTreeMap<String, &OutputFacts> = outputs
        .iter()
        .map(|(p, facts)| (p.to_string(), facts))
        .collect();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (predicate, facts) in by_name {
        for text in std::iter::once(predicate).chain(facts.iter().map(Fact::to_string)) {
            for b in text.bytes().chain([b'\n']) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn decisions(program: &Program) -> Decisions {
    let run = Reasoner::new().reason(program).expect("program runs");
    let stats = &run.stats.pipeline;
    Decisions {
        strategy: stats.strategy,
        facts_derived: stats.facts_derived,
        nulls_invented: stats.nulls_invented,
        output_digest: digest(&run.outputs),
    }
}

fn company_graph_program(program: Program) -> Program {
    dbpedia::with_facts(program, dbpedia::company_graph(30, 60, 2, 11))
}

#[test]
fn synthb_decisions_are_pinned() {
    let got = decisions(&scaling::db_size(30, 7));
    for (name, count) in [
        ("suppressed", got.strategy.suppressed),
        ("isomorphism_checks", got.strategy.isomorphism_checks),
        ("pruned_by_provenance", got.strategy.pruned_by_provenance),
        ("stop_provenances", got.strategy.stop_provenances),
    ] {
        assert!(count > 0, "{name} must be exercised: {got:?}");
    }
    assert_eq!(
        got,
        Decisions {
            strategy: StrategyStats {
                admitted: 3263,
                duplicates: 1476,
                suppressed: 89,
                isomorphism_checks: 1073,
                pruned_by_provenance: 78,
                stop_provenances: 11,
            },
            facts_derived: 3263,
            nulls_invented: 383,
            output_digest: 5496085586441450680,
        }
    );
}

#[test]
fn strong_links_decisions_are_pinned() {
    let got = decisions(&company_graph_program(dbpedia::strong_links_program(3)));
    assert_eq!(
        got,
        Decisions {
            strategy: StrategyStats {
                admitted: 1070,
                duplicates: 1800,
                suppressed: 0,
                isomorphism_checks: 401,
                pruned_by_provenance: 0,
                stop_provenances: 0,
            },
            facts_derived: 1070,
            nulls_invented: 30,
            output_digest: 18100805031557413824,
        }
    );
}

#[test]
fn anonymous_all_psc_decisions_are_pinned() {
    let got = decisions(&company_graph_program(dbpedia::all_psc_anonymous_program()));
    assert_eq!(
        got,
        Decisions {
            strategy: StrategyStats {
                admitted: 431,
                duplicates: 1,
                suppressed: 0,
                isomorphism_checks: 404,
                pruned_by_provenance: 0,
                stop_provenances: 0,
            },
            facts_derived: 431,
            nulls_invented: 30,
            output_digest: 14592421061452714142,
        }
    );
}
