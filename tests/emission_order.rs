//! Emission order and join work on the strong-links program, pinned.
//!
//! The HJE-unrolled strong-links rules are where the planner's probe order
//! matters most: a delta on `PSC(y, p)` can meet an atom that shares no
//! variable with it. However the executor orders its probes, it must emit
//! the matches of each delta row in the same order, so every relation's
//! rows — FactIds, labelled-null labels and aggregate values — come out
//! identical. The digest below covers every relation of the final
//! instance, rows in FactId order; the work counter beside it pins how
//! many probes the chosen order costs.

use vadalog_engine::Reasoner;
use vadalog_model::prelude::*;
use vadalog_workloads::dbpedia;

/// FNV-1a over every relation of the final instance: predicates by name
/// (symbol ids depend on what the process interned first), each relation's
/// facts rendered in FactId order, nulls with their labels.
fn instance_digest(store: &vadalog_storage::FactStore) -> u64 {
    let mut predicates = store.predicates();
    predicates.sort_by_key(|p| p.to_string());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in predicates {
        let facts = store.facts_of(p);
        for text in std::iter::once(p.to_string()).chain(facts.iter().map(Fact::to_string)) {
            for b in text.bytes().chain([b'\n']) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn strong_links_emission_order_and_work_are_pinned() {
    let program = dbpedia::with_facts(
        dbpedia::strong_links_program(3),
        dbpedia::company_graph(30, 60, 2, 7),
    );
    let run = Reasoner::new().reason(&program).expect("program runs");
    let s = &run.stats.pipeline;
    assert_eq!(
        (
            instance_digest(&run.store),
            s.facts_derived,
            s.facts_suppressed,
            s.nulls_invented,
        ),
        (13765432118241332972, 389, 143, 30),
        "the emission order is fixed by the all-probe enumeration, whatever the probe order"
    );
    // The all-probe plan in canonical order (`[delta] ++ join order`) made
    // 99,966 probes here: after a `PSC(y, p)` delta, six unrolled rules
    // range-scanned `Control` on `x > y` alone before the `KeyPerson` atom
    // that shares `p` rejected the row. Probing outward from the delta atom
    // made 56,088. The unrolled `StrongLink` rules are sink aggregates: they
    // now run once, after the fixpoint, each from its smallest relation,
    // instead of once per delta in every sweep.
    assert_eq!(s.join_probes, 7_286);
}
