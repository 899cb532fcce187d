//! Serve workload: **repeated overlapping queries** against one shared
//! knowledge graph — the regime of the concurrent reasoning server and its
//! magic-cone derivation cache.
//!
//! A server answering a real query stream sees heavy repetition: a few hot
//! query shapes asked over and over (dashboards, per-entity lookups,
//! polling clients) interleaved with each other. This module generates that
//! stream over the [`crate::query::chain`] program: `distinct` bound
//! sources cycled round-robin for `repeats` rounds, so every repetition is
//! **non-adjacent** — a cache that only remembered the immediately
//! preceding query would miss every time, while the shared cone cache
//! serves `distinct · (repeats − 1)` of the `distinct · repeats` queries
//! from stored derivations.
//!
//! `benchmark/`'s `serve.hot` and `serve.mixed` workloads measure the same
//! cache through the reasoning server.

use vadalog_model::prelude::*;

/// The overlapping query stream: `distinct` bound `Reach` sources spread
/// over the first half of an `n`-edge chain, cycled round-robin for
/// `repeats` rounds (total `distinct · repeats` queries, repetitions
/// maximally spaced).
pub fn overlapping_queries(n: usize, distinct: usize, repeats: usize) -> Vec<Atom> {
    let stride = ((n / 2).max(1) / distinct.max(1)).max(1);
    let sources: Vec<String> = (0..distinct).map(|q| format!("n{}", q * stride)).collect();
    (0..repeats)
        .flat_map(|_| sources.iter().cloned())
        .map(|s| Atom {
            predicate: intern("Reach"),
            terms: vec![Term::Const(Value::str(&s)), Term::var("y")],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn stream_cycles_distinct_sources_without_adjacent_repeats() {
        let queries = overlapping_queries(100, 6, 8);
        assert_eq!(queries.len(), 48);
        let sources: Vec<_> = queries
            .iter()
            .map(|q| q.terms[0].as_const().unwrap().clone())
            .collect();
        let distinct: BTreeSet<_> = sources.iter().cloned().collect();
        assert_eq!(distinct.len(), 6);
        // round-robin: no query repeats its predecessor
        assert!(sources.windows(2).all(|w| w[0] != w[1]));
        // every round asks the same sources in the same order
        assert_eq!(&sources[..6], &sources[6..12]);
    }
}
