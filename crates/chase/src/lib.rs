//! # vadalog-chase
//!
//! The chase machinery of the Vadalog reproduction (Section 3 of the paper).
//!
//! * [`strategy`] — the *termination strategies* that decide, for every
//!   candidate fact a chase step wants to produce, whether producing it can
//!   still contribute to the answer:
//!   * [`strategy::WardedStrategy`] is Algorithm 1: it incrementally builds
//!     the **warded forest** (isomorphism checks restricted to the local
//!     tree) and the **lifted linear forest** (stop-provenances reused across
//!     pattern-isomorphic roots, the paper's vertical + horizontal pruning);
//!   * [`strategy::TrivialIsoStrategy`] is the §6.6 baseline: exhaustive
//!     isomorphism checking over every generated fact;
//!   * [`strategy::ExactDedupStrategy`] admits anything that is not an exact
//!     duplicate — the behaviour of engines without null-aware termination.
//!
//!   The store decides exact duplicates ([`offer_row`]); a strategy is
//!   asked only about rows the store does not hold. It names facts by the
//!   store's identity ([`FactRef`]: a predicate and a `FactId`) and reads
//!   rows from the store, so no strategy keeps a copy of the facts or
//!   ever resolves a value.
//! * [`chase`] — a breadth-first (round-robin in the paper's terms) chase
//!   engine parameterised by a termination strategy, supporting the
//!   oblivious and restricted chase variants, negative constraints and EGDs
//!   under the `Dom` discipline. Its matcher ([`find_matches`]) is the
//!   naive left-to-right id-level join and runs on the calling thread: it
//!   is the independent oracle the engine is checked against, its sweeps
//!   and its constraint and EGD checks alike. The engine never calls it.
//! * [`baselines`] — the comparison engines used in the evaluation:
//!   the trivial-isomorphism chase, the restricted chase with homomorphism
//!   checks, and a Skolemizing semi-naive Datalog engine standing in for
//!   grounding-based systems.

pub mod baselines;
pub mod chase;
pub mod strategy;

pub use chase::{
    find_matches, find_matches_with, run_chase, ChaseOptions, ChaseResult, ChaseStats,
    ChaseVariant, MatchBuffers,
};
pub use strategy::{
    offer_row, Candidate, ExactDedupStrategy, FactRef, Offer, Step, StrategyHeap, StrategyStats,
    TerminationStrategy, TrivialIsoStrategy, WardedStrategy,
};
