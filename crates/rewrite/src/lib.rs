//! # vadalog-rewrite
//!
//! The *logic optimizer* of the Vadalog system (Section 4, step 1): a set of
//! source-to-source rewritings applied to a program before it is compiled
//! into a reasoning access plan.
//!
//! The passes implemented here are the ones the paper names:
//!
//! * **multiple-head elimination** — rules with several head atoms are split
//!   into single-head rules, introducing an auxiliary predicate when the head
//!   atoms share existential variables ([`optimizer::eliminate_multiple_heads`]);
//! * **redundancy elimination** — duplicate rules and trivial tautologies are
//!   dropped ([`optimizer::eliminate_redundancies`]);
//! * **existential isolation** — existential quantification is confined to
//!   linear rules, the second precondition of Algorithm 1
//!   ([`optimizer::isolate_existentials`]);
//! * **harmful-join elimination** — the algorithm of Section 3.2 that turns a
//!   warded program into an equivalent harmless-warded one, with the
//!   grounding, direct/indirect cause elimination, Skolem simplification and
//!   linearization steps ([`hje::eliminate_harmful_joins`]).
//!
//! On top of these, [`magic`] implements the magic-sets transformation the
//! paper lists as a foreseen Datalog optimization (Sections 6.5 and 7), used
//! by the engine's query-driven entry points.
//!
//! # The adorned-compile cache contract
//!
//! The transformation is deliberately **constant-free above the seed**: for
//! a fixed `(predicate, adornment)` pair, the adorned and magic *rules* are
//! identical for every constant vector the query binds — only the magic
//! seed fact (the bound constants, in term order) differs. The engine's
//! `QuerySession` relies on this to compile each adorned program (and its
//! access plan) **once per adornment** and replay it for every subsequent
//! query of that shape, minting just a fresh seed fact per query; the bound
//! prefix of each magic predicate then reaches the planner as an ordinary
//! composite-probe prefix over the storage layer's sorted runs. Call sites
//! whose adornment is all-free are guarded by a *nullary* magic atom
//! derived exactly when the call site is reachable, so free calls restrict
//! nothing but never block evaluation either.
//!
//! [`prepare_rules`] chains these passes in the order the engine expects.
//! The passes rewrite rules and annotations only — none copies the facts;
//! [`prepare_for_execution`] adds one copy for callers that want a
//! self-contained program.

pub mod cone;
pub mod hje;
pub mod magic;
pub mod optimizer;

pub use cone::{ConePattern, ConeTerm};
pub use hje::{eliminate_harmful_joins, HjeOutcome, DOM_PREDICATE};
pub use magic::{magic_sets, Adornment, MagicProgram, MagicSetError};
pub use optimizer::{
    eliminate_multiple_heads, eliminate_redundancies, isolate_existentials, LogicOptimizer,
};

use vadalog_model::Program;

/// Run the full pre-execution rewriting pipeline over the rules:
/// multiple-head elimination → existential isolation → harmful-join
/// elimination → redundancy elimination.
///
/// The output program is harmless warded whenever the input was warded (up to
/// the bounded-effort caveat documented on [`eliminate_harmful_joins`]), has
/// single-atom heads, and confines existentials to linear rules — exactly the
/// preconditions of the termination strategy in `vadalog-chase`. It carries
/// the rewritten rules and the annotations but **no facts**: no pass copies
/// the extensional database, and the engine loads it from the source
/// program.
pub fn prepare_rules(program: &Program) -> Program {
    let p = eliminate_multiple_heads(program);
    let p = isolate_existentials(&p);
    let outcome = eliminate_harmful_joins(&p);
    eliminate_redundancies(&outcome.program)
}

/// [`prepare_rules`] plus one copy of the program's facts: a self-contained
/// runnable program, for callers that run or load the prepared program as
/// it is (the chase, staged replays of the engine's steps).
pub fn prepare_for_execution(program: &Program) -> Program {
    let mut prepared = prepare_rules(program);
    prepared.facts = program.facts.clone();
    prepared
}
