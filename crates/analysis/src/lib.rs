//! # vadalog-analysis
//!
//! Static analysis of Vadalog programs, implementing the notions that
//! Warded Datalog± is built on (Section 2.1 and Section 3.2 of the paper):
//!
//! * [`positions`] — predicate positions and the inductive computation of the
//!   *affected* positions (positions that may host labelled nulls during the
//!   chase),
//! * [`variables`] — per-rule classification of body variables as
//!   *harmless*, *harmful* or *dangerous*,
//! * [`wardedness`] — ward detection, harmful-join detection, the
//!   wardedness / harmless-wardedness checks, and the per-rule
//!   [`wardedness::RuleKind`] used by the termination strategy (linear /
//!   warded / non-linear),
//! * [`fragment`] — classification of a program into the Datalog± language
//!   hierarchy of Figure 1 (Datalog, Linear, Guarded, Warded,
//!   Harmless-Warded, Weakly-Frontier-Guarded),
//! * [`graph`] — the predicate dependency graph, strongly connected
//!   components, recursion detection and stratification of negation
//!   ([`rule_strata`]: the strata the engine's pipeline, both chase
//!   baselines and `vadalog classify` all use),
//! * [`hypergraph`] — GYO α-acyclicity of a rule body's join hypergraph,
//!   used by the engine to route cyclic bodies (triangles, cliques) to the
//!   worst-case-optimal join path.

pub mod fragment;
pub mod graph;
pub mod hypergraph;
pub mod positions;
pub mod variables;
pub mod wardedness;

pub use fragment::{classify, Fragment, FragmentReport};
pub use graph::{rule_strata, PredicateGraph, StratificationError};
pub use hypergraph::{atoms_are_cyclic, cyclic_core, rule_body_is_cyclic};
pub use positions::{affected_positions, AffectedPositions, Position};
pub use variables::{classify_rule_variables, VariableRole, VariableRoles};
pub use wardedness::{analyze_program, analyze_rule, ProgramWardedness, RuleKind, RuleWardedness};
