//! # vadalog-workloads
//!
//! Deterministic (seeded) generators for every workload of the paper's
//! evaluation (Section 6). Each generator produces a
//! [`vadalog_model::Program`] (rules + extensional facts) ready to be handed
//! to `vadalog_engine::Reasoner` or to the baseline engines in
//! `vadalog-chase`.
//!
//! | Paper artefact | Module |
//! |---|---|
//! | iWarded synthetic scenarios SynthA–SynthH (Fig. 5a, Fig. 6) | [`iwarded`] |
//! | iBench STB-128 / ONT-256 analogues (Fig. 5b) | [`ibench`] |
//! | DBpedia company/person graphs, PSC / AllPSC / StrongLinks (Fig. 5c,d, Fig. 7) | [`dbpedia`] |
//! | Industrial ownership graphs + scale-free synthetic graphs (Fig. 5e,f) | [`ownership`] |
//! | Doctors / DoctorsFD / LUBM-style ChaseBench scenarios (Fig. 5g-i) | [`chasebench`] |
//! | DbSize / Rule# / Atom# / Arity scalability variants (Fig. 8) | [`scaling`] |
//! | Triangle / 4-clique cyclic joins (WCOJ vs binary-join ablation) | [`graph`] |
//!
//! All generators take explicit seeds and sizes so that the numbers in
//! `benchmark/RESULTS.md` are reproducible; the real DBpedia dumps and the
//! proprietary European ownership graph are replaced by synthetic
//! equivalents with the same shape parameters.

pub mod chasebench;
pub mod dbpedia;
pub mod graph;
pub mod ibench;
pub mod iwarded;
pub mod ownership;
pub mod scaling;

pub use iwarded::{IWardedSpec, Scenario};
