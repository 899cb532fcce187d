//! Facade crate for the Vadalog reproduction workspace.
//!
//! Re-exports the public surface of every sub-crate so downstream users (and
//! the workspace-level integration tests under `tests/`) can depend on a
//! single crate.
//!
//! How the crates fit together — and the bit-identity contract they are all
//! built against — is documented in `docs/ARCHITECTURE.md`; the command-line
//! surface in `docs/CLI.md`.

pub use vadalog_analysis as analysis;
pub use vadalog_chase as chase;
pub use vadalog_engine as engine;
pub use vadalog_model as model;
pub use vadalog_ontology as ontology;
pub use vadalog_parser as parser;
pub use vadalog_rewrite as rewrite;
pub use vadalog_server as server;
pub use vadalog_storage as storage;
pub use vadalog_workloads as workloads;

pub use vadalog_engine::{OutputFacts, Reasoner, ReasonerOptions, RunResult};
pub use vadalog_server::{ReasoningServer, ServerConfig};
