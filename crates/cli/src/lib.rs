//! # vadalog-cli
//!
//! The command-line front end of the Vadalog reproduction. It wraps the
//! public [`vadalog_engine::Reasoner`] API so a program file can be run,
//! analysed or queried without writing any Rust:
//!
//! ```text
//! vadalog run program.vada                 # run and print the @output facts
//! vadalog run program.vada --termination trivial-iso
//! vadalog classify program.vada            # fragment / wardedness report
//! vadalog explain program.vada             # rewritten rules + access plan
//! vadalog query program.vada 'Reach("a", y)'   # query-driven reasoning
//! vadalog query program.vada 'Reach("a", y)' '+Edge("a", "b")' 'Reach("a", y)'
//! ```
//!
//! The full surface — every command, flag, `--stats` line and `VADALOG_*`
//! environment knob — is documented in `docs/CLI.md`.
//!
//! All functionality lives in this library crate (so it can be unit-tested);
//! `src/main.rs` is a thin wrapper that reads the environment once through
//! [`resolve_env`] and hands the result to [`run_cli_with`]. No other crate
//! of the workspace reads `VADALOG_*` variables.

#![warn(missing_docs)]

pub mod commands;
pub mod options;

pub use commands::{resolve_env, run_cli, run_cli_with, CliError, EnvConfig};
pub use options::{CliCommand, CliOptions};
