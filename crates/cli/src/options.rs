//! Command-line argument parsing for the `vadalog` binary.
//!
//! The option surface is deliberately small and dependency-free: a
//! subcommand, a program file, and a handful of flags that map one-to-one
//! onto [`vadalog_engine::ReasonerOptions`].

use std::fmt;
use vadalog_engine::{ReasonerOptions, TerminationKind};

/// The subcommand selected on the command line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CliCommand {
    /// Run the program and print the output predicates.
    Run,
    /// Print the fragment / wardedness classification of the program.
    Classify,
    /// Print the rewritten program and the reasoning access plan.
    Explain,
    /// Answer one or more query atoms (query-driven reasoning, magic sets
    /// when applicable). Several atoms share one query session: the program
    /// is parsed and the EDB interned/indexed once, every atom runs against
    /// a copy-on-write snapshot of that base. An argument starting with `+`
    /// is an **append**: its ground fact is added to the session EDB (the
    /// overlay is promoted to a new immutable base layer) before the
    /// following atoms run — arguments are processed strictly in order.
    Query {
        /// The query atoms' / appends' source text in command-line order,
        /// e.g. `Reach("a", y)` or `+Edge("a", "b")`.
        atoms: Vec<String>,
    },
    /// Answer the atoms through the concurrent reasoning server: a bounded
    /// worker pool over ONE shared session, queries executed concurrently on
    /// copy-on-write snapshots with the shared magic-cone derivation cache.
    /// `+Fact(...)` arguments are append requests; `--repeat N` submits the
    /// whole argument list N times (repeated appends deduplicate). Responses
    /// print in submission order.
    Serve {
        /// The query atoms' / appends' source text in submission order.
        atoms: Vec<String>,
    },
    /// Print the usage string.
    Help,
    /// Print the crate version.
    Version,
}

/// Fully parsed command-line options.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CliOptions {
    /// The subcommand.
    pub command: CliCommand,
    /// Path to the program file (empty for `help`/`version`).
    pub program_path: String,
    /// Restrict printing to these output predicates (empty = all outputs).
    pub outputs: Vec<String>,
    /// Write outputs as CSV files into this directory instead of stdout.
    pub csv_dir: Option<String>,
    /// Termination strategy name (`warded`, `trivial-iso`, `exact-dedup`).
    pub termination: String,
    /// Disable the logic optimizer / harmful-join elimination.
    pub no_rewriting: bool,
    /// Keep only certain answers (drop facts with labelled nulls).
    pub certain: bool,
    /// Require the program to be inside Warded Datalog±.
    pub require_warded: bool,
    /// Print run statistics after the outputs.
    pub stats: bool,
    /// Cap on the number of stored facts.
    pub max_facts: Option<usize>,
    /// `serve`: worker threads in the server pool.
    pub workers: usize,
    /// `serve`: admission-control bound on the submission queue.
    pub queue_cap: usize,
    /// `serve`: per-request queueing deadline in milliseconds.
    pub timeout_ms: u64,
    /// `serve`: submit the whole atom/append argument list this many times.
    pub repeat: usize,
    /// `query` / `serve`: attach a write-ahead log at this path. Appends are
    /// fsync'd to the log before they are acknowledged, and a restart over
    /// the same path replays them into a bit-identical session.
    pub wal: Option<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            command: CliCommand::Help,
            program_path: String::new(),
            outputs: Vec::new(),
            csv_dir: None,
            termination: "warded".to_string(),
            no_rewriting: false,
            certain: false,
            require_warded: false,
            stats: false,
            max_facts: None,
            workers: 4,
            queue_cap: 128,
            timeout_ms: 30_000,
            repeat: 1,
            wal: None,
        }
    }
}

/// Errors produced while parsing the command line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OptionError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A subcommand that needs a program file did not get one.
    MissingProgramPath,
    /// `query` without a query atom.
    MissingQueryAtom,
    /// Unknown flag.
    UnknownFlag(String),
    /// A flag that needs a value did not get one.
    MissingValue(String),
    /// A flag value could not be parsed.
    BadValue(String, String),
}

impl fmt::Display for OptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionError::MissingCommand => write!(f, "no subcommand given; try `vadalog help`"),
            OptionError::UnknownCommand(c) => write!(f, "unknown subcommand `{c}`"),
            OptionError::MissingProgramPath => write!(f, "expected a program file path"),
            OptionError::MissingQueryAtom => {
                write!(f, "expected a query atom, e.g. 'Reach(\"a\", y)'")
            }
            OptionError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            OptionError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            OptionError::BadValue(flag, v) => write!(f, "bad value `{v}` for flag `{flag}`"),
        }
    }
}

impl std::error::Error for OptionError {}

/// The usage string printed by `vadalog help`.
pub const USAGE: &str = "\
vadalog — Warded Datalog± reasoning for knowledge graphs (paper reproduction)

USAGE:
    vadalog <COMMAND> <PROGRAM.vada> [FLAGS]

COMMANDS:
    run       <file>            run the program and print its @output facts
    classify  <file>            report the Datalog± fragment and wardedness
    explain   <file>            print the rewritten rules and the access plan
    query     <file> <atom>...  answer query atoms (magic sets when possible);
                                several atoms share one query session: the EDB
                                is interned and indexed once and every atom
                                runs on a copy-on-write snapshot of it.
                                An argument of the form +Fact(\"a\", 1) APPENDS
                                that ground fact to the session EDB before the
                                atoms after it run (incremental maintenance)
    serve     <file> <atom>...  answer the atoms through the concurrent
                                reasoning server: a bounded worker pool over
                                ONE shared session, queries running
                                concurrently on copy-on-write snapshots with
                                a shared magic-cone derivation cache.
                                +Fact(\"a\", 1) arguments are append requests;
                                responses print in submission order
    help                        print this message
    version                     print the version

FLAGS (run / query / serve):
    --output <PRED>             print only this output predicate (repeatable)
    --csv-out <DIR>             write each output predicate as <DIR>/<PRED>.csv
    --termination <KIND>        warded | trivial-iso | exact-dedup  (default: warded)
    --no-rewriting              skip the logic optimizer / harmful-join elimination
    --certain                   drop facts containing labelled nulls from outputs
    --require-warded            refuse programs outside Warded Datalog±
    --max-facts <N>             abort after N stored facts
    --stats                     print run statistics

FLAGS (query / serve):
    --wal <PATH>                durable appends: every +Fact(...) append is
                                fsync'd to this write-ahead log before it is
                                acknowledged, and rerunning over the same
                                path replays the log into a bit-identical
                                session (a torn tail from a crash is
                                truncated with a warning)

FLAGS (serve only):
    --workers <N>               worker threads in the pool (default: 4)
    --queue-cap <N>             admission-control queue bound; a submit
                                against a full queue is shed (default: 128)
    --timeout-ms <N>            per-request queueing deadline (default: 30000)
    --repeat <N>                submit the whole atom/append list N times —
                                repeated appends deduplicate (default: 1)
";

impl CliOptions {
    /// Parse the command-line arguments (excluding the binary name).
    pub fn parse(args: &[String]) -> Result<CliOptions, OptionError> {
        let mut options = CliOptions::default();
        let mut iter = args.iter().peekable();

        let command = iter.next().ok_or(OptionError::MissingCommand)?;
        match command.as_str() {
            "help" | "--help" | "-h" => {
                options.command = CliCommand::Help;
                return Ok(options);
            }
            "version" | "--version" | "-V" => {
                options.command = CliCommand::Version;
                return Ok(options);
            }
            "run" => options.command = CliCommand::Run,
            "classify" => options.command = CliCommand::Classify,
            "explain" => options.command = CliCommand::Explain,
            "query" => options.command = CliCommand::Query { atoms: Vec::new() },
            "serve" => options.command = CliCommand::Serve { atoms: Vec::new() },
            other => return Err(OptionError::UnknownCommand(other.to_string())),
        }

        options.program_path = iter
            .next()
            .filter(|p| !p.starts_with("--"))
            .ok_or(OptionError::MissingProgramPath)?
            .clone();

        if matches!(
            options.command,
            CliCommand::Query { .. } | CliCommand::Serve { .. }
        ) {
            let mut atoms = Vec::new();
            while let Some(next) = iter.peek() {
                if next.starts_with("--") {
                    break;
                }
                atoms.push(iter.next().expect("peeked").clone());
            }
            if atoms.is_empty() {
                return Err(OptionError::MissingQueryAtom);
            }
            options.command = match options.command {
                CliCommand::Serve { .. } => CliCommand::Serve { atoms },
                _ => CliCommand::Query { atoms },
            };
        }

        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--output" => {
                    let v = iter.next().ok_or(OptionError::MissingValue(flag.clone()))?;
                    options.outputs.push(v.clone());
                }
                "--csv-out" => {
                    let v = iter.next().ok_or(OptionError::MissingValue(flag.clone()))?;
                    options.csv_dir = Some(v.clone());
                }
                "--termination" => {
                    let v = iter.next().ok_or(OptionError::MissingValue(flag.clone()))?;
                    if !["warded", "trivial-iso", "exact-dedup"].contains(&v.as_str()) {
                        return Err(OptionError::BadValue(flag.clone(), v.clone()));
                    }
                    options.termination = v.clone();
                }
                "--max-facts" => {
                    let v = iter.next().ok_or(OptionError::MissingValue(flag.clone()))?;
                    let n = v
                        .parse::<usize>()
                        .map_err(|_| OptionError::BadValue(flag.clone(), v.clone()))?;
                    options.max_facts = Some(n);
                }
                "--workers" => {
                    let v = iter.next().ok_or(OptionError::MissingValue(flag.clone()))?;
                    options.workers = v
                        .parse::<usize>()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| OptionError::BadValue(flag.clone(), v.clone()))?;
                }
                "--queue-cap" => {
                    let v = iter.next().ok_or(OptionError::MissingValue(flag.clone()))?;
                    options.queue_cap = v
                        .parse::<usize>()
                        .map_err(|_| OptionError::BadValue(flag.clone(), v.clone()))?;
                }
                "--timeout-ms" => {
                    let v = iter.next().ok_or(OptionError::MissingValue(flag.clone()))?;
                    options.timeout_ms = v
                        .parse::<u64>()
                        .map_err(|_| OptionError::BadValue(flag.clone(), v.clone()))?;
                }
                "--repeat" => {
                    let v = iter.next().ok_or(OptionError::MissingValue(flag.clone()))?;
                    options.repeat = v
                        .parse::<usize>()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| OptionError::BadValue(flag.clone(), v.clone()))?;
                }
                "--wal" => {
                    let v = iter.next().ok_or(OptionError::MissingValue(flag.clone()))?;
                    options.wal = Some(v.clone());
                }
                "--no-rewriting" => options.no_rewriting = true,
                "--certain" => options.certain = true,
                "--require-warded" => options.require_warded = true,
                "--stats" => options.stats = true,
                other => return Err(OptionError::UnknownFlag(other.to_string())),
            }
        }
        Ok(options)
    }

    /// The [`ReasonerOptions`] these CLI options denote: `base` (the
    /// defaults, with the binary's environment applied) under the flags.
    pub fn reasoner_options(&self, base: ReasonerOptions) -> ReasonerOptions {
        let mut out = ReasonerOptions {
            termination: match self.termination.as_str() {
                "trivial-iso" => TerminationKind::TrivialIso,
                "exact-dedup" => TerminationKind::ExactDedup,
                _ => TerminationKind::Warded,
            },
            apply_rewriting: !self.no_rewriting,
            certain_answers_only: self.certain,
            require_warded: self.require_warded,
            ..base
        };
        if let Some(n) = self.max_facts {
            out.max_facts = n;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_with_defaults() {
        let options = CliOptions::parse(&args(&["run", "program.vada"])).unwrap();
        assert_eq!(options.command, CliCommand::Run);
        assert_eq!(options.program_path, "program.vada");
        assert_eq!(options.termination, "warded");
        assert!(!options.certain);
    }

    #[test]
    fn run_with_all_flags() {
        let options = CliOptions::parse(&args(&[
            "run",
            "p.vada",
            "--output",
            "Control",
            "--output",
            "PSC",
            "--csv-out",
            "/tmp/out",
            "--termination",
            "trivial-iso",
            "--no-rewriting",
            "--certain",
            "--require-warded",
            "--max-facts",
            "1000",
            "--stats",
        ]))
        .unwrap();
        assert_eq!(options.outputs, vec!["Control", "PSC"]);
        assert_eq!(options.csv_dir.as_deref(), Some("/tmp/out"));
        assert_eq!(options.termination, "trivial-iso");
        assert!(options.no_rewriting && options.certain && options.require_warded && options.stats);
        assert_eq!(options.max_facts, Some(1000));
        let ropts = options.reasoner_options(ReasonerOptions::default());
        assert_eq!(ropts.termination, TerminationKind::TrivialIso);
        assert!(!ropts.apply_rewriting);
        assert!(ropts.certain_answers_only);
        assert!(ropts.require_warded);
        assert_eq!(ropts.max_facts, 1000);
    }

    #[test]
    fn query_requires_an_atom() {
        let err = CliOptions::parse(&args(&["query", "p.vada"])).unwrap_err();
        assert_eq!(err, OptionError::MissingQueryAtom);
        let ok = CliOptions::parse(&args(&["query", "p.vada", "Reach(\"a\", y)"])).unwrap();
        assert_eq!(
            ok.command,
            CliCommand::Query {
                atoms: vec!["Reach(\"a\", y)".to_string()]
            }
        );
    }

    #[test]
    fn query_accepts_several_atoms_for_one_session() {
        let ok = CliOptions::parse(&args(&[
            "query",
            "p.vada",
            "Reach(\"a\", y)",
            "Reach(\"b\", y)",
            "--stats",
        ]))
        .unwrap();
        assert_eq!(
            ok.command,
            CliCommand::Query {
                atoms: vec!["Reach(\"a\", y)".to_string(), "Reach(\"b\", y)".to_string()]
            }
        );
        assert!(ok.stats);
    }

    #[test]
    fn serve_parses_atoms_and_server_flags() {
        let ok = CliOptions::parse(&args(&[
            "serve",
            "p.vada",
            "Reach(\"a\", y)",
            "+Edge(\"a\", \"b\")",
            "--workers",
            "2",
            "--queue-cap",
            "16",
            "--timeout-ms",
            "500",
            "--repeat",
            "3",
            "--stats",
        ]))
        .unwrap();
        assert_eq!(
            ok.command,
            CliCommand::Serve {
                atoms: vec![
                    "Reach(\"a\", y)".to_string(),
                    "+Edge(\"a\", \"b\")".to_string()
                ]
            }
        );
        assert_eq!(ok.workers, 2);
        assert_eq!(ok.queue_cap, 16);
        assert_eq!(ok.timeout_ms, 500);
        assert_eq!(ok.repeat, 3);
        assert!(ok.stats);

        // serve needs at least one atom, and zero workers/repeats are
        // rejected up front.
        assert_eq!(
            CliOptions::parse(&args(&["serve", "p.vada"])).unwrap_err(),
            OptionError::MissingQueryAtom
        );
        assert_eq!(
            CliOptions::parse(&args(&["serve", "p.vada", "R(x)", "--workers", "0"])).unwrap_err(),
            OptionError::BadValue("--workers".to_string(), "0".to_string())
        );
        assert_eq!(
            CliOptions::parse(&args(&["serve", "p.vada", "R(x)", "--repeat", "0"])).unwrap_err(),
            OptionError::BadValue("--repeat".to_string(), "0".to_string())
        );
    }

    #[test]
    fn wal_flag_parses_for_query_and_serve() {
        let ok = CliOptions::parse(&args(&[
            "query",
            "p.vada",
            "Reach(\"a\", y)",
            "--wal",
            "/tmp/session.wal",
        ]))
        .unwrap();
        assert_eq!(ok.wal.as_deref(), Some("/tmp/session.wal"));
        let ok = CliOptions::parse(&args(&[
            "serve",
            "p.vada",
            "R(x)",
            "--wal",
            "/tmp/server.wal",
            "--workers",
            "2",
        ]))
        .unwrap();
        assert_eq!(ok.wal.as_deref(), Some("/tmp/server.wal"));
        assert_eq!(
            CliOptions::parse(&args(&["query", "p.vada", "R(x)", "--wal"])).unwrap_err(),
            OptionError::MissingValue("--wal".to_string())
        );
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(
            CliOptions::parse(&args(&[])).unwrap_err(),
            OptionError::MissingCommand
        );
        assert_eq!(
            CliOptions::parse(&args(&["frobnicate"])).unwrap_err(),
            OptionError::UnknownCommand("frobnicate".to_string())
        );
        assert_eq!(
            CliOptions::parse(&args(&["run"])).unwrap_err(),
            OptionError::MissingProgramPath
        );
        assert_eq!(
            CliOptions::parse(&args(&["run", "p.vada", "--bogus"])).unwrap_err(),
            OptionError::UnknownFlag("--bogus".to_string())
        );
        assert_eq!(
            CliOptions::parse(&args(&["run", "p.vada", "--termination", "magic"])).unwrap_err(),
            OptionError::BadValue("--termination".to_string(), "magic".to_string())
        );
        assert_eq!(
            CliOptions::parse(&args(&["run", "p.vada", "--max-facts", "lots"])).unwrap_err(),
            OptionError::BadValue("--max-facts".to_string(), "lots".to_string())
        );
    }

    #[test]
    fn help_and_version_need_no_file() {
        assert_eq!(
            CliOptions::parse(&args(&["help"])).unwrap().command,
            CliCommand::Help
        );
        assert_eq!(
            CliOptions::parse(&args(&["--version"])).unwrap().command,
            CliCommand::Version
        );
    }
}
