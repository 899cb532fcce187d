//! The repo benchmark. One command runs every workload in a fresh child
//! process, checks its outputs and prints every metric by name with its unit:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--aa N]
//! ```
//!
//! With `--workload` the last line of standard output is the one-object JSON
//! result `BENCHMARK.json`'s contract asks for. See `README.md`.

mod digest;
mod json;
mod reason;
mod report;
mod rng;
mod run;
mod serve;
mod spec;
mod stats;
mod summary;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use json::Json;
use report::{metrics_json, Metric, Report};
use run::RunConfig;
use spec::{END_TO_END, PER_LAYER, PROCESSES, RUN_SECONDS};
use workload::{Size, Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage: vadalog-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--quick] [--aa N] [--pin]";

#[derive(Clone, Debug)]
struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    size: Size,
    /// Run the full set this many times and report the spread.
    aa: Option<usize>,
    /// Print the digests `expected.json` should hold.
    pin: bool,
    /// Internal: run one workload in this process and print its report.
    child: bool,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: None,
            trace: false,
            size: Size::Full,
            aa: None,
            pin: false,
            child: false,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    cli.workload =
                        Some(workload::find(&name).ok_or(format!("unknown workload `{name}`"))?);
                }
                "--seed" => {
                    cli.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err("--seconds must be a non-negative number".into());
                    }
                    cli.seconds = Some(s);
                }
                "--aa" => {
                    let n: usize = value("--aa")?.parse().map_err(|e| format!("--aa: {e}"))?;
                    if n < 2 {
                        return Err("--aa needs at least 2 sets".into());
                    }
                    cli.aa = Some(n);
                }
                // `--trace 1`, `--trace 0`, or a bare `--trace`.
                "--trace" => {
                    cli.trace = match args.peek().map(String::as_str) {
                        Some("0") => {
                            args.next();
                            false
                        }
                        Some("1") => {
                            args.next();
                            true
                        }
                        _ => true,
                    };
                }
                "--quick" => cli.size = Size::Quick,
                "--pin" => cli.pin = true,
                "--child" => cli.child = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(cli)
    }

    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.unwrap_or(match self.size {
            Size::Full => RUN_SECONDS as f64,
            Size::Quick => 0.2,
        }))
    }

    fn config(&self) -> RunConfig {
        RunConfig {
            seed: self.seed,
            window: self.window(),
            trace: self.trace,
            size: self.size,
            out_dir: out_dir(),
        }
    }
}

/// `benchmark/out`, next to the manifest.
fn out_dir() -> PathBuf {
    let manifest_dir =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    PathBuf::from(manifest_dir).join("out")
}

/// One run of one workload: its child processes, merged into one report.
#[derive(Clone, Debug)]
pub struct Job {
    pub workload: &'static Workload,
    pub cfg: RunConfig,
}

impl Job {
    /// Run the workload in a fresh process for `window` and read back its
    /// report.
    fn child(&self, window: Duration) -> Result<Report, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut command = Command::new(exe);
        command
            .args(["--child", "--workload", self.workload.name])
            .args(["--seed", &self.cfg.seed.to_string()])
            .args(["--seconds", &window.as_secs_f64().to_string()])
            .args(["--trace", if self.cfg.trace { "1" } else { "0" }]);
        if self.cfg.size == Size::Quick {
            command.arg("--quick");
        }
        let output = command
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the child process: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
        match line {
            Some(line) if output.status.success() => {
                Report::from_json(&Json::parse(line)?).map_err(|e| format!("child report: {e}"))
            }
            _ => Err(format!(
                "{} child ended with {} and no report",
                self.workload.name, output.status
            )),
        }
    }

    /// An end-to-end run is [`PROCESSES`] fresh processes, each setting up
    /// and then measuring for its share of the window; every number is the
    /// median over the processes, which takes out what differs from one
    /// process to the next (heap layout, hash seeds, page placement). A
    /// traced run is one process: its counts repeat exactly anyway.
    pub fn measure(&self) -> Result<Report, String> {
        if self.cfg.trace {
            return self.child(self.cfg.window);
        }
        let reports = (0..PROCESSES)
            .map(|_| self.child(self.cfg.window / PROCESSES as u32))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Report::merge(&reports))
    }
}

/// The metrics `BENCHMARK.json` lists for this kind of run, in its order.
fn contract_metrics(report: &Report, trace: bool) -> Result<Vec<Metric>, String> {
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    names
        .into_iter()
        .map(|name| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name && m.value.is_finite())
                .cloned()
                .ok_or(format!("metric `{name}` was not measured"))
        })
        .collect()
}

/// What a result depends on besides the code: CPUs, worker threads, seed,
/// sizes and window.
fn environment(cli: &Cli) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc {cpus}, default_parallelism {}, seed {}, {} sizes, {:.1} s window",
        vadalog_engine::default_parallelism(),
        cli.seed,
        cli.size.name(),
        cli.window().as_secs_f64(),
    )
}

fn fail(message: &str) -> ExitCode {
    eprintln!("vadalog-benchmark: {message}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => return fail(&format!("{e}\n{USAGE}")),
    };
    if cfg!(debug_assertions) {
        return fail("refusing to measure a debug build; run with `cargo run --release`");
    }

    if cli.child {
        let Some(workload) = cli.workload else {
            return fail("--child needs --workload");
        };
        println!("{}", run::run_workload(workload, &cli.config()).to_json());
        return ExitCode::SUCCESS;
    }

    eprintln!("vadalog-benchmark: {}", environment(&cli));
    let job = |workload, trace| Job {
        workload,
        cfg: RunConfig {
            trace,
            ..cli.config()
        },
    };

    if cli.pin {
        return match summary::pins(&cli.config()) {
            Ok(doc) => {
                println!("{doc}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        };
    }

    if let Some(sets) = cli.aa {
        return match summary::aa(sets, &cli.config(), &environment(&cli)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => fail(&e),
        };
    }

    // The contract's run: one workload, the result object as the last line.
    if let Some(workload) = cli.workload {
        let report = match job(workload, cli.trace).measure() {
            Ok(report) => report,
            Err(e) => return fail(&e),
        };
        summary::print_report(&mut std::io::stderr(), workload, &report);
        let metrics = match contract_metrics(&report, cli.trace) {
            Ok(metrics) => metrics,
            Err(e) => return fail(&e),
        };
        println!(
            "{}",
            Json::obj([
                ("correct", Json::Bool(report.correct())),
                ("attempted", Json::Num(report.attempted.max(1) as f64)),
                ("failed", Json::Num(report.failed as f64)),
                ("metrics", metrics_json(&metrics)),
            ])
        );
        return if report.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    // The full set: every workload, end to end and (with --trace) per layer.
    let mut all_correct = true;
    for workload in &WORKLOADS {
        for trace in [false, true] {
            if trace && !cli.trace {
                continue;
            }
            match job(workload, trace).measure() {
                Ok(report) => {
                    summary::print_report(&mut std::io::stdout(), workload, &report);
                    if let Err(e) = contract_metrics(&report, trace) {
                        println!("  MISSING: {e}");
                        all_correct = false;
                    }
                    all_correct &= report.correct();
                }
                Err(e) => {
                    println!("== {} ==\n  FAILED: {e}", workload.name);
                    all_correct = false;
                }
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_contract_command_line() {
        let cli = parse(&[
            "--workload",
            "serve.hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(cli.workload.map(|w| w.name), Some("serve.hot"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, Some(10.0), false));
        assert_eq!(cli.window(), Duration::from_secs(10));
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        // a bare --trace, also when another flag follows it
        assert!(parse(&["--trace"]).unwrap().trace);
        let cli = parse(&["--trace", "--quick"]).unwrap();
        assert!(cli.trace && cli.size == Size::Quick);
        assert_eq!(parse(&[]).unwrap().seed, DEFAULT_SEED);
        assert_eq!(
            parse(&[]).unwrap().window(),
            Duration::from_secs(RUN_SECONDS)
        );
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds"],
            &["--aa", "1"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// The `--quick` sizes: every workload, both kinds of run, every check,
    /// in this process (a test binary cannot re-run itself as a child).
    #[test]
    fn quick_smoke_runs_every_workload_and_every_check() {
        let out = out_dir().join("test");
        for workload in &WORKLOADS {
            // The default seed checks the pinned digests; another seed skips
            // them and keeps the cross-checks.
            for (seed, trace) in [
                (DEFAULT_SEED, false),
                (DEFAULT_SEED, true),
                (DEFAULT_SEED + 1, true),
            ] {
                let cfg = RunConfig {
                    seed,
                    window: Duration::from_millis(30),
                    trace,
                    size: Size::Quick,
                    out_dir: out.clone(),
                };
                let report = run::run_workload(workload, &cfg);
                assert!(
                    report.correct(),
                    "{} seed {seed}: {:?}",
                    workload.name,
                    report.problems
                );
                assert!(report.attempted > 0);
                assert!(!report.pins.is_empty());
                contract_metrics(&report, trace)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
            }
            let trace_file = out.join(format!("trace-{}.jsonl", workload.name));
            let spans =
                std::fs::read_to_string(&trace_file).expect("the traced run wrote its spans");
            assert!(spans.lines().count() > 5);
            assert!(spans
                .lines()
                .all(|l| Json::parse(l).is_ok_and(|s| s.get("op_id").is_some())));
        }
        // no WAL is left behind
        let leftovers: Vec<_> = std::fs::read_dir(&out)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".wal"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn the_result_line_lists_exactly_the_contract_metrics() {
        let mut report = Report::default();
        for (name, unit, _, _) in END_TO_END.iter().rev() {
            report.metric(name, 1.5, unit);
        }
        report.metric("something.else", 3.0, "s");
        let metrics = contract_metrics(&report, false).unwrap();
        let names: Vec<_> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0));
        // per-layer metrics are missing from this report
        assert!(contract_metrics(&report, true).is_err());
        // a metric that could not be computed is missing, not zero
        report.metrics[0].value = f64::NAN;
        assert!(contract_metrics(&report, false).is_err());
    }
}
