//! `reproduce` — regenerate, at laptop scale, the rows/series behind every
//! table and figure of the paper's evaluation (Section 6), as single-shot
//! wall-clock measurements.
//!
//! This binary provides the *shape* of every experiment quickly; the
//! measured, paper-scale numbers come from the repo benchmark
//! (`benchmark/`, results in `benchmark/RESULTS.md`).
//!
//! Usage: `reproduce [--experiment <id>] [--scale <f64>]` where `<id>` is one
//! of `fig5a`, `fig5b`, `fig5c`, `fig5d`, `fig5ef`, `fig5ghi`, `fig6`,
//! `fig7`, `fig8`, `memory`, or `all` (default), and the scale (default 1.0)
//! is a positive factor on every instance size. Bad arguments print the
//! usage line to stderr and exit 2.

use std::time::Instant;
use vadalog_analysis::classify;
use vadalog_chase::baselines;
use vadalog_engine::{Reasoner, ReasonerOptions, RunResult, TerminationKind};
use vadalog_model::{Fact, Program};
use vadalog_workloads::iwarded::Scenario;
use vadalog_workloads::{chasebench, dbpedia, ibench, ownership, scaling};

const USAGE: &str = "usage: reproduce [--experiment fig5a|fig5b|fig5c|fig5d|fig5ef|fig5ghi|fig6|fig7|fig8|memory|all] [--scale <positive f64>]";

/// An experiment id and its driver, called with the scale factor.
type Experiment = (&'static str, fn(f64));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 10] = [
    ("fig6", |_| fig6()),
    ("fig5a", fig5a),
    ("fig5b", fig5b),
    ("fig5c", fig5c),
    ("fig5d", fig5d),
    ("fig5ef", fig5ef),
    ("fig5ghi", fig5ghi),
    ("fig7", fig7),
    ("fig8", fig8),
    ("memory", |_| memory()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (experiment, scale) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("reproduce: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let selected = EXPERIMENTS
        .iter()
        .filter(|(id, _)| experiment.is_none_or(|e| e == *id));
    for (i, (_, run)) in selected.enumerate() {
        if i > 0 {
            println!();
        }
        run(scale);
    }
}

/// Parse the command line (without the program name) into the selected
/// experiment (`None` = all) and the scale factor.
fn parse_args(args: &[String]) -> Result<(Option<&'static str>, f64), String> {
    let mut experiment = None;
    let mut scale = 1.0;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = match flag.as_str() {
            "--experiment" | "--scale" => args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?,
            other => return Err(format!("unknown argument `{other}`")),
        };
        if flag == "--scale" {
            scale = value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or_else(|| format!("`--scale {value}` is not a positive number"))?;
        } else if value == "all" {
            experiment = None;
        } else {
            let id = EXPERIMENTS
                .iter()
                .map(|(id, _)| *id)
                .find(|id| id == value)
                .ok_or_else(|| format!("unknown experiment `{value}`"))?;
            experiment = Some(id);
        }
    }
    Ok((experiment, scale))
}

fn with_facts(mut program: Program, facts: Vec<Fact>) -> Program {
    for f in facts {
        program.add_fact(f);
    }
    program
}

/// Run the engine once and return (milliseconds, result).
fn run_engine(program: &Program) -> (f64, RunResult) {
    let start = Instant::now();
    let result = Reasoner::new().reason(program).expect("engine run failed");
    (start.elapsed().as_secs_f64() * 1000.0, result)
}

fn run_engine_with(program: &Program, options: ReasonerOptions) -> (f64, RunResult) {
    let start = Instant::now();
    let result = Reasoner::with_options(options)
        .reason(program)
        .expect("engine run failed");
    (start.elapsed().as_secs_f64() * 1000.0, result)
}

fn run_restricted(program: &Program) -> (f64, usize) {
    let start = Instant::now();
    let result = baselines::restricted_chase(program, Some(200));
    (start.elapsed().as_secs_f64() * 1000.0, result.store.len())
}

fn run_seminaive(program: &Program) -> (f64, usize) {
    let start = Instant::now();
    let result = baselines::seminaive_datalog(program, 100);
    (start.elapsed().as_secs_f64() * 1000.0, result.store.len())
}

// ------------------------------------------------------------------ Figure 6

/// Figure 6: composition of the generated iWarded scenarios.
fn fig6() {
    println!("Figure 6 — iWarded scenario composition (as generated)");
    println!(
        "{:<8} {:>7} {:>7} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8}",
        "scenario", "L", "joins", "L rec", "join rec", "exist", "hh+ward", "hh-ward", "harmful"
    );
    for scenario in Scenario::all() {
        let spec = scenario.spec();
        let program = scenario.generate(42);
        let report = classify(&program);
        println!(
            "{:<8} {:>7} {:>7} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8}   (warded: {}, harmful joins measured: {})",
            scenario.name(),
            spec.linear_rules,
            spec.join_rules,
            spec.linear_recursive,
            spec.join_recursive,
            spec.existential_rules,
            spec.hh_with_ward,
            spec.hh_without_ward,
            spec.harmful_joins,
            report.is_warded,
            report.wardedness.harmful_join_count(),
        );
    }
}

// --------------------------------------------------------------- Figure 5(a)

/// Figure 5(a): reasoning time per iWarded scenario (paper: SynthB/SynthH
/// fastest at <10 s, SynthF slowest at ~65 s on the paper's hardware).
fn fig5a(scale: f64) {
    println!("Figure 5(a) — iWarded scenarios, end-to-end reasoning time");
    println!(
        "{:<10} {:>10} {:>12} {:>12}",
        "scenario", "time ms", "facts", "suppressed"
    );
    for scenario in Scenario::all() {
        let mut spec = scenario.spec();
        spec.facts_per_input = ((60.0) * scale).max(5.0) as usize;
        spec.domain_size = ((25.0) * scale).max(5.0) as usize;
        let program = vadalog_workloads::iwarded::generate(&spec, 42);
        let (ms, result) = run_engine(&program);
        println!(
            "{:<10} {:>10.1} {:>12} {:>12}",
            scenario.name(),
            ms,
            result.stats.total_facts,
            result.stats.pipeline.facts_suppressed
        );
    }
}

// --------------------------------------------------------------- Figure 5(b)

/// Figure 5(b): iBench STB-128 / ONT-256 — Vadalog vs chase-based baselines
/// (paper: Vadalog 6.59 s / 51.6 s, ~3× faster than RDFox, ~7× than LLunatic).
fn fig5b(scale: f64) {
    println!("Figure 5(b) — iBench-style scenarios vs chase baselines");
    println!(
        "{:<10} {:>14} {:>16} {:>16}",
        "scenario", "vadalog ms", "restricted ms", "trivial-iso ms"
    );
    let bench_scale = 0.05 * scale;
    for (name, program) in [
        ("STB-128", ibench::stb_128(bench_scale, 7)),
        ("ONT-256", ibench::ont_256(bench_scale, 7)),
    ] {
        let (engine_ms, _) = run_engine(&program);
        let (restricted_ms, _) = run_restricted(&program);
        let trivial_start = Instant::now();
        let _ = baselines::trivial_iso_chase(&program, &vadalog_chase::ChaseOptions::default());
        let trivial_ms = trivial_start.elapsed().as_secs_f64() * 1000.0;
        println!(
            "{:<10} {:>14.1} {:>16.1} {:>16.1}",
            name, engine_ms, restricted_ms, trivial_ms
        );
    }
}

// --------------------------------------------------------------- Figure 5(c)

/// Figure 5(c): DBpedia PSC / AllPSC, persons sweep — Vadalog vs an
/// RDBMS-style semi-naive evaluator (paper: linear growth, <100 s at 1.5M
/// persons, 6× faster than the relational systems, 2× faster than Neo4j).
fn fig5c(scale: f64) {
    println!("Figure 5(c) — DBpedia PSC / AllPSC, persons sweep");
    println!(
        "{:<10} {:>12} {:>12} {:>18}",
        "persons", "psc ms", "allpsc ms", "seminaive psc ms"
    );
    for &persons in &[200usize, 1_000, 4_000] {
        let persons = ((persons as f64) * scale).max(50.0) as usize;
        let facts = dbpedia::company_graph(300, persons, 2, 11);
        let psc = with_facts(dbpedia::psc_program(), facts.clone());
        let allpsc = with_facts(dbpedia::all_psc_program(), facts);
        let (psc_ms, _) = run_engine(&psc);
        let (allpsc_ms, _) = run_engine(&allpsc);
        let (sn_ms, _) = run_seminaive(&psc);
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>18.1}",
            persons, psc_ms, allpsc_ms, sn_ms
        );
    }
}

// --------------------------------------------------------------- Figure 5(d)

/// Figure 5(d): SpecStrongLinks / AllStrongLinks, companies sweep (paper:
/// SpecStrongLinks almost constant under 40 s, AllStrongLinks grows steeply
/// with output size).
fn fig5d(scale: f64) {
    println!("Figure 5(d) — strong links, companies sweep");
    println!(
        "{:<10} {:>16} {:>18} {:>14}",
        "companies", "all links ms", "specific links ms", "all links #"
    );
    for &companies in &[50usize, 150, 300] {
        let companies = ((companies as f64) * scale).max(20.0) as usize;
        let facts = dbpedia::company_graph(companies, companies * 2, 2, 13);
        let all = with_facts(dbpedia::strong_links_program(3), facts.clone());
        let spec = with_facts(dbpedia::spec_strong_links_program("c1", 1), facts);
        let (all_ms, all_result) = run_engine(&all);
        let (spec_ms, _) = run_engine(&spec);
        println!(
            "{:<10} {:>16.1} {:>18.1} {:>14}",
            companies,
            all_ms,
            spec_ms,
            all_result.output("StrongLink").len()
        );
    }
}

// ------------------------------------------------------------ Figure 5(e, f)

/// Figure 5(e,f): industrial ownership graphs — AllRand/QueryRand over
/// scale-free graphs with the learned α/β/γ parameters (paper: <10 s AllReal
/// at 50K companies, ~20 s at 1M synthetic companies).
fn fig5ef(scale: f64) {
    println!("Figure 5(e,f) — ownership graphs (scale-free α=0.71 β=0.09 γ=0.2)");
    println!(
        "{:<12} {:>12} {:>14} {:>12}",
        "companies", "all ms", "query ms", "controls #"
    );
    for &companies in &[100usize, 1_000, 5_000] {
        let companies = ((companies as f64) * scale).max(50.0) as usize;
        let facts = ownership::scale_free_ownership(companies, Default::default(), 23);
        let program = with_facts(ownership::company_control_program(), facts.clone());
        let (all_ms, result) = run_engine(&program);

        // QueryRand: average over 5 point queries against the biggest owners.
        let mut owners: std::collections::BTreeMap<vadalog_model::Value, usize> =
            Default::default();
        for f in facts.iter().filter(|f| f.predicate_name() == "Own") {
            *owners.entry(f.args[0].clone()).or_default() += 1;
        }
        let mut top: Vec<_> = owners.into_iter().collect();
        top.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
        let reasoner = Reasoner::new();
        let start = Instant::now();
        let mut queries = 0usize;
        for (owner, _) in top.iter().take(5) {
            let query = vadalog_model::Atom {
                predicate: vadalog_model::intern("Control"),
                terms: vec![
                    vadalog_model::Term::Const(owner.clone()),
                    vadalog_model::Term::var("y"),
                ],
            };
            let _ = reasoner
                .reason_query(&program, &query)
                .expect("query failed");
            queries += 1;
        }
        let query_ms = start.elapsed().as_secs_f64() * 1000.0 / queries.max(1) as f64;
        println!(
            "{:<12} {:>12.1} {:>14.1} {:>12}",
            companies,
            all_ms,
            query_ms,
            result.output("Control").len()
        );
    }
}

// ---------------------------------------------------------- Figure 5(g,h,i)

/// Figure 5(g,h,i): Doctors / DoctorsFD / LUBM vs the chase baselines
/// (paper: Vadalog 3.5× faster than RDFox on DoctorsFD, within 2× of RDFox
/// on Doctors/LUBM because magic-set-style optimizations are missing).
///
/// The violations column counts the engine's constraint/EGD violations.
/// The generated data is clean, so a DoctorsFD violation is a wrong answer
/// of the check path: the process then exits 1.
fn fig5ghi(scale: f64) {
    println!("Figure 5(g,h,i) — ChaseBench-style scenarios vs baselines");
    println!(
        "{:<12} {:>10} {:>14} {:>16} {:>16} {:>11}",
        "scenario", "size", "vadalog ms", "restricted ms", "seminaive ms", "violations"
    );
    let mut fd_violations = 0;
    for &doctors in &[200usize, 1_000] {
        let doctors = ((doctors as f64) * scale).max(50.0) as usize;
        let facts = chasebench::doctors_facts(doctors, 17);
        for (name, program) in [
            ("Doctors", chasebench::doctors_program()),
            ("DoctorsFD", chasebench::doctors_fd_program()),
        ] {
            let program = with_facts(program, facts.clone());
            let (engine_ms, result) = run_engine(&program);
            let (restricted_ms, _) = run_restricted(&program);
            let (sn_ms, _) = run_seminaive(&program);
            let violations = result.violations.len();
            if name == "DoctorsFD" {
                fd_violations += violations;
            }
            println!(
                "{:<12} {:>10} {:>14.1} {:>16.1} {:>16.1} {:>11}",
                name, doctors, engine_ms, restricted_ms, sn_ms, violations
            );
        }
    }
    for &universities in &[1usize, 3] {
        let facts = chasebench::lubm_facts(universities, 19);
        let program = with_facts(chasebench::lubm_program(), facts);
        let (engine_ms, result) = run_engine(&program);
        let (restricted_ms, _) = run_restricted(&program);
        let (sn_ms, _) = run_seminaive(&program);
        println!(
            "{:<12} {:>10} {:>14.1} {:>16.1} {:>16.1} {:>11}",
            "LUBM",
            universities,
            engine_ms,
            restricted_ms,
            sn_ms,
            result.violations.len()
        );
    }
    if fd_violations > 0 {
        eprintln!(
            "reproduce: fig5ghi: DoctorsFD reported {fd_violations} violations on clean data"
        );
        std::process::exit(1);
    }
}

// ------------------------------------------------------------------ Figure 7

/// Figure 7: the lifted linear forest (Algorithm 1) vs the trivial
/// exhaustive isomorphism check on AllPSC (paper: identical up to ~100K
/// persons, then the trivial technique departs: 290 s vs 86 s at 1.5M).
///
/// Plain AllPSC invents no labelled null, so the engine admits it by exact
/// dedup and neither strategy would run a single check; the figure runs it
/// with the strong-links program's anonymous PSC per company instead. A
/// warded column of zero checks means the figure measures nothing, so the
/// process then exits 1.
fn fig7(scale: f64) {
    println!(
        "Figure 7 — warded termination strategy vs exhaustive isomorphism check \
         (AllPSC + anonymous PSC)"
    );
    println!(
        "{:<10} {:>14} {:>16} {:>14} {:>16}",
        "persons", "warded ms", "trivial-iso ms", "warded iso#", "trivial iso#"
    );
    let mut vacuous = false;
    for &persons in &[500usize, 2_000, 8_000] {
        let persons = ((persons as f64) * scale).max(100.0) as usize;
        let facts = dbpedia::company_graph(400, persons, 2, 29);
        let program = with_facts(dbpedia::all_psc_anonymous_program(), facts);
        let (warded_ms, warded) = run_engine(&program);
        let (trivial_ms, trivial) = run_engine_with(
            &program,
            ReasonerOptions {
                termination: TerminationKind::TrivialIso,
                ..Default::default()
            },
        );
        let warded_checks = warded.stats.pipeline.strategy.isomorphism_checks;
        vacuous |= warded_checks == 0;
        println!(
            "{:<10} {:>14.1} {:>16.1} {:>14} {:>16}",
            persons,
            warded_ms,
            trivial_ms,
            warded_checks,
            trivial.stats.pipeline.strategy.isomorphism_checks
        );
    }
    if vacuous {
        eprintln!("reproduce: fig7 is vacuous: the warded strategy ran 0 isomorphism checks");
        std::process::exit(1);
    }
}

// ------------------------------------------------------------------ Figure 8

/// Figure 8: scalability along database size, rule count, body atoms and
/// arity (paper: sublinear-to-linear growth in every dimension; arity almost
/// flat).
fn fig8(scale: f64) {
    println!("Figure 8 — scalability sweeps (SynthB variants)");
    println!("{:<10} {:>12} {:>12}", "dbsize", "time ms", "facts");
    for &facts in &[100usize, 500, 2_000] {
        let facts = ((facts as f64) * scale).max(50.0) as usize;
        let program = scaling::db_size(facts, 31);
        let (ms, result) = run_engine(&program);
        println!(
            "{:<10} {:>12.1} {:>12}",
            facts, ms, result.stats.total_facts
        );
    }
    println!("{:<10} {:>12}", "rules", "time ms");
    for &blocks in &[1usize, 2, 5, 10] {
        let program = scaling::rule_blocks(blocks, 32);
        let (ms, _) = run_engine(&program);
        println!("{:<10} {:>12.1}", blocks * 100, ms);
    }
    println!("{:<10} {:>12}", "atoms", "time ms");
    for &atoms in &[2usize, 4, 8, 16] {
        let program = scaling::atom_count(atoms, 200, 33);
        let (ms, _) = run_engine(&program);
        println!("{:<10} {:>12.1}", atoms, ms);
    }
    println!("{:<10} {:>12}", "arity", "time ms");
    for &arity in &[3usize, 6, 12, 24] {
        let program = scaling::arity(arity, 200, 34);
        let (ms, _) = run_engine(&program);
        println!("{:<10} {:>12.1}", arity, ms);
    }
}

// -------------------------------------------------------------------- memory

/// Memory-footprint experiment: run each scenario at bench scale and report
/// instance sizes, termination-strategy statistics and the final store's
/// heap bytes (Section 6.1's <400 MB claim): row arenas, dedup tables and
/// sorted-run indexes, counted by capacity, and their total per fact, then
/// the termination strategy's heap bytes at the end of the run.
fn memory() {
    println!("Section 6.1 memory-footprint check (bench scale)");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>14} {:>10} {:>10} {:>10} {:>10} {:>8} {:>11}",
        "scenario",
        "facts",
        "derived",
        "suppressed",
        "iso checks",
        "time ms",
        "rows B",
        "dedup B",
        "index B",
        "B/fact",
        "strategy B"
    );
    for scenario in Scenario::all() {
        let mut spec = scenario.spec();
        spec.facts_per_input = 60;
        spec.domain_size = 25;
        let program = vadalog_workloads::iwarded::generate(&spec, 42);
        let start = Instant::now();
        let result = Reasoner::new().reason(&program).expect("run failed");
        let elapsed = start.elapsed();
        let bytes = result.store.heap_bytes().total();
        println!(
            "{:<8} {:>10} {:>12} {:>12} {:>14} {:>10} {:>10} {:>10} {:>10} {:>8.1} {:>11}",
            scenario.name(),
            result.stats.total_facts,
            result.stats.pipeline.facts_derived,
            result.stats.pipeline.facts_suppressed,
            result.stats.pipeline.strategy.isomorphism_checks,
            elapsed.as_millis(),
            bytes.rows,
            bytes.dedup,
            bytes.indexes,
            bytes.total() as f64 / result.store.len().max(1) as f64,
            result.stats.pipeline.strategy_bytes,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(args: &[&str]) -> Result<(Option<&'static str>, f64), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_valid_flags_parse() {
        assert_eq!(parse(&[]), Ok((None, 1.0)));
        assert_eq!(
            parse(&["--experiment", "fig5a", "--scale", "0.05"]),
            Ok((Some("fig5a"), 0.05))
        );
        assert_eq!(parse(&["--experiment", "all"]), Ok((None, 1.0)));
    }

    #[test]
    fn bad_experiments_and_scales_are_errors() {
        for bad in [
            &["--experiment", "fig9"][..],
            &["--scale", "abc"],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale", "NaN"],
            &["--scale"],
            &["--quick"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
