//! Human-readable output: the per-run table, the `--aa` self-check and the
//! `--pin` listing.

use std::collections::BTreeMap;
use std::io::Write;

use crate::report::Report;
use crate::run::RunConfig;
use crate::spec::END_TO_END;
use crate::stats::{median, quartile_spread};
use crate::workload::{Size, Workload, DEFAULT_SEED, WORKLOADS};
use crate::Job;

/// Every metric by name, with its unit.
pub fn print_report(out: &mut impl Write, workload: &Workload, report: &Report) {
    let mut table = format!(
        "== {} == attempted {}, failed {}, {}\n",
        workload.name,
        report.attempted,
        report.failed,
        if report.correct() {
            "outputs correct"
        } else {
            "OUTPUTS WRONG"
        }
    );
    table.push_str(&format!("  why: {}\n", workload.why));
    table.push_str(&format!("  the seed varies: {}\n", workload.seed_varies));
    for problem in &report.problems {
        table.push_str(&format!("  PROBLEM: {problem}\n"));
    }
    for (title, metrics) in [("metrics", &report.metrics), ("detail", &report.detail)] {
        table.push_str(&format!("  {title}:\n"));
        for m in metrics {
            table.push_str(&format!(
                "    {:<44} {:>16.6} {}\n",
                m.name, m.value, m.unit
            ));
        }
    }
    // Best effort: a closed pipe must not turn a finished run into a panic.
    let _ = out.write_all(table.as_bytes());
}

/// Run both sizes of every workload at the default seed, end to end and
/// traced, and return the digests as the text of `expected.json`. Mismatches
/// with the compiled-in `expected.json` are expected here and ignored.
pub fn pins(base: &RunConfig) -> Result<String, String> {
    let mut pins = BTreeMap::new();
    for size in [Size::Full, Size::Quick] {
        for workload in &WORKLOADS {
            for trace in [false, true] {
                let cfg = RunConfig {
                    seed: DEFAULT_SEED,
                    trace,
                    size,
                    ..base.clone()
                };
                pins.extend(Job { workload, cfg }.child(base.window)?.pins);
            }
        }
    }
    let lines: Vec<String> = pins
        .iter()
        .map(|(k, v)| format!("  \"{k}\": \"{v}\""))
        .collect();
    Ok(format!("{{\n{}\n}}", lines.join(",\n")))
}

/// The A/A self-check: `sets` full sets (seeds `seed`, `seed + 1`, …, as the
/// acceptance check varies them), the spread of every end-to-end metric
/// against its bound, and one traced set for the layer-ownership table.
/// Prints Markdown; returns whether every run was correct and every metric
/// held its bound.
pub fn aa(sets: usize, base: &RunConfig, environment: &str) -> Result<bool, String> {
    let seed = base.seed;
    let measure = |workload, seed, trace| {
        let cfg = RunConfig {
            seed,
            trace,
            ..base.clone()
        };
        Job { workload, cfg }.measure()
    };
    let mut ok = true;
    println!("# Benchmark self-check (`--aa {sets}`)\n");
    println!("{environment}. This file claims no gain: it records how steady the");
    println!("benchmark is on the box it was defined on, and which layer owns the wall.\n");
    // workload → metric → one value per set
    let mut values: Vec<BTreeMap<&str, Vec<f64>>> = vec![BTreeMap::new(); WORKLOADS.len()];
    for set in 0..sets {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!("A/A set {}/{sets}: {}", set + 1, workload.name);
            let report = measure(workload, seed + set as u64, false)?;
            if !report.correct() {
                ok = false;
                for problem in &report.problems {
                    println!("- PROBLEM in {} (set {set}): {problem}", workload.name);
                }
            }
            for (name, ..) in END_TO_END {
                let value = report
                    .value(name)
                    .ok_or(format!("{}: no {name}", workload.name))?;
                values[w].entry(name).or_default().push(value);
            }
        }
    }

    println!(
        "## A/A: {sets} full sets of the same build, seeds {seed}..{}\n",
        seed + sets as u64 - 1
    );
    println!(
        "Spread is the distance between the first and third quartile \
         (`statistics.quantiles(values, n=4)`) as a share of the median. A metric whose spread \
         exceeds its bound cannot resolve a regression of that size and would be demoted to an \
         informational number. With few sets the quartiles sit next to the minimum and the \
         maximum, so these spreads are wider than those of ten runs (README, \"Why the bounds \
         are this wide\").\n"
    );
    println!("| workload | metric | min | median | max | spread | bound | verdict |");
    println!("|---|---|---:|---:|---:|---:|---:|---|");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, unit, _, bound) in END_TO_END {
            let v = &values[w][name];
            let spread = quartile_spread(v);
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
            // `setup_s` is judged on its medians only, as the acceptance
            // check does.
            let verdict = if spread <= bound / 3.0 {
                "holds (under a third of the bound)"
            } else if spread <= bound || name == "setup_s" {
                "holds"
            } else {
                ok = false;
                "DEMOTE: spread exceeds the bound"
            };
            println!(
                "| {} | {name} ({unit}) | {lo:.4} | {:.4} | {hi:.4} | {:.2}% | {:.0}% | {verdict} |",
                workload.name,
                median(v),
                spread * 100.0,
                bound * 100.0,
            );
        }
    }

    println!("\n## Which layer owns the wall, per workload (one traced set, seed {seed})\n");
    println!(
        "Self time of each outside-in span as a share of the traced operation \
         (`reason.*`: the staged `reason_text`; `serve.*`: the median server query).\n"
    );
    println!("| workload | owner (>50%) | shares |");
    println!("|---|---|---|");
    for workload in &WORKLOADS {
        eprintln!("traced set: {}", workload.name);
        let report = measure(workload, seed, true)?;
        ok &= report.correct();
        let mut shares: Vec<(&str, f64)> = report
            .detail
            .iter()
            .filter_map(|m| Some((m.name.strip_prefix("share.")?, m.value)))
            .filter(|(name, _)| *name != "reason.staged")
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        let owner = match shares.first() {
            Some((name, share)) if *share > 50.0 => format!("`{name}` ({share:.0}%)"),
            Some((name, share)) => format!("none; largest is `{name}` ({share:.0}%)"),
            None => "no spans".to_string(),
        };
        let listed: Vec<String> = shares
            .iter()
            .map(|(name, share)| format!("{name} {share:.1}%"))
            .collect();
        println!("| {} | {owner} | {} |", workload.name, listed.join(", "));
        if let Some(overhead) = report.value("trace.overhead_pct") {
            println!("| | | trace.overhead_pct {overhead:.2}% |");
        }
    }
    Ok(ok)
}
