//! Running one workload in the current process.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::json::Json;
use crate::report::Report;
use crate::trace::Tracer;
use crate::workload::{Size, Workload, DEFAULT_SEED};
use crate::{reason, serve};

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed section.
    pub window: Duration,
    /// The per-layer pass instead of the end-to-end one.
    pub trace: bool,
    pub size: Size,
    /// Where WAL and trace files go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// Pinned digests only describe the default seed's inputs.
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED
    }

    pub fn pin_key(&self, workload: &str, what: &str) -> String {
        format!("{}/{workload}/{what}", self.size.name())
    }
}

pub fn run_workload(workload: &Workload, cfg: &RunConfig) -> Report {
    let mut report = if workload.kind.is_serve() {
        serve::run(workload, cfg)
    } else {
        reason::run(workload, cfg)
    };
    if cfg.pinned() {
        check_pins(&mut report);
    }
    report
}

/// Compare the digests the run computed with `expected.json`.
fn check_pins(report: &mut Report) {
    let expected = Json::parse(include_str!("../expected.json")).expect("expected.json parses");
    for (key, got) in report.pins.clone() {
        let outcome = match expected.get(&key).and_then(Json::as_str) {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!("{key}: expected {want}, got {got}")),
            None => Err(format!("{key}: not pinned in expected.json (got {got})")),
        };
        report.check(outcome);
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Write the spans of a traced run to `<out_dir>/trace-<workload>.jsonl`.
pub fn write_trace(tracer: &Tracer, cfg: &RunConfig, workload: &str) -> Result<(), String> {
    let path = cfg.out_dir.join(format!("trace-{workload}.jsonl"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&cfg.out_dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut out)?;
        std::io::Write::flush(&mut out)
    };
    write().map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A WAL path for this process under the out directory; the file and its
/// sidecar are removed when the guard drops.
pub struct ScratchWal(PathBuf);

impl ScratchWal {
    pub fn new(out_dir: &Path, tag: &str) -> Result<ScratchWal, String> {
        std::fs::create_dir_all(out_dir)
            .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
        // Unique per process and per use: tests run workloads on parallel
        // threads of one process.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir.join(format!("{tag}-{}-{n}.wal", std::process::id()));
        let guard = ScratchWal(path);
        guard.remove();
        Ok(guard)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    fn remove(&self) {
        let _ = std::fs::remove_file(&self.0);
        let mut sidecar = self.0.clone().into_os_string();
        sidecar.push(".costs");
        let _ = std::fs::remove_file(sidecar);
    }
}

impl Drop for ScratchWal {
    fn drop(&mut self) {
        self.remove();
    }
}
