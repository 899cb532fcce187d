//! Deterministic fault injection for crash-safety and robustness tests.
//!
//! Production code threads **named fault points** through the operations a
//! crash could interrupt — WAL writes, fsyncs, layer promotions, worker
//! dispatch — by calling [`point`] with a stable name:
//!
//! ```ignore
//! vadalog_fault::point("wal.fsync")?;   // Err(FaultError) on an injected failure
//! file.sync_data()?;
//! ```
//!
//! With no schedule armed (the production default) a point is a single
//! relaxed atomic load — no locks, no allocation, no branch taken. Tests arm
//! a [`Scenario`]: a set of `(point, hit-index) → action` rules where the
//! action either returns a typed [`FaultError`] (an I/O-style failure the
//! caller must surface) or **panics** (simulating a crash of the thread at
//! exactly that instruction — the tool the crash-recovery property test uses
//! to kill a session mid-append).
//!
//! Scenarios are process-global, so the harness serialises them: building a
//! [`Scenario`] takes a global test lock (held until the guard drops, which
//! also clears all schedules), and concurrently running tests that inject
//! faults queue behind each other instead of corrupting one another's
//! schedules. Hit counters survive for inspection via [`hits`] until the
//! next scenario arms.
//!
//! For out-of-process harnesses (the CI fault leg drives the CLI binary) the
//! same schedules have a text form: `;`-separated rules
//! `name@hit=error|panic`, e.g. `wal.fsync@1=error;session.promote@0=panic`.
//! [`parse_spec`] reads it and [`Scenario::arm_rules`] arms the result; this
//! crate reads no environment — the `vadalog` binary takes the spec from
//! `VADALOG_FAULTS` at startup.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Whether any schedule is armed; the only cost a fault point pays in
/// production is one relaxed load of this flag.
static ARMED: AtomicBool = AtomicBool::new(false);

/// A typed injected failure, carrying the point that fired.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultError {
    /// Name of the fault point that fired.
    pub point: &'static str,
    /// Zero-based hit index at which it fired.
    pub hit: u64,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {} (hit {})", self.point, self.hit)
    }
}

impl std::error::Error for FaultError {}

/// What an armed rule does when its `(point, hit)` matches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Return `Err(FaultError)` from [`point`] — an I/O-style failure the
    /// caller is expected to handle and surface.
    Error,
    /// Panic, simulating a crash of the executing thread at the point.
    Panic,
}

#[derive(Default)]
struct Registry {
    /// `(point, hit-index) → action`.
    rules: HashMap<(&'static str, u64), Action>,
    /// Hits per point since the scenario was armed.
    hits: HashMap<&'static str, u64>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn test_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// A named fault point. Returns `Ok(())` unless an armed scenario has a rule
/// for this point at its current hit index; `Action::Error` rules return the
/// typed error, `Action::Panic` rules panic (simulated crash).
///
/// The `name` should be stable and dot-namespaced (`"wal.fsync"`,
/// `"session.promote"`, `"server.dispatch"`); the registry of live points is
/// documented in `docs/ARCHITECTURE.md`.
pub fn point(name: &'static str) -> Result<(), FaultError> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let action = {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        let hit = reg.hits.entry(name).or_insert(0);
        let index = *hit;
        *hit += 1;
        reg.rules.get(&(name, index)).copied().map(|a| (a, index))
    };
    match action {
        None => Ok(()),
        Some((Action::Error, hit)) => Err(FaultError { point: name, hit }),
        Some((Action::Panic, hit)) => {
            panic!("injected crash at fault point {name} (hit {hit})")
        }
    }
}

/// Number of times `name` has been hit since the current scenario armed.
pub fn hits(name: &str) -> u64 {
    let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.hits.get(name).copied().unwrap_or(0)
}

/// An armed fault schedule. Holds the global fault lock; dropping it clears
/// every rule and disarms all points.
pub struct Scenario {
    _guard: MutexGuard<'static, ()>,
}

impl Scenario {
    /// Take the global fault lock and arm an empty scenario (all points
    /// pass). Rules are added with [`Scenario::fail_at`].
    pub fn arm() -> Scenario {
        let guard = test_lock().lock().unwrap_or_else(|p| p.into_inner());
        {
            let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
            reg.rules.clear();
            reg.hits.clear();
        }
        ARMED.store(true, Ordering::Relaxed);
        Scenario { _guard: guard }
    }

    /// Take the global fault lock and arm `rules` (typically from
    /// [`parse_spec`]).
    pub fn arm_rules(rules: Vec<FaultRule>) -> Scenario {
        let scenario = Scenario::arm();
        for rule in rules {
            scenario.add_rule(rule.point, rule.hit, rule.action);
        }
        scenario
    }

    /// Make `name` fire `action` at its `hit`-th invocation (zero-based).
    pub fn fail_at(self, name: &'static str, hit: u64, action: Action) -> Scenario {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.rules.insert((name, hit), action);
        drop(reg);
        self
    }

    fn add_rule(&self, name: String, hit: u64, action: Action) {
        // Point names arrive as `&'static str` from call sites; spec-supplied
        // names are interned by leaking (bounded by the number of distinct
        // rules in a test process).
        let name: &'static str = Box::leak(name.into_boxed_str());
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.rules.insert((name, hit), action);
    }
}

impl Drop for Scenario {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Relaxed);
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.rules.clear();
    }
}

/// One rule of a fault spec: fire `action` at the `hit`-th (zero-based)
/// invocation of the fault point named `point`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultRule {
    /// Fault point name.
    pub point: String,
    /// Zero-based hit index.
    pub hit: u64,
    /// What the point does at that hit.
    pub action: Action,
}

/// Parse `;`-separated `name@hit=error|panic` rules without arming them.
/// Empty rules are skipped; a malformed rule is reported as `Err`.
pub fn parse_spec(spec: &str) -> Result<Vec<FaultRule>, String> {
    spec.split(';')
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .map(|rule| {
            let (target, action) = rule
                .split_once('=')
                .ok_or_else(|| format!("fault rule `{rule}` is missing `=`"))?;
            let (name, hit) = target
                .split_once('@')
                .ok_or_else(|| format!("fault rule `{rule}` is missing `@hit`"))?;
            let hit: u64 = hit
                .parse()
                .map_err(|_| format!("fault rule `{rule}` has a non-numeric hit index"))?;
            let action = match action.trim() {
                "error" => Action::Error,
                "panic" => Action::Panic,
                other => return Err(format!("fault rule `{rule}`: unknown action `{other}`")),
            };
            Ok(FaultRule {
                point: name.trim().to_owned(),
                hit,
                action,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_pass() {
        assert_eq!(point("test.noop"), Ok(()));
    }

    #[test]
    fn error_rule_fires_at_exact_hit_then_clears_on_drop() {
        let scenario = Scenario::arm().fail_at("test.err", 1, Action::Error);
        assert_eq!(point("test.err"), Ok(()));
        assert_eq!(
            point("test.err"),
            Err(FaultError {
                point: "test.err",
                hit: 1
            })
        );
        assert_eq!(point("test.err"), Ok(()));
        assert_eq!(hits("test.err"), 3);
        drop(scenario);
        assert_eq!(point("test.err"), Ok(()));
    }

    #[test]
    fn panic_rule_panics() {
        let _scenario = Scenario::arm().fail_at("test.panic", 0, Action::Panic);
        let caught = std::panic::catch_unwind(|| point("test.panic"));
        assert!(caught.is_err());
    }

    #[test]
    fn spec_parsing_round_trips() {
        let rules = parse_spec("a.b@0=error; c.d@2=panic").expect("spec should parse");
        assert_eq!(
            rules[1],
            FaultRule {
                point: "c.d".to_owned(),
                hit: 2,
                action: Action::Panic
            }
        );
        let scenario = Scenario::arm_rules(rules);
        assert!(point("a.b").is_err());
        drop(scenario);
        assert_eq!(parse_spec(" ; "), Ok(Vec::new()));
        assert!(parse_spec("nonsense").is_err());
        assert!(parse_spec("a@x=error").is_err());
        assert!(parse_spec("a@1=explode").is_err());
    }
}
