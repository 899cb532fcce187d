//! Outside-in span recorder: the benchmark times the calls it makes into each
//! layer's public functions. Spans are kept in memory and written out when
//! the run ends; a disabled tracer records nothing, which is how the tracing
//! overhead is measured.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval. `parent` indexes into the tracer's span list;
/// spans of one operation share `op_id`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = end_ns;
    }

    /// Time `f` as a child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, op_id);
        let out = f();
        self.exit();
        out
    }

    /// Record an interval whose name is only known once it has ended (a
    /// query is a hit or a miss after the fact) or that overlaps its
    /// neighbours (two requests in flight).
    pub fn record(&mut self, name: &'static str, op_id: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
                op_id,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span and line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (children are clipped to the parent and
/// overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name samples of span durations and self times, in seconds.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub total_s: Vec<f64>,
    pub self_s: Vec<f64>,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTimes> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, LayerTimes> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let entry = out.entry(s.name).or_default();
        entry.total_s.push(s.duration_ns() as f64 / 1e9);
        entry.self_s.push(own as f64 / 1e9);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // adjacent children
            span("a", 10, 30, Some(0)),
            span("b", 30, 50, Some(0)),
            // a grandchild only reduces its own parent
            span("a.inner", 12, 20, Some(1)),
            // a gap, then a child that runs to the end of the root
            span("c", 70, 100, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 12, 20, 8, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 140, 170, Some(0)),
            // starts inside, ends outside the parent: clipped to 190..200
            span("z", 190, 260, Some(0)),
            // entirely outside: ignored
            span("w", 10, 20, Some(0)),
        ];
        // covered: 110..170 (60) + 190..200 (10)
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.enter("op", 7);
        let v = t.span("layer", 7, || 41 + 1);
        let (a, b) = (t.now_ns(), t.now_ns() + 5);
        t.record("late", 7, a, b);
        t.exit();
        assert_eq!(v, 42);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("op", None), ("layer", Some(0)), ("late", Some(0))]
        );
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(t.spans().iter().all(|s| s.op_id == 7));

        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .starts_with("{\"name\":\"op\",\"start_ns\":"));
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"parent\":0"));

        let mut off = Tracer::new(false);
        off.enter("op", 1);
        off.span("layer", 1, || ());
        off.record("late", 1, 0, 1);
        off.exit();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn by_name_groups_samples() {
        let spans = vec![
            span("op", 0, 1_000_000_000, None),
            span("layer", 0, 250_000_000, Some(0)),
            span("op", 2_000_000_000, 2_500_000_000, None),
        ];
        let layers = by_name(&spans);
        assert_eq!(layers["op"].total_s, vec![1.0, 0.5]);
        assert_eq!(layers["op"].self_s, vec![0.75, 0.5]);
        assert_eq!(layers["layer"].self_s, vec![0.25]);
    }
}
