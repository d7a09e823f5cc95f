//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! started (its parent) and the id of the run it belongs to (one setup
//! repetition, one measured iteration, one probe pass). Spans are kept in
//! memory and written out once, at the end. Alongside spans the tracer
//! keeps *values*: counts and ratios recorded at the same boundaries, so a
//! per-layer metric is measured where its work happens.
//!
//! A disabled tracer records nothing and costs one branch per call; the
//! end-to-end metrics are measured with it disabled.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::harness::median;

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub run: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span and value recorder. Methods take `&self` so a recorder can be
/// shared with callbacks the program invokes (the grid's cell sink) while
/// a span around the enclosing call is still open.
pub struct Tracer {
    epoch: Instant,
    enabled: Cell<bool>,
    runs: RefCell<Vec<String>>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    values: RefCell<Vec<(usize, &'static str, f64)>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: Cell::new(enabled),
            runs: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            values: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Start a new run; later spans and values belong to it.
    pub fn begin_run(&self, id: String) {
        if self.enabled() {
            self.runs.borrow_mut().push(id);
        }
    }

    fn current_run(&self) -> usize {
        self.runs.borrow().len().saturating_sub(1)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                run: self.current_run(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Record a value (a count or a ratio) for the current run; values of
    /// one name within a run add up.
    pub fn value(&self, name: &'static str, v: f64) {
        if self.enabled() {
            self.values.borrow_mut().push((self.current_run(), name, v));
        }
    }

    /// Duration in seconds of the latest span named `name` (0 if none).
    pub fn last_span_s(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.duration_ns() as f64 * 1e-9)
    }

    /// The engine's work counts of one scenario or cell.
    pub fn engine_counts(&self, s: &bml_sim::CellSummary) {
        self.value("engine.segments_batched", s.segments_batched as f64);
        self.value("engine.events_skipped", s.events_skipped as f64);
        self.value("engine.reconfigurations", s.reconfigurations as f64);
        self.value("engine.fallback_unsegmented", s.fallback_unsegmented as f64);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    pub fn run_ids(&self) -> Vec<String> {
        self.runs.borrow().clone()
    }

    /// Per-run totals of the spans named `name`, in seconds, for every
    /// run that has at least one.
    pub fn span_totals(&self, name: &str) -> Vec<f64> {
        per_run(
            self.spans
                .borrow()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.run, s.duration_ns() as f64 * 1e-9)),
        )
    }

    /// Every duration of the spans named `name`, in seconds.
    pub fn span_durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Per-run sums of the values named `name`.
    pub fn value_totals(&self, name: &str) -> Vec<f64> {
        per_run(
            self.values
                .borrow()
                .iter()
                .filter(|(_, n, _)| *n == name)
                .map(|&(run, _, v)| (run, v)),
        )
    }

    /// Per span name: the number of runs it appears in, and the median
    /// over those runs of its total and of its self time, in seconds.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans.borrow();
        let selfs = self_times_ns(&spans);
        let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let of_name = || spans.iter().zip(&selfs).filter(|(s, _)| s.name == name);
                let total = per_run(of_name().map(|(s, _)| (s.run, s.duration_ns() as f64 * 1e-9)));
                let own = per_run(of_name().map(|(s, &ns)| (s.run, ns as f64 * 1e-9)));
                (name, total.len(), median(&total), median(&own))
            })
            .collect()
    }
}

/// A span's self time: its duration minus the part of it its children
/// cover. Children of one parent never overlap (calls are sequential).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

fn per_run(items: impl Iterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut by_run: BTreeMap<usize, f64> = BTreeMap::new();
    for (run, v) in items {
        *by_run.entry(run).or_insert(0.0) += v;
    }
    by_run.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.begin_run("r".into());
        assert_eq!(t.span("a.x", || 7), 7);
        t.value("a.n", 1.0);
        assert!(t.spans().is_empty());
        assert!(t.value_totals("a.n").is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "grid.run",
                run: 0,
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "grid.sink",
                run: 0,
                start_ns: 10,
                end_ns: 30,
                parent: Some(0),
            },
            Span {
                name: "grid.sink",
                run: 0,
                start_ns: 50,
                end_ns: 55,
                parent: Some(0),
            },
        ];
        assert_eq!(self_times_ns(&spans), vec![75, 20, 5]);
    }

    #[test]
    fn totals_group_by_run_and_nest() {
        let t = Tracer::new(true);
        t.begin_run("a".into());
        t.span("sim.outer", || {
            t.span("opt.inner", || t.value("opt.n", 2.0))
        });
        t.value("opt.n", 3.0);
        t.begin_run("b".into());
        t.value("opt.n", 1.0);
        assert_eq!(t.value_totals("opt.n"), vec![5.0, 1.0]);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let summary = t.summary();
        let outer = summary.iter().find(|s| s.0 == "sim.outer").unwrap();
        assert_eq!(outer.1, 1);
        assert!(outer.3 <= outer.2);
    }
}
