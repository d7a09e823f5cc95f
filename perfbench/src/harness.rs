//! The measuring loop every workload shares: repeated set-up, a timed
//! loop that runs for the requested seconds, output checks, and the host
//! readings (CPU time, peak memory) behind the end-to-end metrics.

use std::collections::BTreeSet;
use std::time::Instant;

use crate::spans::Tracer;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 40;

/// The seed every shipped experiment uses: the default workload seed, and
/// the trace seed of `grid-smoke`, whose cost follows the trace's shape.
pub const TRACE_SEED: u64 = 1998;

/// The worker-thread cap of every parallel layer call.
pub const THREADS: usize = 2;

/// End-to-end readings of one measured iteration.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub first_cell_s: f64,
}

/// Wall and process CPU clocks started together.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu_s: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu_s
    }

    /// Stop. `first_cell_s` is when the first result reached the caller,
    /// for layers that stream results; `None` means every result arrives
    /// together, at the end.
    pub fn stop(&self, first_cell_s: Option<f64>) -> Sample {
        let wall_s = self.wall_s();
        Sample {
            wall_s,
            cpu_s: self.cpu_s(),
            first_cell_s: first_cell_s.unwrap_or(wall_s),
        }
    }
}

/// The outcome of checking one batch of operations (scenarios, solves or
/// cells): how many were attempted and which of them failed.
#[derive(Debug, Clone)]
pub struct Verdict {
    ops: usize,
    failed: BTreeSet<usize>,
    pub messages: Vec<String>,
}

impl Verdict {
    pub fn new(ops: usize) -> Self {
        Verdict {
            ops,
            failed: BTreeSet::new(),
            messages: Vec::new(),
        }
    }

    /// Operation `op` failed or failed a check.
    pub fn fail(&mut self, op: usize, why: String) {
        self.failed.insert(op.min(self.ops.saturating_sub(1)));
        self.messages.push(why);
    }

    /// A check over the whole batch failed: every operation counts.
    pub fn fail_all(&mut self, why: String) {
        self.failed.extend(0..self.ops);
        self.messages.push(why);
    }

    pub fn ops(&self) -> usize {
        self.ops
    }

    pub fn failed(&self) -> usize {
        self.failed.len()
    }
}

/// Operations attempted and failed over a whole run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn add(&mut self, v: Verdict) {
        self.attempted += v.ops() as u64;
        self.failed += v.failed() as u64;
        self.messages.extend(v.messages);
    }
}

/// One benchmark run: repeated set-up, then a measured loop.
pub struct Harness {
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    /// Iterations run with tracing off (the end-to-end samples).
    pub samples: Vec<Sample>,
    /// Iterations run with tracing on (traced runs only).
    pub traced_samples: Vec<Sample>,
    /// Peak resident memory after set-up and the first measured
    /// iteration: what one run of the workload in a fresh process holds.
    pub peak_rss_mb: f64,
}

impl Harness {
    pub fn new(seconds: f64, traced: bool) -> Self {
        Harness {
            seconds,
            traced,
            tracer: Tracer::new(traced),
            tally: Tally::default(),
            setup_s: Vec::new(),
            samples: Vec::new(),
            traced_samples: Vec::new(),
            peak_rss_mb: 0.0,
        }
    }

    /// Run `setup` [`SETUP_REPS`] times, timing each, and keep the last
    /// result.
    pub fn setup<S>(&mut self, mut setup: impl FnMut(&Tracer) -> S) -> S {
        let mut last = None;
        for rep in 0..SETUP_REPS {
            drop(last.take());
            self.tracer.begin_run(format!("setup-{rep}"));
            let t0 = Instant::now();
            let s = self.tracer.span("bench.setup", || setup(&self.tracer));
            self.setup_s.push(t0.elapsed().as_secs_f64());
            last = Some(s);
        }
        last.expect("SETUP_REPS > 0")
    }

    /// An untimed pass (a check reference, a per-layer probe), traced in
    /// traced runs.
    pub fn pass<T>(&mut self, id: &str, f: impl FnOnce(&Tracer) -> T) -> T {
        self.tracer.set_enabled(self.traced);
        self.tracer.begin_run(id.to_string());
        self.tracer.span("bench.pass", || f(&self.tracer))
    }

    /// Run `iterate` until the time budget is spent, checking each
    /// iteration's output with `check` as it completes. The loop stops
    /// before an iteration that would overrun the budget, after at least
    /// one iteration (traced runs: one untraced and one traced). Traced
    /// runs alternate untraced and traced iterations, so the two can be
    /// compared for the tracing overhead. Returns the last iteration's
    /// output; earlier ones are dropped once checked.
    pub fn measure<O>(
        &mut self,
        mut iterate: impl FnMut(&Tracer, usize) -> (Sample, O),
        mut check: impl FnMut(&O) -> Verdict,
    ) -> O {
        let budget = Instant::now();
        let min_iterations = if self.traced { 2 } else { 1 };
        let mut i = 0;
        loop {
            let traced_iteration = self.traced && i % 2 == 1;
            self.tracer.set_enabled(traced_iteration);
            self.tracer.begin_run(format!("iteration-{i}"));
            let (sample, out) = self
                .tracer
                .span("bench.iteration", || iterate(&self.tracer, i));
            self.tally.add(check(&out));
            if traced_iteration {
                self.traced_samples.push(sample);
            } else {
                self.samples.push(sample);
            }
            if i == 0 {
                self.peak_rss_mb = peak_rss_mb();
            }
            i += 1;
            let spent = budget.elapsed().as_secs_f64();
            if i >= min_iterations && spent + sample.wall_s > self.seconds {
                self.tracer.set_enabled(self.traced);
                return out;
            }
        }
    }
}

/// User plus system CPU time of this process, all threads included
/// (exited ones too), from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    // USER_HZ is 100 on every Linux target Rust supports.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / TICKS_PER_S,
        _ => 0.0,
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median (mean of the middle two for even counts); 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `a` and `b` agree to `rel` relative (plus 1e-9 absolute slack for
/// zero-energy values) — the workspace's float-equality rule.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()) + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn verdict_counts_each_op_once() {
        let mut v = Verdict::new(4);
        v.fail(1, "a".into());
        v.fail(1, "b".into());
        assert_eq!(v.failed(), 1);
        v.fail_all("c".into());
        assert_eq!(v.failed(), 4);
        let mut t = Tally::default();
        t.add(v);
        t.add(Verdict::new(3));
        assert_eq!((t.attempted, t.failed), (7, 4));
    }

    #[test]
    fn host_readings_are_positive() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1);
        assert!(sw.wall_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() > 0.0);
    }
}
