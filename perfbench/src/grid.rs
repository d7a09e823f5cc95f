//! `grid-smoke`: the `grid` binary's 144-cell smoke grid (2 days of the
//! tournament trace, both stepping modes) through `GridRunner` at two
//! threads, with a fresh journal, a fresh cache and the streaming
//! artifact sink.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bml_core::combination::SplitPolicy;
use bml_core::scheduler::paper_window_length;
use bml_grid::spec::{CatalogSpec, GridSpec, SchedulerDim};
use bml_grid::{
    pareto_frontier, per_dimension_bests, CellRecord, CellSink, GridOutcome, GridRunner,
    RefineMeta, RunWarning, StreamingArtifactWriter,
};
use bml_sim::{CellSummary, Stepping};
use bml_trace::LookaheadMaxPredictor;

use crate::harness::{close, Harness, Sample, Stopwatch, Verdict, THREADS, TRACE_SEED};
use crate::spans::Tracer;

pub const DAYS: u32 = 2;
const JSON_NAME: &str = "BENCH_grid.json";
const CSV_NAME: &str = "BENCH_grid.csv";

/// The `grid` binary's default smoke spec at `--days 2`: 3 catalogs x
/// 2 schedulers x 3 windows x 2 sigmas x 2 splits x 2 steppings. The
/// workload seed is the grid's root seed, which seeds every cell's
/// prediction noise; the trace keeps the shipped seed, because the DP's
/// state space follows the trace's final-day peak and swings the opt
/// phase by a third from one trace seed to the next (see README.md).
/// At the default seed this is exactly `grid --days 2`.
pub fn smoke_spec(seed: u64) -> GridSpec {
    GridSpec::builder()
        .name(format!("smoke-{DAYS}d"))
        .root_seed(seed)
        .trace("worldcup-tournament", DAYS, TRACE_SEED)
        .catalogs(vec![
            CatalogSpec::table1(),
            CatalogSpec::big_medium(),
            CatalogSpec::big_little(),
        ])
        .schedulers(vec![SchedulerDim::Baseline, SchedulerDim::TransitionAware])
        .windows(vec![None, Some(189), Some(756)])
        .noise_sigmas(vec![0.0, 0.2])
        .splits(vec![
            SplitPolicy::EfficiencyGreedy,
            SplitPolicy::ProportionalToCapacity,
        ])
        .steppings(vec![Stepping::EventDriven, Stepping::PerSecond])
        .build()
        .expect("the smoke grid is a valid spec")
}

/// The fresh directories one grid run writes into.
pub struct Dirs {
    pub root: PathBuf,
    pub cache: PathBuf,
    pub journal: PathBuf,
    pub out: PathBuf,
}

impl Dirs {
    fn at(root: PathBuf) -> Dirs {
        Dirs {
            cache: root.join("cache"),
            journal: root.join("journal"),
            out: root.join("out"),
            root,
        }
    }

    /// Empty directories under `root`, replacing whatever was there.
    pub fn create(root: PathBuf) -> Dirs {
        let _ = std::fs::remove_dir_all(&root);
        let d = Dirs::at(root);
        for p in [&d.cache, &d.journal, &d.out] {
            std::fs::create_dir_all(p).expect("create a benchmark work directory");
        }
        d
    }

    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub struct Setup {
    spec: GridSpec,
    work: PathBuf,
}

pub fn setup(seed: u64, work: &Path, tracer: &Tracer) -> Setup {
    let spec = smoke_spec(seed);
    for t in &spec.traces {
        tracer.span("trace.generate", || {
            black_box(t.resolve().expect("registered source"))
        });
    }
    for c in &spec.catalogs {
        tracer.span("core.infra_build", || {
            black_box(c.resolve().expect("catalog builds"))
        });
    }
    Dirs::create(work.join("setup")).remove();
    Setup {
        spec,
        work: work.to_path_buf(),
    }
}

/// Wraps the streaming artifact writer: times every callback and notes
/// when the first cell arrives.
struct TimedSink<'t> {
    inner: StreamingArtifactWriter,
    tracer: &'t Tracer,
    first_cell: Option<Instant>,
}

impl CellSink for TimedSink<'_> {
    fn begin(&mut self, spec: &GridSpec, n: usize, refine: Option<&RefineMeta>) -> io::Result<()> {
        self.tracer
            .span("grid.sink", || self.inner.begin(spec, n, refine))
    }

    fn cell(&mut self, record: &CellRecord) -> io::Result<()> {
        self.first_cell.get_or_insert_with(Instant::now);
        self.tracer.span("grid.sink", || self.inner.cell(record))
    }

    fn finish(&mut self, out: &GridOutcome) -> io::Result<()> {
        self.tracer.span("grid.sink", || self.inner.finish(out))
    }
}

pub struct Output {
    pub outcome: Result<GridOutcome, String>,
    /// Components (cache, journal, sink) that stopped persisting during
    /// the run; such a run did less than the workload measures.
    pub warnings: Vec<RunWarning>,
    pub n_cells: usize,
    pub dirs: Dirs,
}

/// Run the grid once into `dirs` and aggregate its outcome.
fn run_grid(
    spec: &GridSpec,
    dirs: &Dirs,
    tracer: &Tracer,
) -> (Sample, Result<GridOutcome, String>, Vec<RunWarning>) {
    let sw = Stopwatch::start();
    let inner = StreamingArtifactWriter::create(&dirs.out).expect("create the artifact files");
    let mut sink = TimedSink {
        inner,
        tracer,
        first_cell: None,
    };
    let pool_before = rayon::pool_stats();
    let run_sw = Stopwatch::start();
    let run_start = Instant::now();
    let run = tracer.span("grid.run", || {
        GridRunner::new(spec)
            .threads(THREADS)
            .cache_dir(&dirs.cache)
            .journal_dir(&dirs.journal)
            .sink(&mut sink)
            .run()
    });
    let (run_wall, run_cpu) = (run_sw.wall_s(), run_sw.cpu_s());
    let first_cell_s = sink
        .first_cell
        .map_or(run_wall, |t| t.duration_since(run_start).as_secs_f64());
    let mut warnings = Vec::new();
    let outcome = run.map(|run| {
        tracer.span("grid.aggregate", || {
            black_box((
                pareto_frontier(&run.outcome),
                per_dimension_bests(&run.outcome),
            ))
        });
        if tracer.enabled() {
            let pool = rayon::pool_stats();
            record_layers(
                tracer,
                &run,
                run_wall,
                run_cpu,
                pool.tasks - pool_before.tasks,
                pool.steals - pool_before.steals,
            );
        }
        warnings = run.warnings;
        run.outcome
    });
    (sw.stop(Some(first_cell_s)), outcome, warnings)
}

fn record_layers(
    tracer: &Tracer,
    run: &bml_grid::GridRun,
    wall_s: f64,
    cpu_s: f64,
    tasks: u64,
    steals: u64,
) {
    let t = &run.telemetry;
    let phase_s = |name: &str| {
        t.timings
            .span(name)
            .map_or(0.0, |s| s.total_us as f64 * 1e-6)
    };
    let opt_s = phase_s("phase.opt_solve");
    tracer.value("grid.opt_phase_s", opt_s);
    tracer.value("grid.cells_phase_s", phase_s("phase.cells"));
    tracer.value("cells.ok", run.outcome.cells.len() as f64);
    tracer.value("cells.failed", run.outcome.failed_cells.len() as f64);
    tracer.value(
        "grid.journal_bytes",
        t.timings.host_get("journal.bytes_written") as f64,
    );
    let boundaries = t.counters.get("opt.boundaries");
    tracer.value("opt.solves", t.counters.get("opt.solves") as f64);
    tracer.value("opt.states", t.counters.get("opt.states") as f64);
    tracer.value("opt.boundaries", boundaries as f64);
    if boundaries > 0 {
        tracer.value("opt.us_per_boundary", opt_s * 1e6 / boundaries as f64);
    }
    for c in &run.outcome.cells {
        tracer.engine_counts(&c.summary);
    }
    tracer.value("rayon.utilization", cpu_s / (wall_s * THREADS as f64));
    tracer.value("rayon.tasks", tasks as f64);
    tracer.value("rayon.steals", steals as f64);
}

pub fn iterate(s: &Setup, tracer: &Tracer, i: usize) -> (Sample, Output) {
    if i > 0 {
        // Only the newest run is kept, for the warm rerun.
        Dirs::at(s.work.join(format!("run-{}", i - 1))).remove();
    }
    let dirs = Dirs::create(s.work.join(format!("run-{i}")));
    let (sample, outcome, warnings) = run_grid(&s.spec, &dirs, tracer);
    (
        sample,
        Output {
            outcome,
            warnings,
            n_cells: s.spec.n_cells(),
            dirs,
        },
    )
}

/// Stepping-twin key: every coordinate except the stepping.
type TwinKey = (usize, usize, usize, usize, usize, usize);

/// The output checks, one operation per enumerated cell: no component
/// degraded, every cell is decided and none quarantined, every cell
/// carries an optimum no larger
/// than its own energy, and every event-driven cell matches its
/// per-second twin (discrete counts equal, energies to 1e-9 relative).
pub fn check(out: &Output) -> Verdict {
    let mut v = Verdict::new(out.n_cells);
    let outcome = match &out.outcome {
        Ok(o) => o,
        Err(e) => {
            v.fail_all(format!("grid run failed: {e}"));
            return v;
        }
    };
    for w in &out.warnings {
        v.fail_all(warning_message(w));
    }
    let decided = outcome.cells.len() + outcome.failed_cells.len();
    if decided != out.n_cells {
        v.fail_all(format!(
            "{decided} cells decided, {} enumerated",
            out.n_cells
        ));
    }
    for f in &outcome.failed_cells {
        v.fail(
            f.coords.index,
            format!("cell {} quarantined", f.coords.index),
        );
    }
    let mut twins: BTreeMap<TwinKey, [Option<&CellRecord>; 2]> = BTreeMap::new();
    for c in &outcome.cells {
        let s = &c.summary;
        match s.optimal_energy_j {
            Some(opt) if opt <= s.total_energy_j * (1.0 + 1e-9) => {}
            other => v.fail(
                c.coords.index,
                format!(
                    "cell {}: optimum {other:?} J vs own energy {} J",
                    c.coords.index, s.total_energy_j
                ),
            ),
        }
        let k = &c.coords;
        let key = (k.trace, k.catalog, k.scheduler, k.window, k.sigma, k.split);
        twins.entry(key).or_default()[k.stepping.min(1)] = Some(c);
    }
    for pair in twins.values() {
        match pair {
            [Some(e), Some(p)] => {
                if let Err(why) = twin_divergence(&e.summary, &p.summary) {
                    let msg = format!("cells {}/{}: {why}", e.coords.index, p.coords.index);
                    v.fail(e.coords.index, msg.clone());
                    v.fail(p.coords.index, msg);
                }
            }
            [Some(c), None] | [None, Some(c)] => {
                v.fail(
                    c.coords.index,
                    format!("cell {} has no stepping twin", c.coords.index),
                );
            }
            [None, None] => {}
        }
    }
    v
}

fn warning_message(w: &RunWarning) -> String {
    format!("the {} stopped persisting: {}", w.component, w.message)
}

/// How an event-driven summary `e` departs from its per-second twin `p`.
fn twin_divergence(e: &CellSummary, p: &CellSummary) -> Result<(), String> {
    if e.stepping_effective != Stepping::EventDriven || p.stepping_effective != Stepping::PerSecond
    {
        return Err(format!(
            "ran {:?}/{:?} loops",
            e.stepping_effective, p.stepping_effective
        ));
    }
    let counts = [
        ("reconfigurations", e.reconfigurations, p.reconfigurations),
        (
            "nodes_switched_on",
            e.nodes_switched_on,
            p.nodes_switched_on,
        ),
        (
            "nodes_switched_off",
            e.nodes_switched_off,
            p.nodes_switched_off,
        ),
        (
            "violation_seconds",
            e.violation_seconds,
            p.violation_seconds,
        ),
        (
            "instance_migrations",
            e.instance_migrations,
            p.instance_migrations,
        ),
    ];
    for (name, a, b) in counts {
        if a != b {
            return Err(format!("{name} {a} vs {b}"));
        }
    }
    let energies = [
        ("total_energy_j", e.total_energy_j, p.total_energy_j),
        ("mean_power_w", e.mean_power_w, p.mean_power_w),
        ("qos_shortfall", e.qos_shortfall, p.qos_shortfall),
        ("worst_shortfall", e.worst_shortfall, p.worst_shortfall),
        (
            "reconfig_energy_j",
            e.reconfig_energy_j,
            p.reconfig_energy_j,
        ),
    ];
    for (name, a, b) in energies {
        if !close(a, b, 1e-9) {
            return Err(format!("{name} {a} vs {b}"));
        }
    }
    Ok(())
}

/// An untimed warm rerun against a finished run's cache must reproduce
/// its artifacts byte for byte, with no component degraded. One
/// operation per cell rerun.
pub fn check_warm_rerun(spec: &GridSpec, cold: &Dirs, warm: &Dirs) -> Verdict {
    let mut v = Verdict::new(spec.n_cells());
    let rerun = StreamingArtifactWriter::create(&warm.out).and_then(|mut sink| {
        GridRunner::new(spec)
            .threads(THREADS)
            .cache_dir(&cold.cache)
            .journal_dir(&warm.journal)
            .sink(&mut sink)
            .run()
            .map_err(io::Error::other)
    });
    match rerun {
        Ok(run) => {
            for w in &run.warnings {
                v.fail_all(format!("warm rerun: {}", warning_message(w)));
            }
        }
        Err(e) => {
            v.fail_all(format!("warm rerun failed: {e}"));
            return v;
        }
    }
    for name in [JSON_NAME, CSV_NAME] {
        let a = std::fs::read(cold.out.join(name));
        let b = std::fs::read(warm.out.join(name));
        match (a, b) {
            (Ok(a), Ok(b)) if a == b => {}
            _ => v.fail_all(format!("warm rerun {name} differs from the cold run's")),
        }
    }
    v
}

pub fn run(h: &mut Harness, seed: u64, work: &Path) {
    let s = h.setup(|t| setup(seed, work, t));
    let last = h.measure(|t, i| iterate(&s, t, i), check);
    let warm = Dirs::create(work.join("warm"));
    h.tally.add(check_warm_rerun(&s.spec, &last.dirs, &warm));
    h.pass("probe", |t| {
        let trace = s.spec.traces[0].resolve().expect("registered source");
        let mut windows: Vec<u64> = Vec::new();
        for c in &s.spec.catalogs {
            let bml = c.resolve().expect("catalog builds");
            for w in &s.spec.windows {
                windows.push(w.unwrap_or_else(|| paper_window_length(bml.candidates())));
            }
        }
        windows.sort_unstable();
        windows.dedup();
        for w in windows {
            t.span("trace.predictor_build", || {
                black_box(LookaheadMaxPredictor::new(&trace, w))
            });
        }
    });
    let _ = std::fs::remove_dir_all(work);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bml_grid::spec::TraceSpec;

    fn tiny_spec() -> GridSpec {
        GridSpec {
            name: "perfbench-unit".into(),
            root_seed: 5,
            traces: vec![TraceSpec {
                source: "diurnal".into(),
                days: 1,
                seed: 0,
            }],
            catalogs: vec![CatalogSpec::paper_trio()],
            schedulers: vec![SchedulerDim::Baseline],
            windows: vec![None],
            noise_sigmas: vec![0.0, 0.1],
            splits: vec![SplitPolicy::EfficiencyGreedy],
            steppings: vec![Stepping::EventDriven, Stepping::PerSecond],
        }
    }

    fn work(name: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{name}-{}", std::process::id()))
    }

    fn output(spec: &GridSpec, dirs: Dirs) -> Output {
        let (_, outcome, warnings) = run_grid(spec, &dirs, &Tracer::new(false));
        Output {
            outcome,
            warnings,
            n_cells: spec.n_cells(),
            dirs,
        }
    }

    #[test]
    fn tampered_cells_count_as_failed() {
        let spec = tiny_spec();
        let root = work("cells");
        let mut out = output(&spec, Dirs::create(root.clone()));
        let v = check(&out);
        assert_eq!((v.ops(), v.failed()), (4, 0), "{:?}", v.messages);

        let cells = &mut out.outcome.as_mut().unwrap().cells;
        cells[0].summary.total_energy_j *= 1.0 + 1e-6;
        assert_eq!(check(&out).failed(), 2, "a diverging twin fails both cells");

        let cells = &mut out.outcome.as_mut().unwrap().cells;
        cells[0].summary.total_energy_j = cells[1].summary.total_energy_j;
        cells[3].summary.reconfigurations += 1;
        assert_eq!(check(&out).failed(), 2);

        let cells = &mut out.outcome.as_mut().unwrap().cells;
        cells[3].summary.reconfigurations -= 1;
        let energy = cells[2].summary.total_energy_j;
        cells[2].summary.optimal_energy_j = Some(energy * 1.01);
        assert_eq!(
            check(&out).failed(),
            1,
            "an optimum above the cell's energy fails"
        );

        out.outcome.as_mut().unwrap().cells[2]
            .summary
            .optimal_energy_j = Some(energy);
        assert_eq!(check(&out).failed(), 0);
        out.warnings.push(RunWarning {
            component: "cache",
            message: "disk full".into(),
        });
        assert_eq!(
            check(&out).failed(),
            4,
            "a degraded component fails the run"
        );

        out.warnings.clear();
        out.outcome.as_mut().unwrap().cells.pop();
        assert_eq!(check(&out).failed(), 4, "a missing cell fails the run");
        std::fs::remove_dir_all(&root).unwrap();
        // Succeeds once no other test still uses the work directory.
        let _ = std::fs::remove_dir(root.parent().unwrap());
    }

    #[test]
    fn warm_rerun_catches_changed_artifacts() {
        let spec = tiny_spec();
        let root = work("warm");
        let out = output(&spec, Dirs::create(root.join("cold")));
        let warm = || Dirs::create(root.join("warm"));
        let v = check_warm_rerun(&spec, &out.dirs, &warm());
        assert_eq!((v.ops(), v.failed()), (4, 0), "{:?}", v.messages);

        let csv = out.dirs.out.join(CSV_NAME);
        let mut bytes = std::fs::read(&csv).unwrap();
        bytes.push(b'\n');
        std::fs::write(&csv, bytes).unwrap();
        assert_eq!(check_warm_rerun(&spec, &out.dirs, &warm()).failed(), 4);
        std::fs::remove_dir_all(&root).unwrap();
        // Succeeds once no other test still uses the work directory.
        let _ = std::fs::remove_dir(root.parent().unwrap());
    }
}
