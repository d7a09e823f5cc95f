//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig5-final|grid-smoke|ablation-sweep \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Sets the workload up several times, then runs it for `--seconds`
//! seconds, checks every output, and prints one JSON object as the last
//! line of standard output: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones,
//! measured with tracing off; with `--trace 1` they are the per-layer
//! ones, from spans and counts recorded around each layer call. A
//! human-readable summary (and, when traced, every span) goes to standard
//! error. See README.md for the workloads and the metric map.

mod ablation;
mod fig5;
mod grid;
mod harness;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{median, Harness};

const DEFAULT_SECONDS: u64 = 36;
const WORKLOADS: [&str; 3] = ["fig5-final", "grid-smoke", "ablation-sweep"];

struct Cli {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: harness::TRACE_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = number()?,
            "--seconds" => cli.seconds = number()?.max(1),
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(cli)
}

/// Where a per-layer metric's value comes from.
enum Source {
    /// Median over traced runs of the run's total span time, scaled.
    Span(&'static str, f64),
    /// Median over traced runs of the run's summed value.
    Value(&'static str),
    /// Median traced minus median untraced iteration wall time.
    TraceOverhead,
    /// Measured iterations, traced and untraced.
    Iterations,
}

/// Every per-layer metric: name, unit, source. Layers a workload does not
/// exercise read 0 (see README.md for which workload moves which).
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("trace.generate_s", "s", Source::Span("trace.generate", 1.0)),
    (
        "trace.predictor_build_ms",
        "ms",
        Source::Span("trace.predictor_build", 1e3),
    ),
    (
        "core.infra_build_ms",
        "ms",
        Source::Span("core.infra_build", 1e3),
    ),
    ("sim.comparison_s", "s", Source::Span("sim.comparison", 1.0)),
    ("sim.replay_s", "s", Source::Span("sim.replay", 1.0)),
    ("sim.run_cells_s", "s", Source::Span("sim.run_cells", 1.0)),
    ("sim.cell_ms.p50", "ms", Source::Value("sim.cell_ms.p50")),
    ("sim.cell_ms.p90", "ms", Source::Value("sim.cell_ms.p90")),
    ("sim.cells_timed", "count", Source::Value("sim.cells_timed")),
    (
        "sim.ns_per_segment",
        "ns",
        Source::Value("sim.ns_per_segment"),
    ),
    (
        "engine.segments_batched",
        "count",
        Source::Value("engine.segments_batched"),
    ),
    (
        "engine.events_skipped",
        "count",
        Source::Value("engine.events_skipped"),
    ),
    (
        "engine.reconfigurations",
        "count",
        Source::Value("engine.reconfigurations"),
    ),
    (
        "engine.fallback_unsegmented",
        "count",
        Source::Value("engine.fallback_unsegmented"),
    ),
    ("opt.solve_s", "s", Source::Span("opt.solve", 1.0)),
    ("opt.solves", "count", Source::Value("opt.solves")),
    ("opt.states", "count", Source::Value("opt.states")),
    ("opt.boundaries", "count", Source::Value("opt.boundaries")),
    (
        "opt.us_per_boundary",
        "us",
        Source::Value("opt.us_per_boundary"),
    ),
    ("grid.run_s", "s", Source::Span("grid.run", 1.0)),
    ("grid.opt_phase_s", "s", Source::Value("grid.opt_phase_s")),
    (
        "grid.cells_phase_s",
        "s",
        Source::Value("grid.cells_phase_s"),
    ),
    ("grid.sink_s", "s", Source::Span("grid.sink", 1.0)),
    (
        "grid.aggregate_ms",
        "ms",
        Source::Span("grid.aggregate", 1e3),
    ),
    (
        "grid.journal_bytes",
        "bytes",
        Source::Value("grid.journal_bytes"),
    ),
    ("cells.ok", "count", Source::Value("cells.ok")),
    ("cells.failed", "count", Source::Value("cells.failed")),
    (
        "rayon.utilization",
        "ratio",
        Source::Value("rayon.utilization"),
    ),
    ("rayon.tasks", "count", Source::Value("rayon.tasks")),
    ("rayon.steals", "count", Source::Value("rayon.steals")),
    ("bench.trace_overhead_s", "s", Source::TraceOverhead),
    ("bench.iterations", "count", Source::Iterations),
];

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn end_to_end(h: &Harness) -> Vec<Metric> {
    let of = |f: fn(&harness::Sample) -> f64| median(&h.samples.iter().map(f).collect::<Vec<_>>());
    [
        ("wall_s", of(|s| s.wall_s), "s"),
        ("setup_s", median(&h.setup_s), "s"),
        ("cpu_s", of(|s| s.cpu_s), "s"),
        ("peak_rss_mb", h.peak_rss_mb, "MiB"),
        ("first_cell_s", of(|s| s.first_cell_s), "s"),
    ]
    .into_iter()
    .map(|(name, value, unit)| Metric { name, value, unit })
    .collect()
}

fn per_layer(h: &Harness) -> Vec<Metric> {
    let t = &h.tracer;
    let walls = |v: &[harness::Sample]| median(&v.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let value = match source {
                Source::Span(span, scale) => median(&t.span_totals(span)) * scale,
                Source::Value(v) => median(&t.value_totals(v)),
                Source::TraceOverhead => walls(&h.traced_samples) - walls(&h.samples),
                Source::Iterations => (h.samples.len() + h.traced_samples.len()) as f64,
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// A JSON number as measured: Rust's shortest round-trip rendering.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn render_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report_spans(h: &Harness) {
    let runs = h.tracer.run_ids();
    let spans = h.tracer.spans();
    let selfs = spans::self_times_ns(&spans);
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        eprintln!(
            "{{\"span\": {i}, \"name\": \"{}\", \"run\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \"self_us\": {}}}",
            s.name,
            runs.get(s.run).map_or("", String::as_str),
            s.start_ns / 1000,
            s.end_ns / 1000,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            own / 1000,
        );
    }
    eprintln!("span self time (median per run over the runs that have it):");
    eprintln!(
        "  {:<24} {:>5} {:>12} {:>12}",
        "span", "runs", "total_s", "self_s"
    );
    for (name, n, total, own) in h.tracer.summary() {
        eprintln!("  {name:<24} {n:>5} {total:>12.6} {own:>12.6}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("{}-{}", cli.workload, std::process::id()));
    let mut h = Harness::new(cli.seconds as f64, cli.trace);
    match cli.workload.as_str() {
        "fig5-final" => fig5::run(&mut h, cli.seed),
        "grid-smoke" => grid::run(&mut h, cli.seed, &work),
        "ablation-sweep" => ablation::run(&mut h, cli.seed),
        _ => unreachable!("parse() accepts only known workloads"),
    }
    // Succeeds only when no other run is using the work directory.
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent);
    }

    let tally = &h.tally;
    let e2e = end_to_end(&h);
    eprintln!(
        "{} seed {}: {} setups, {} untraced + {} traced iterations; \
         {} operations, {} failed (failed_frac {})",
        cli.workload,
        cli.seed,
        h.setup_s.len(),
        h.samples.len(),
        h.traced_samples.len(),
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    for why in tally.messages.iter().take(20) {
        eprintln!("  check failed: {why}");
    }
    let walls: Vec<String> = h
        .samples
        .iter()
        .map(|s| format!("{:.3}", s.wall_s))
        .collect();
    eprintln!("  untraced iteration walls (s): {}", walls.join(" "));
    for m in &e2e {
        eprintln!("  {:<28} {:>14.6} {} (median)", m.name, m.value, m.unit);
    }
    let metrics = if cli.trace {
        report_spans(&h);
        let layers = per_layer(&h);
        for m in &layers {
            eprintln!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
        }
        layers
    } else {
        e2e
    };
    println!(
        "{}",
        render_result(
            tally.failed == 0,
            tally.attempted.max(1),
            tally.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_defaults_and_rejections() {
        let cli = parse(&args("--workload grid-smoke")).unwrap();
        assert_eq!((cli.seed, cli.seconds, cli.trace), (1998, 36, false));
        let cli = parse(&args(
            "--workload fig5-final --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 3, true));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload grid-smoke --trace 2")).is_err());
        assert!(parse(&args("--workload grid-smoke --seed")).is_err());
        assert!(parse(&args("--workload grid-smoke --bogus 1")).is_err());
    }

    #[test]
    fn result_line_has_the_required_keys() {
        let m = [Metric {
            name: "wall_s",
            value: 1.25,
            unit: "s",
        }];
        assert_eq!(
            render_result(true, 5, 0, &m),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
