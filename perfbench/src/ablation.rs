//! `ablation-sweep`: the ablation binaries' combined knob values run as
//! one batch of cells through `bml_sim::run_cells` at two threads,
//! event-driven, on the 7-day tournament trace.

use std::hint::black_box;

use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_core::combination::SplitPolicy;
use bml_core::transition_aware::TransitionAwareConfig;
use bml_sim::{run_cell, run_cells, CellConfig, CellJob, ScenarioResult, SchedulerKind, SimConfig};
use bml_trace::{LoadTrace, LookaheadMaxPredictor};

use crate::harness::{quantile, Harness, Sample, Stopwatch, Verdict, THREADS};
use crate::spans::Tracer;

pub const DAYS: u32 = 7;
/// `ablation_window`'s windows (s).
pub const WINDOWS: [u64; 6] = [60, 189, 378, 756, 1800, 3600];
/// Clean prediction and `ablation_prediction`'s noisiest common level.
pub const SIGMAS: [f64; 2] = [0.0, 0.2];
/// `ablation_scheduler`'s split policies.
pub const SPLITS: [SplitPolicy; 2] = [
    SplitPolicy::EfficiencyGreedy,
    SplitPolicy::ProportionalToCapacity,
];

pub struct Setup {
    trace: LoadTrace,
    bml: BmlInfrastructure,
    cells: Vec<CellConfig>,
}

/// Every (window, sigma, split, scheduler) cell, with the noise seeded by
/// the workload seed as the ablation binaries do.
pub fn cells(seed: u64) -> Vec<CellConfig> {
    let base = CellConfig::from_sim(&SimConfig::default());
    let mut out = Vec::new();
    for &window in &WINDOWS {
        for &sigma in &SIGMAS {
            for &split in &SPLITS {
                let aware = TransitionAwareConfig {
                    horizon_s: window as f64,
                    split,
                    consider_keep_variants: true,
                };
                for scheduler in [
                    SchedulerKind::Baseline,
                    SchedulerKind::TransitionAware(aware),
                ] {
                    out.push(CellConfig {
                        scheduler,
                        window: Some(window),
                        noise_sigma: sigma,
                        noise_seed: seed,
                        split,
                        ..base.clone()
                    });
                }
            }
        }
    }
    out
}

pub fn setup(seed: u64, tracer: &Tracer) -> Setup {
    let trace = tracer.span("trace.generate", || {
        bml_trace::registry::generate("worldcup-tournament", DAYS, seed).expect("registered source")
    });
    let bml = tracer.span("core.infra_build", || {
        BmlInfrastructure::build(&catalog::table1()).expect("the paper catalog builds")
    });
    Setup {
        trace,
        bml,
        cells: cells(seed),
    }
}

fn jobs(s: &Setup) -> Vec<CellJob<'_>> {
    s.cells
        .iter()
        .map(|cell| CellJob {
            trace: &s.trace,
            bml: &s.bml,
            cell: cell.clone(),
        })
        .collect()
}

pub fn iterate(s: &Setup, tracer: &Tracer) -> (Sample, Vec<ScenarioResult>) {
    let jobs = jobs(s);
    let pool_before = rayon::pool_stats();
    let sw = Stopwatch::start();
    let results = tracer.span("sim.run_cells", || run_cells(&jobs, Some(THREADS)));
    let sample = sw.stop(None);
    if tracer.enabled() {
        let pool = rayon::pool_stats();
        tracer.value(
            "rayon.utilization",
            sample.cpu_s / (sample.wall_s * THREADS as f64),
        );
        tracer.value("rayon.tasks", (pool.tasks - pool_before.tasks) as f64);
        tracer.value("rayon.steals", (pool.steals - pool_before.steals) as f64);
        for r in &results {
            tracer.engine_counts(&r.summary());
        }
    }
    (sample, results)
}

/// Every cell's result must be bit-identical to the serial reference.
pub fn check(results: &[ScenarioResult], reference: &[ScenarioResult]) -> Verdict {
    let mut v = Verdict::new(reference.len());
    if results.len() != reference.len() {
        v.fail_all(format!(
            "{} results for {} cells",
            results.len(),
            reference.len()
        ));
        return v;
    }
    for (i, (r, want)) in results.iter().zip(reference).enumerate() {
        if !bit_identical(r, want) {
            v.fail(
                i,
                format!("cell {i} differs from its serial run_cell result"),
            );
        }
    }
    v
}

/// `PartialEq` plus a bitwise comparison of the float totals (`==` would
/// let 0.0 and -0.0 pass).
fn bit_identical(a: &ScenarioResult, b: &ScenarioResult) -> bool {
    let bits = |r: &ScenarioResult| {
        [
            r.total_energy_j.to_bits(),
            r.mean_power_w.to_bits(),
            r.reconfig_energy_j.to_bits(),
        ]
    };
    a == b && bits(a) == bits(b)
}

pub fn run(h: &mut Harness, seed: u64) {
    let s = h.setup(|t| setup(seed, t));
    // The check reference: each cell run serially through `run_cell`, each
    // call a span (the per-cell latency distribution of a traced run).
    let reference: Vec<ScenarioResult> = h.pass("serial", |t| {
        let serial: Vec<ScenarioResult> = s
            .cells
            .iter()
            .map(|cell| t.span("sim.cell", || run_cell(&s.trace, &s.bml, cell)))
            .collect();
        let cell_ms: Vec<f64> = t
            .span_durations("sim.cell")
            .iter()
            .map(|d| d * 1e3)
            .collect();
        if !cell_ms.is_empty() {
            t.value("sim.cell_ms.p50", quantile(&cell_ms, 0.5));
            t.value("sim.cell_ms.p90", quantile(&cell_ms, 0.9));
            t.value("sim.cells_timed", cell_ms.len() as f64);
            let segments: u64 = serial.iter().map(|r| r.segments_batched).sum();
            if segments > 0 {
                t.value(
                    "sim.ns_per_segment",
                    cell_ms.iter().sum::<f64>() * 1e6 / segments as f64,
                );
            }
        }
        serial
    });
    h.measure(|t, _| iterate(&s, t), |out| check(out, &reference));
    h.pass("probe", |t| {
        for &w in &WINDOWS {
            t.span("trace.predictor_build", || {
                black_box(LookaheadMaxPredictor::new(&s.trace, w))
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_values_cover_the_ablation_binaries() {
        assert_eq!(
            cells(1).len(),
            WINDOWS.len() * SIGMAS.len() * SPLITS.len() * 2
        );
    }

    #[test]
    fn tampered_results_count_as_failed() {
        let s = Setup {
            trace: bml_trace::registry::generate("worldcup-tournament", 1, 3).unwrap(),
            bml: BmlInfrastructure::build(&catalog::table1()).unwrap(),
            cells: cells(3).into_iter().step_by(12).collect(),
        };
        let reference: Vec<ScenarioResult> = s
            .cells
            .iter()
            .map(|c| run_cell(&s.trace, &s.bml, c))
            .collect();
        let (_, results) = iterate(&s, &Tracer::new(false));
        let v = check(&results, &reference);
        assert_eq!(
            (v.ops(), v.failed()),
            (s.cells.len(), 0),
            "{:?}",
            v.messages
        );

        let mut bad = results.clone();
        bad[1].total_energy_j = f64::from_bits(bad[1].total_energy_j.to_bits() + 1);
        assert_eq!(check(&bad, &reference).failed(), 1, "one ulp is a failure");

        let mut bad = results.clone();
        bad[2].reconfigurations += 1;
        assert_eq!(check(&bad, &reference).failed(), 1);

        let short = &results[..results.len() - 1];
        assert_eq!(check(short, &reference).failed(), s.cells.len());
    }
}
