//! `fig5-final`: the Fig. 5 pipeline on the knockout-stage window of the
//! World-Cup trace — the four bound scenarios, then the exact
//! replay-verified offline optimum: `bml_opt::solve` followed by
//! `bml_sim::replay_schedule`, the pair `bml_opt::solve_verified` runs,
//! with the replay checked against the DP's claim by [`check`].

use std::hint::black_box;

use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_core::scheduler::paper_window_length;
use bml_opt::{OptOptions, OptimalSchedule};
use bml_sim::{run_comparison, ComparisonResult, ScenarioResult, SimConfig};
use bml_trace::worldcup::{generate, WorldCupParams};
use bml_trace::{LoadTrace, LookaheadMaxPredictor};

use crate::harness::{close, Harness, Sample, Stopwatch, Verdict};
use crate::spans::Tracer;

/// First day of the window: the knockout stage, where the DP's state
/// space and per-boundary cost reach those of the full 87-day run.
pub const FIRST_DAY: u32 = 80;
/// Window length in days: days 80-85, which stops short of the
/// semi-finals and the final (day 89) to keep one solve near 9 s; the
/// window already reaches the long run's 133 DP states.
pub const DAYS: u32 = 6;

/// Operations per iteration: the four comparison scenarios (in
/// [`ComparisonResult::scenarios`] order), then the optimum.
const OPS: usize = 5;
const UB_GLOBAL: usize = 0;
const BML: usize = 2;
const LOWER_BOUND: usize = 3;
const OPTIMUM: usize = 4;

pub struct Setup {
    trace: LoadTrace,
    bml: BmlInfrastructure,
}

pub fn setup(seed: u64, tracer: &Tracer) -> Setup {
    let trace = tracer.span("trace.generate", || {
        generate(&WorldCupParams {
            seed,
            first_day: FIRST_DAY,
            n_days: DAYS,
            ..Default::default()
        })
    });
    let bml = tracer.span("core.infra_build", || {
        BmlInfrastructure::build(&catalog::table1()).expect("the paper catalog builds")
    });
    Setup { trace, bml }
}

/// One iteration's results. `optimum` is `Err` when the DP dead-ended.
pub struct Output {
    pub comparison: ComparisonResult,
    pub optimum: Result<(OptimalSchedule, ScenarioResult), String>,
}

pub fn iterate(s: &Setup, tracer: &Tracer) -> (Sample, Output) {
    let config = SimConfig::default();
    let split = config.split;
    let opts = OptOptions::default();
    let sw = Stopwatch::start();
    let comparison = tracer.span("sim.comparison", || {
        run_comparison(&s.trace, &s.bml, &config)
    });
    // `solve` then `replay_schedule` is what `solve_verified` runs; the
    // two are timed apart here, and `check` applies its 1e-9 comparison.
    let optimum = tracer
        .span("opt.solve", || {
            bml_opt::solve(&s.trace, &s.bml, split, &opts)
        })
        .map(|sched| {
            let replay = tracer.span("sim.replay", || {
                bml_sim::replay_schedule(&s.trace, &s.bml, &sched.initial, &sched.schedule, split)
            });
            (sched, replay)
        })
        .ok_or_else(|| "the exact DP dead-ended".to_string());
    let sample = sw.stop(None);
    if tracer.enabled() {
        record_layers(tracer, &comparison, &optimum);
    }
    (
        sample,
        Output {
            comparison,
            optimum,
        },
    )
}

fn record_layers(
    tracer: &Tracer,
    comparison: &ComparisonResult,
    optimum: &Result<(OptimalSchedule, ScenarioResult), String>,
) {
    let mut rows: Vec<&ScenarioResult> = comparison.scenarios().to_vec();
    let comparison_segments: u64 = rows.iter().map(|r| r.segments_batched).sum();
    if let Ok((sched, replay)) = optimum {
        rows.push(replay);
        tracer.value("opt.solves", 1.0);
        tracer.value("opt.states", sched.n_states as f64);
        tracer.value("opt.boundaries", sched.n_boundaries as f64);
        let solve_s = tracer.last_span_s("opt.solve");
        if sched.n_boundaries > 0 {
            tracer.value(
                "opt.us_per_boundary",
                solve_s * 1e6 / sched.n_boundaries as f64,
            );
        }
    }
    for r in rows {
        tracer.engine_counts(&r.summary());
    }
    let comparison_s = tracer.last_span_s("sim.comparison");
    if comparison_segments > 0 {
        tracer.value(
            "sim.ns_per_segment",
            comparison_s * 1e9 / comparison_segments as f64,
        );
    }
}

/// The output checks: the optimum's replay reproduces the DP's claim to
/// 1e-9 relative and serves all demand, and the totals order as
/// LB <= optimum <= BML <= UB-global.
pub fn check(out: &Output) -> Verdict {
    let mut v = Verdict::new(OPS);
    let (sched, replay) = match &out.optimum {
        Ok(pair) => pair,
        Err(why) => {
            v.fail(OPTIMUM, why.clone());
            return v;
        }
    };
    if !close(sched.energy_j, replay.total_energy_j, 1e-9) {
        v.fail(
            OPTIMUM,
            format!(
                "replay metered {} J, the DP claims {} J",
                replay.total_energy_j, sched.energy_j
            ),
        );
    }
    if replay.qos.shortfall_fraction() != 0.0 {
        v.fail(
            OPTIMUM,
            format!(
                "the optimum leaves {} of the demand unserved",
                replay.qos.shortfall_fraction()
            ),
        );
    }
    let c = &out.comparison;
    let chain = [
        (LOWER_BOUND, c.lower_bound.total_energy_j),
        (OPTIMUM, sched.energy_j),
        (BML, c.bml.total_energy_j),
        (UB_GLOBAL, c.ub_global.total_energy_j),
    ];
    for pair in chain.windows(2) {
        let ((lo_op, lo), (hi_op, hi)) = (pair[0], pair[1]);
        if lo > hi * (1.0 + 1e-9) {
            let why = format!("energy order broken: {lo} J (op {lo_op}) > {hi} J (op {hi_op})");
            v.fail(lo_op, why.clone());
            v.fail(hi_op, why);
        }
    }
    v
}

pub fn run(h: &mut Harness, seed: u64) {
    let s = h.setup(|t| setup(seed, t));
    h.measure(|t, _| iterate(&s, t), check);
    // Per-layer probe: the look-ahead table the BML scenario builds.
    h.pass("probe", |t| {
        let window = paper_window_length(s.bml.candidates());
        t.span("trace.predictor_build", || {
            black_box(LookaheadMaxPredictor::new(&s.trace, window))
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real, small Fig. 5 output: one day of the window.
    fn output() -> Output {
        let trace = generate(&WorldCupParams {
            first_day: FIRST_DAY,
            n_days: 1,
            ..Default::default()
        });
        let s = Setup {
            trace,
            bml: BmlInfrastructure::build(&catalog::table1()).unwrap(),
        };
        iterate(&s, &Tracer::new(false)).1
    }

    #[test]
    fn untampered_output_passes_and_tampering_fails() {
        let out = output();
        let v = check(&out);
        assert_eq!((v.ops(), v.failed()), (OPS, 0), "{:?}", v.messages);

        let mut bad = output();
        if let Ok((sched, _)) = &mut bad.optimum {
            sched.energy_j *= 1.0 + 1e-6;
        }
        assert_eq!(check(&bad).failed(), 1, "replay mismatch counts as failed");

        let mut bad = output();
        bad.comparison.bml.total_energy_j = bad.comparison.lower_bound.total_energy_j * 0.5;
        assert!(check(&bad).failed() >= 2, "BML below the optimum is caught");

        let mut bad = output();
        if let Ok((_, replay)) = &mut bad.optimum {
            replay.qos.record(10.0, 5.0);
        }
        assert_eq!(
            check(&bad).failed(),
            1,
            "QoS shortfall of the optimum fails"
        );

        let mut bad = output();
        bad.optimum = Err("dead-ended".into());
        assert_eq!(check(&bad).failed(), 1);
    }
}
