//! Offline-optimal DP throughput: the exact segment DP (and a
//! beam-pruned variant) plus the replay verification pass, in two
//! flavours over two days of load:
//!
//! * **plateau** — 5-minute constant-load plateaus on a diurnal cycle,
//!   the trace `engine_replay` uses: 568 segments, so it is the
//!   regression check that the DP only works at segment boundaries;
//! * **tournament** — the `worldcup-tournament` trace the smoke grid
//!   and the Fig. 5 runs replay: nearly one segment per second, so the
//!   per-boundary cost of the lattice sweeps and the backtrack dominates.
//!
//! The headline metric printed per flavour before the criterion timings
//! is **simulated-seconds per wall-clock second** for the full
//! solve-then-verify pipeline, with the DP's cost per boundary — the
//! numbers that bound how much trace the optimality-gap columns can
//! afford to cover in CI. This bench is where a state-space or
//! per-boundary regression shows up first.

use std::time::Instant;

use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_core::combination::SplitPolicy;
use bml_opt::{solve, solve_verified, OptOptions};
use bml_trace::LoadTrace;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Deterministic two-day trace of 5-minute constant-load plateaus
/// tracking a diurnal cycle between ~10 and ~2510 req/s — the same shape
/// as `engine_replay`'s, so the solver and engine throughputs compare.
fn plateau_trace(days: u32) -> LoadTrace {
    let n = days as usize * 86_400;
    let mut rates = Vec::with_capacity(n);
    for t in 0..n {
        let block_start = t / 300 * 300; // 5-minute plateaus
        let hour = (block_start % 86_400) as f64 / 3_600.0;
        let phase = (hour - 4.0) / 24.0 * std::f64::consts::TAU;
        let diurnal = 0.5 - 0.5 * phase.cos();
        rates.push((10.0 + 2_500.0 * diurnal).round());
    }
    LoadTrace::new(0, rates)
}

/// Print `flavour`'s headline: best-of-3 wall time for the exact solve +
/// replay verify, so the printed rate is not hostage to one scheduling
/// stall.
fn headline(flavour: &str, trace: &LoadTrace, bml: &BmlInfrastructure, split: SplitPolicy) {
    let mut best_wall = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let started = Instant::now();
        let r = solve_verified(trace, bml, split, &OptOptions::default());
        best_wall = best_wall.min(started.elapsed().as_secs_f64());
        last = Some(black_box(r));
    }
    let (sched, _) = last.flatten().expect("exact DP cannot dead-end");
    let sim_secs = trace.len() as f64;
    println!(
        "opt_dp/{flavour} exact+verify {:>12.0} simulated-s/wallclock-s  \
         ({:.0} sim-s, {} segments x {} states, {} records, in {:.4} s, \
         {:.2} us/boundary)",
        sim_secs / best_wall,
        sim_secs,
        sched.n_segments,
        sched.n_states,
        sched.schedule.len(),
        best_wall,
        best_wall * 1e6 / sched.n_boundaries.max(1) as f64,
    );
}

fn bench_opt_dp(c: &mut Criterion) {
    let plateau = plateau_trace(2);
    let tournament = bml_trace::registry::generate("worldcup-tournament", 2, 1998)
        .expect("worldcup-tournament is a registered trace");
    let bml = BmlInfrastructure::build(&catalog::table1()).unwrap();
    let split = SplitPolicy::EfficiencyGreedy;

    headline("plateau", &plateau, &bml, split);
    headline("tournament", &tournament, &bml, split);

    let mut g = c.benchmark_group("opt_dp");
    g.sample_size(10);
    g.bench_function("exact_2day", |b| {
        b.iter(|| {
            solve(
                black_box(&plateau),
                black_box(&bml),
                split,
                &OptOptions::default(),
            )
        })
    });
    let beam = OptOptions {
        beam_width: Some(4),
        extra_states: vec![],
    };
    g.bench_function("beam4_2day", |b| {
        b.iter(|| solve(black_box(&plateau), black_box(&bml), split, &beam))
    });
    g.bench_function("exact_verified_2day", |b| {
        b.iter(|| {
            solve_verified(
                black_box(&plateau),
                black_box(&bml),
                split,
                &OptOptions::default(),
            )
        })
    });
    g.bench_function("exact_tournament_2day", |b| {
        b.iter(|| {
            solve(
                black_box(&tournament),
                black_box(&bml),
                split,
                &OptOptions::default(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_opt_dp);
criterion_main!(benches);
