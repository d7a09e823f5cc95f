//! Fault-tolerance gate: kill-resume byte-identity, deterministic chaos,
//! quarantine accounting, and graceful degradation.
//!
//! Everything here leans on two invariants the grid stack maintains:
//!
//! * **Determinism** — for a fixed spec (and chaos policy), artifacts are
//!   byte-identical at any thread count, cache temperature, or
//!   kill/resume split;
//! * **No lost cells** — every cell of the spec ends up in exactly one of
//!   `cells` or `failed_cells`, whatever faults fired along the way.

use bml_core::combination::SplitPolicy;
use bml_grid::spec::{CatalogSpec, GridSpec, SchedulerDim};
use bml_grid::{ChaosPolicy, GridRunner, StreamingArtifactWriter};
use bml_sim::Stepping;
use std::path::{Path, PathBuf};

/// 2 schedulers x 3 windows x 2 sigmas x 2 steppings = 24 cells — small
/// enough for a debug test run, wide enough that kill points and chaos
/// schedules land in the middle of real work.
fn spec() -> GridSpec {
    GridSpec::builder()
        .name("fault-tolerance")
        .root_seed(1998)
        .trace("constant", 1, 0)
        .catalogs(vec![CatalogSpec::paper_trio()])
        .schedulers(vec![SchedulerDim::Baseline, SchedulerDim::TransitionAware])
        .windows(vec![None, Some(378), Some(3600)])
        .noise_sigmas(vec![0.0, 0.1])
        .splits(vec![SplitPolicy::EfficiencyGreedy])
        .steppings(vec![Stepping::EventDriven, Stepping::PerSecond])
        .build()
        .unwrap()
}

const N_CELLS: usize = 24;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bml_grid_ft_{tag}"));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Cell entries in the cache rooted at `dir` (temp files excluded).
fn cached_cells(dir: &Path) -> usize {
    std::fs::read_dir(dir.join("cells")).map_or(0, |entries| {
        entries
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                !name.to_string_lossy().starts_with(".tmp-")
            })
            .count()
    })
}

/// Run the spec into `dir` (streaming sink) and return the artifact JSON
/// bytes.
fn run_to_dir(
    spec: &GridSpec,
    dir: &Path,
    threads: usize,
    configure: impl FnOnce(GridRunner<'_>) -> GridRunner<'_>,
) -> Result<(bml_grid::GridRun, String), String> {
    let mut sink = StreamingArtifactWriter::create(dir).map_err(|e| e.to_string())?;
    let runner = configure(GridRunner::new(spec).threads(threads).sink(&mut sink));
    let run = runner.run()?;
    let (json_path, _) = sink.paths();
    let json = std::fs::read_to_string(json_path).map_err(|e| e.to_string())?;
    Ok((run, json))
}

#[test]
fn kill_and_resume_artifacts_match_the_cold_run_byte_for_byte() {
    let spec = spec();
    let cold_dir = tmp_dir("cold");
    let (cold_run, cold_json) = run_to_dir(&spec, &cold_dir, 2, |r| r).unwrap();
    assert_eq!(cold_run.outcome.cells.len(), N_CELLS);
    assert!(cold_run.outcome.failed_cells.is_empty());
    assert!(cold_run.warnings.is_empty());

    for kill_at in [6, 18] {
        for threads in [1, 8] {
            let dir = tmp_dir(&format!("kill{kill_at}t{threads}"));
            let err = run_to_dir(&spec, &dir, threads, |r| {
                r.journal_dir(&dir).kill_after_cells(kill_at)
            })
            .expect_err("kill_after must abort the run");
            assert!(err.contains("simulated crash"), "{err}");
            assert!(
                cached_cells(&dir) >= kill_at,
                "every cell decided before the kill must be cached"
            );

            // Resume = rerun against the cache: decided cells (and the
            // optimum solves) are served warm, the rest compute, and the
            // streamed artifact is re-rendered from scratch.
            let (run, json) = run_to_dir(&spec, &dir, threads, |r| r.journal_dir(&dir)).unwrap();
            assert_eq!(run.outcome.cells.len(), N_CELLS);
            assert!(run.warnings.is_empty(), "{:?}", run.warnings);
            let host = &run.telemetry.timings;
            assert!(host.host_get("cache.cell_hits") >= kill_at as u64);
            assert_eq!(
                host.host_get("cache.opt_hits"),
                host.host_get("cache.opt_lookups")
            );
            assert_eq!(
                json, cold_json,
                "kill at {kill_at}/{N_CELLS}, {threads} threads: resume must be byte-identical"
            );
            assert_eq!(
                cached_cells(&dir),
                0,
                "the completed rerun removes the cache"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::fs::remove_dir_all(&cold_dir).ok();
}

#[test]
fn a_completed_run_removes_its_scratch_cache_so_a_rerun_recomputes() {
    let spec = spec();
    let dir = tmp_dir("scratch");
    let scratch = dir.join("cache");
    let (first, first_json) = run_to_dir(&spec, &dir, 2, |r| r.journal_dir(&scratch)).unwrap();
    assert_eq!(first.cache.lookups, N_CELLS as u64);
    assert!(first.warnings.is_empty(), "{:?}", first.warnings);
    assert!(
        !scratch.exists(),
        "a completed run must remove its scratch cache"
    );

    // Cache keys do not cover the simulator's code, so a rerun (say,
    // after an edit to the engine) must recompute, never replay.
    let (rerun, json) = run_to_dir(&spec, &dir, 2, |r| r.journal_dir(&scratch)).unwrap();
    assert_eq!(rerun.cache.hits, 0);
    assert_eq!(rerun.cache.opt_hits, 0);
    assert_eq!(json, first_json);

    // A cache directory is the caller's to keep; `journal_dir` then
    // leaves it alone.
    let kept = tmp_dir("scratch_kept");
    run_to_dir(&spec, &dir, 2, |r| r.cache_dir(&kept).journal_dir(&scratch)).unwrap();
    assert_eq!(cached_cells(&kept), N_CELLS);
    assert!(!scratch.exists());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&kept).ok();
}

#[test]
fn rerun_after_torn_cache_writes_and_quarantines_matches_the_uninterrupted_run() {
    const KILL_AT: usize = 13;
    let spec = spec();
    // Pick a seed whose schedule quarantines cells on both sides of the
    // kill (exhausting both attempts) and tears some cache entry written
    // before it. Chaos decisions are pure functions of the policy, so
    // the scan is as reproducible as the run itself.
    let policy = |s: u64| ChaosPolicy::new(s).panic_prob(0.35).torn_write_prob(0.4);
    let seed = (0..500u64)
        .find(|&s| {
            let p = policy(s);
            let doomed = |c: u64| p.should_panic(c, 1).is_some() && p.should_panic(c, 2).is_some();
            let kill = KILL_AT as u64;
            (0..kill).any(doomed)
                && (kill..N_CELLS as u64).any(doomed)
                && (0..kill).any(|c| !doomed(c) && p.torn_len(100, c).is_some())
        })
        .expect("some seed in range fits the schedule");
    let chaos = policy(seed);

    let whole_dir = tmp_dir("torn_whole");
    let (whole, whole_json) = run_to_dir(&spec, &whole_dir, 2, |r| r.chaos(chaos)).unwrap();
    assert!(!whole.outcome.failed_cells.is_empty());

    // Kill mid-run with torn cache writes firing: some entries keep only
    // a prefix (simulated power loss). The rerun must miss on them,
    // recompute, re-decide the quarantines, and still match the
    // uninterrupted bytes — torn writes cost work, never correctness.
    let dir = tmp_dir("torn");
    let err = run_to_dir(&spec, &dir, 2, |r| {
        r.journal_dir(&dir).chaos(chaos).kill_after_cells(KILL_AT)
    })
    .expect_err("kill_after must abort the run");
    assert!(err.contains("simulated crash"), "{err}");
    let stored = cached_cells(&dir);

    let (run, json) = run_to_dir(&spec, &dir, 2, |r| r.journal_dir(&dir).chaos(chaos)).unwrap();
    assert!(
        run.cache.hits < stored as u64,
        "torn entries must miss ({} hits of {stored} stored)",
        run.cache.hits
    );
    assert_eq!(run.outcome.failed_cells, whole.outcome.failed_cells);
    assert_eq!(
        run.outcome.cells.len() + run.outcome.failed_cells.len(),
        N_CELLS
    );
    assert_eq!(json, whole_json);

    // A cache warmed without chaos holds every cell, the doomed ones
    // included. A chaos run against it must still quarantine them: the
    // quarantine set never depends on cache temperature.
    let warm_cache = tmp_dir("torn_warm_cache");
    run_to_dir(&spec, &dir, 2, |r| r.cache_dir(&warm_cache)).unwrap();
    assert_eq!(cached_cells(&warm_cache), N_CELLS);
    let (warm, warm_json) =
        run_to_dir(&spec, &dir, 2, |r| r.cache_dir(&warm_cache).chaos(chaos)).unwrap();
    assert_eq!(warm.outcome.failed_cells, whole.outcome.failed_cells);
    assert_eq!(warm_json, whole_json);
    std::fs::remove_dir_all(&whole_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&warm_cache).ok();
}

#[test]
fn chaos_panics_quarantine_deterministically_across_thread_counts() {
    let spec = spec();
    // Deterministically pick a seed whose schedule dooms some (not all)
    // cells through both attempts — chaos decisions are pure functions of
    // the policy, so the scan is as reproducible as the run itself.
    let seed = (0..500u64)
        .find(|&s| {
            let p = ChaosPolicy::new(s).panic_prob(0.35);
            let doomed = (0..N_CELLS as u64)
                .filter(|&c| p.should_panic(c, 1).is_some() && p.should_panic(c, 2).is_some())
                .count();
            (2..N_CELLS / 2).contains(&doomed)
        })
        .expect("some seed in range dooms a few cells");
    let chaos = ChaosPolicy::new(seed).panic_prob(0.35);

    let mut renders = Vec::new();
    for threads in [1, 8] {
        let dir = tmp_dir(&format!("chaos_t{threads}"));
        let (run, json) = run_to_dir(&spec, &dir, threads, |r| r.chaos(chaos)).unwrap();
        // Zero lost cells: every cell is either a result or a quarantine
        // entry, and the artifact says which.
        assert_eq!(
            run.outcome.cells.len() + run.outcome.failed_cells.len(),
            N_CELLS
        );
        assert!(!run.outcome.failed_cells.is_empty());
        assert!(run.outcome.failed_cells.len() < N_CELLS);
        for f in &run.outcome.failed_cells {
            assert_eq!(f.attempts, 2, "default budget: one retry");
            assert_eq!(f.panic_digest.len(), 16);
        }
        assert!(json.contains("\"failed_cells\":[{\"index\":"));
        renders.push(json);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        renders[0], renders[1],
        "a chaos run must be byte-identical at 1 and 8 threads"
    );
}

#[test]
fn certain_panics_quarantine_every_cell_without_aborting() {
    let spec = spec();
    let dir = tmp_dir("all_fail");
    let chaos = ChaosPolicy::new(3).panic_prob(1.0);
    let (run, json) = run_to_dir(&spec, &dir, 4, |r| r.chaos(chaos).max_retries(2)).unwrap();
    assert!(run.outcome.cells.is_empty());
    assert_eq!(run.outcome.failed_cells.len(), N_CELLS);
    for f in &run.outcome.failed_cells {
        assert_eq!(f.attempts, 3, "max_retries(2) grants three attempts");
    }
    // The artifact still renders: empty cells array, full quarantine.
    assert!(json.contains("\"cells\":[]"), "{}", &json[..200]);
    assert!(json.contains("\"pareto_energy_vs_qos\":[]"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn io_faults_degrade_to_memory_with_warnings_not_errors() {
    let spec = spec();
    let dir = tmp_dir("io_faults");
    let cache_dir = tmp_dir("io_faults_cache");
    let chaos = ChaosPolicy::new(5).io_error_prob(1.0);
    let (run, _) = run_to_dir(&spec, &dir, 2, |r| r.chaos(chaos).cache_dir(&cache_dir)).unwrap();
    // Every persistence layer degraded, no cell was lost.
    assert_eq!(run.outcome.cells.len(), N_CELLS);
    let components: Vec<&str> = run.warnings.iter().map(|w| w.component).collect();
    for c in ["cache", "sink"] {
        assert!(
            components.contains(&c),
            "missing {c} warning: {components:?}"
        );
    }
    // Degradation happens once per component, not once per cell.
    assert!(run.warnings.len() <= 2, "{:?}", run.warnings);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn corrupt_cache_entries_recompute_and_keep_byte_identity() {
    let spec = spec();
    let dir = tmp_dir("corrupt_cache");
    let cache_dir = tmp_dir("corrupt_cache_store");
    let (cold_run, cold_json) = run_to_dir(&spec, &dir, 2, |r| r.cache_dir(&cache_dir)).unwrap();
    assert_eq!(cold_run.cache.hits, 0);

    // Truncate every cached cell entry to half: every lookup must miss,
    // recompute, and reproduce the cold bytes exactly.
    let cells_dir = cache_dir.join("cells");
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&cells_dir).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        corrupted += 1;
    }
    assert!(corrupted > 0);

    let (warm_run, warm_json) = run_to_dir(&spec, &dir, 2, |r| r.cache_dir(&cache_dir)).unwrap();
    assert_eq!(warm_run.cache.hits, 0, "corrupt entries must all miss");
    assert_eq!(warm_run.outcome.cells.len(), N_CELLS);
    assert!(warm_run.warnings.is_empty(), "{:?}", warm_run.warnings);
    assert_eq!(warm_json, cold_json);

    // And a third, healthy warm run hits everything.
    let (hot_run, hot_json) = run_to_dir(&spec, &dir, 2, |r| r.cache_dir(&cache_dir)).unwrap();
    assert_eq!(hot_run.cache.hits, hot_run.cache.lookups);
    assert_eq!(hot_json, cold_json);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&cache_dir).ok();
}
