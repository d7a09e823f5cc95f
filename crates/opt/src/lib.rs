//! # bml-opt — offline-optimal reconfiguration schedules
//!
//! The Fig. 5 bounds only *bracket* the schedulers: the theoretical lower
//! bound reconfigures for free every second, the upper bounds never
//! reconfigure at all. This crate computes the quantity in between that
//! the paper never reports — the **minimum energy actually achievable**
//! on a trace when switch-on/off energies and maturity delays are paid at
//! the real Table I prices, together with the reconfiguration schedule
//! that achieves it.
//!
//! ## The segment DP
//!
//! A load trace is a sequence of maximal constant-load runs
//! ([`bml_trace::segments`]). Within a run nothing changes, so an optimal
//! policy only reconfigures at run boundaries: moving a switch earlier or
//! later within a run can only add idle or ramp seconds without serving
//! anything new (the boundary-restricted schedule dominates). That turns
//! the continuous scheduling problem into a shortest path over
//! `(segment, machine combination)`:
//!
//! * **States** are the candidate machine combinations the
//!   [`bml_core::table::CombinationTable`] produces for the trace's
//!   distinct load levels (plus all-off, plus any
//!   [`OptOptions::extra_states`]). A state is feasible for a segment
//!   when its capacity covers the load — the QoS target is full service,
//!   the same constraint the ideal combination satisfies.
//! * **Serving cost** of a segment in state `s` is
//!   `config_power(s, load) * len`, the exact power the simulator meters
//!   for an online fleet `s` under the chosen split policy.
//! * **Transition cost** between consecutive segments prices every
//!   booted machine at its full ramp energy (`on_energy / on_duration`
//!   over `ceil(on_duration)` seconds — exactly what the cluster's ramp
//!   integrates to) and every shutdown at its ramp truncated at the
//!   horizon. Boots are *scheduled backwards*: a machine that must serve
//!   from boundary `t` starts booting at `t - ceil(on_duration)`, so a
//!   boot is only feasible when the boundary is at least one maturity
//!   delay into the trace.
//!
//! The transition relaxation is not the naive `O(K^2)` min over state
//! pairs: transition costs are separable per architecture, so one
//! up-sweep (boots) and one down-sweep (shutdowns) of a distance
//! transform along each axis of the count lattice computes the exact
//! min-plus convolution in `O(lattice)` per boundary. With
//! [`OptOptions::beam_width`] set, only the `w` cheapest states survive
//! each boundary — a lower-effort upper bound (never below the exact
//! optimum) for catalogs where the exact lattice blows up.
//!
//! ## Trust, but verify
//!
//! The DP's claimed energy is only as good as its cost model, so
//! [`solve_verified`] converts the optimal path into a
//! [`bml_sim::ReconfigRecord`] schedule — boots issued one maturity
//! delay early, shutdowns at the boundary, believed-configuration
//! targets — and replays it through [`bml_sim::replay_schedule`], the
//! same cluster lifecycle/power/QoS code the live engine runs. The two
//! energies must agree to 1e-9 relative or it panics: an optimality
//! number that the simulator cannot reproduce is a bug, not a result.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;

use bml_core::bml::BmlInfrastructure;
use bml_core::combination::{config_power, SplitPolicy};
use bml_core::profile::ArchProfile;
use bml_sim::{replay_schedule, ReconfigRecord, ScenarioResult};
use bml_trace::LoadTrace;

const INF: f64 = f64::INFINITY;

/// Capacity slack when testing whether a combination covers a load —
/// the same 1e-9 the rest of the workspace uses for float comparisons.
const EPS: f64 = 1e-9;

/// The forward pass checkpoints its cost vector every this many
/// segments; backtracking recomputes one window at a time into a single
/// `CHECKPOINT_EVERY * K` buffer allocated once per solve, keeping
/// memory at `O(K * (S / 4096 + 4096))` instead of `O(K * S)` (an
/// 87-day worldcup trace has millions of segments).
const CHECKPOINT_EVERY: usize = 4096;

/// Knobs for [`solve`].
#[derive(Debug, Clone, Default)]
pub struct OptOptions {
    /// Keep only the `w` cheapest states across each segment boundary.
    /// `None` (the default) runs the exact DP. A beam can dead-end on
    /// adversarial traces (every kept state unable to reach a feasible
    /// next state), in which case [`solve`] returns `None`; the exact DP
    /// always succeeds on a non-empty trace. Beam energies are upper
    /// bounds: never below the exact optimum (property-tested).
    pub beam_width: Option<usize>,
    /// Additional candidate states (machine counts per architecture,
    /// candidate order) to consider beyond the combination table's — e.g.
    /// the knapsack packing of [`bml_core::combination::optimal_dp`].
    pub extra_states: Vec<Vec<u32>>,
}

/// The DP's output: the minimum achievable energy and the schedule that
/// achieves it, in the engine's `reconfig_log` protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalSchedule {
    /// Minimum total energy (J) over the trace, transitions included —
    /// within the candidate state space, at full service.
    pub energy_j: f64,
    /// Machine counts online at t=0 (warm start, like the engine's
    /// non-cold-start scenarios).
    pub initial: Vec<u32>,
    /// The reconfiguration schedule: records sorted by time, each target
    /// interpreted against the previous one (believed-configuration
    /// protocol). Replayable by [`bml_sim::replay_schedule`].
    pub schedule: Vec<ReconfigRecord>,
    /// Number of DP states (diagnostics).
    pub n_states: usize,
    /// Number of constant-load segments (diagnostics).
    pub n_segments: usize,
    /// Number of segment boundaries the DP crossed
    /// (`n_segments - 1`, 0 for empty traces) — the unit of transition
    /// work, reported to telemetry.
    pub n_boundaries: usize,
    /// States the beam INF'd out during the forward pass (0 for the
    /// exact DP). Deterministic for a fixed trace/options, so it lives
    /// on the counters plane of run telemetry.
    pub states_pruned: u64,
}

/// Per-architecture transition prices, derived once from the profiles.
#[derive(Debug, Clone)]
struct ArchCost {
    /// Energy charged per booted machine: the lump `on_energy` for
    /// zero-duration boots, else the ramp integral
    /// `on_energy / on_duration * ceil(on_duration)`.
    on_cost: f64,
    /// Seconds before the boundary a boot must be issued: `ceil(on_duration)`,
    /// at least 1 (a zero-duration boot issued at `t` serves from `t+1`,
    /// exactly like the cluster promotes it).
    lead: u64,
    off_energy: f64,
    off_rate: f64,
    off_ceil: u64,
    off_zero: bool,
}

impl ArchCost {
    fn new(p: &ArchProfile) -> Self {
        let on_ceil = p.on_duration.ceil();
        ArchCost {
            on_cost: if p.on_duration > 0.0 {
                p.on_energy / p.on_duration * on_ceil
            } else {
                p.on_energy
            },
            lead: (on_ceil as u64).max(1),
            off_energy: p.off_energy,
            off_rate: if p.off_duration > 0.0 {
                p.off_energy / p.off_duration
            } else {
                0.0
            },
            off_ceil: p.off_duration.ceil() as u64,
            off_zero: p.off_duration == 0.0,
        }
    }

    /// Energy charged per machine shut down with `remaining` trace
    /// seconds left: the lump for zero-duration shutdowns, else the ramp
    /// truncated at the horizon (the simulator stops metering at the end
    /// of the trace).
    fn off_cost(&self, remaining: u64) -> f64 {
        if self.off_zero {
            self.off_energy
        } else {
            self.off_rate * self.off_ceil.min(remaining) as f64
        }
    }
}

/// One maximal constant-load run.
#[derive(Debug, Clone, Copy)]
struct Seg {
    start: u64,
    len: u64,
    /// Index into the distinct-load table.
    load: usize,
}

/// Scratch space [`Dp::transition`] reuses across boundaries: the count
/// lattice and one axis's boot and shutdown gap prices.
struct Lattice {
    cells: Vec<f64>,
    up: Vec<f64>,
    down: Vec<f64>,
}

impl Lattice {
    fn new(box_size: usize) -> Self {
        Lattice {
            cells: vec![INF; box_size],
            up: Vec::new(),
            down: Vec::new(),
        }
    }
}

/// The backtrack's cached price row `trans_cost(·, b, tau)` for one
/// target state `b`. Inside [`Dp::steady`] the row does not depend on
/// `tau`, so it is recomputed only when the path's state changes; the
/// optimal path holds its state across most boundaries.
struct SteadyRow {
    b: Option<usize>,
    row: Vec<f64>,
}

impl SteadyRow {
    fn new(k: usize) -> Self {
        SteadyRow {
            b: None,
            row: vec![INF; k],
        }
    }

    /// The cached row for target `b` when `tau` is steady; `None` at the
    /// edges, where callers price each pair with [`Dp::trans_cost`].
    fn get(&mut self, dp: &Dp<'_>, b: usize, tau: u64) -> Option<&[f64]> {
        if !dp.steady.contains(&tau) {
            return None;
        }
        if self.b != Some(b) {
            for (a, price) in self.row.iter_mut().enumerate() {
                *price = dp.trans_cost(a, b, tau);
            }
            self.b = Some(b);
        }
        Some(&self.row)
    }
}

/// The assembled DP instance.
struct Dp<'a> {
    profiles: &'a [ArchProfile],
    horizon: u64,
    segs: Vec<Seg>,
    states: Vec<Vec<u32>>,
    /// `serve[load * K + s]`: serving power (W) of state `s` at that
    /// load, `INF` when the state's capacity cannot cover it.
    serve: Vec<f64>,
    costs: Vec<ArchCost>,
    /// Per axis of the count lattice (the sorted distinct counts of one
    /// architecture across all states), the count step between each pair
    /// of neighbouring positions: `axis[j + 1] - axis[j]`.
    gaps: Vec<Vec<f64>>,
    strides: Vec<usize>,
    box_size: usize,
    /// Lattice cell of each state.
    cell_of: Vec<usize>,
    /// Boundaries at which no transition price depends on `tau`: every
    /// boot can mature (`tau >= max lead`) and every shutdown ramp ends
    /// before the horizon (`horizon - tau >= max off_ceil`).
    steady: RangeInclusive<u64>,
    beam: Option<usize>,
    /// Running count of beam-pruned states (interior mutability because
    /// pruning happens under `&self`); the forward-pass snapshot is what
    /// [`OptimalSchedule::states_pruned`] reports — the backtrack's
    /// window recomputations re-prune the same boundaries and must not
    /// inflate it.
    pruned: std::cell::Cell<u64>,
}

impl<'a> Dp<'a> {
    fn build(
        trace: &LoadTrace,
        bml: &'a BmlInfrastructure,
        split: SplitPolicy,
        opts: &OptOptions,
    ) -> Self {
        let profiles = bml.candidates();
        let n_archs = profiles.len();

        // Distinct loads (ordered by bit pattern — loads are non-negative,
        // so this is numeric order) and the segment list.
        let mut load_idx: BTreeMap<u64, usize> = BTreeMap::new();
        let mut pre_segs: Vec<(u64, u64, u64)> = Vec::new();
        for seg in trace.constant_runs() {
            pre_segs.push((seg.start, seg.len(), seg.value.to_bits()));
            let next = load_idx.len();
            load_idx.entry(seg.value.to_bits()).or_insert(next);
        }
        let mut loads = vec![0.0f64; load_idx.len()];
        for (&bits, &i) in &load_idx {
            loads[i] = f64::from_bits(bits);
        }
        let segs: Vec<Seg> = pre_segs
            .into_iter()
            .map(|(start, len, bits)| Seg {
                start,
                len,
                load: load_idx[&bits],
            })
            .collect();

        // Candidate states: the combination table's answer for every
        // distinct load, all-off, and the caller's extras.
        let table = bml.combination_table();
        let mut state_set: BTreeSet<Vec<u32>> = BTreeSet::new();
        state_set.insert(vec![0; n_archs]);
        for &v in &loads {
            state_set.insert(table.counts_for(v));
        }
        for extra in &opts.extra_states {
            assert_eq!(
                extra.len(),
                n_archs,
                "extra state arity must match the candidate count"
            );
            state_set.insert(extra.clone());
        }
        let states: Vec<Vec<u32>> = state_set.into_iter().collect();
        let k = states.len();

        // Serving power per (load, state); INF = capacity cannot cover.
        let mut serve = vec![INF; loads.len() * k];
        for (li, &v) in loads.iter().enumerate() {
            for (si, st) in states.iter().enumerate() {
                let (w, served) = config_power(profiles, st, v, split);
                if served + EPS >= v {
                    serve[li * k + si] = w;
                }
            }
        }

        let costs: Vec<ArchCost> = profiles.iter().map(ArchCost::new).collect();

        // The count lattice: axis k = sorted distinct counts of arch k.
        let axes: Vec<Vec<u32>> = (0..n_archs)
            .map(|a| {
                let mut vals: Vec<u32> = states.iter().map(|s| s[a]).collect();
                vals.sort_unstable();
                vals.dedup();
                vals
            })
            .collect();
        let mut strides = vec![1usize; n_archs];
        for a in (0..n_archs.saturating_sub(1)).rev() {
            strides[a] = strides[a + 1] * axes[a + 1].len();
        }
        let box_size = if n_archs == 0 {
            1
        } else {
            strides[0] * axes[0].len()
        };
        let cell_of: Vec<usize> = states
            .iter()
            .map(|s| {
                s.iter()
                    .enumerate()
                    .map(|(a, &c)| {
                        let pos = axes[a].binary_search(&c).expect("count is on its axis");
                        pos * strides[a]
                    })
                    .sum()
            })
            .collect();
        let gaps = axes
            .iter()
            .map(|axis| axis.windows(2).map(|w| f64::from(w[1] - w[0])).collect())
            .collect();

        let horizon = trace.len();
        let max_lead = costs.iter().map(|c| c.lead).max().unwrap_or(0);
        let max_off_ceil = costs.iter().map(|c| c.off_ceil).max().unwrap_or(0);
        Dp {
            profiles,
            horizon,
            segs,
            states,
            serve,
            steady: max_lead..=horizon.saturating_sub(max_off_ceil),
            costs,
            gaps,
            strides,
            box_size,
            cell_of,
            beam: opts.beam_width,
            pruned: std::cell::Cell::new(0),
        }
    }

    fn k(&self) -> usize {
        self.states.len()
    }

    /// Serving energy of segment `i` in state `s` (INF when infeasible).
    fn serve_energy(&self, i: usize, s: usize) -> f64 {
        self.serve[self.segs[i].load * self.k() + s] * self.segs[i].len as f64
    }

    /// Direct transition cost from state `a` to state `b` at boundary
    /// `tau` — the canonical per-architecture sum the schedule's energy
    /// is priced with. INF when a required boot cannot mature by `tau`.
    fn trans_cost(&self, a: usize, b: usize, tau: u64) -> f64 {
        let (sa, sb) = (&self.states[a], &self.states[b]);
        let mut c = 0.0;
        for arch in 0..self.profiles.len() {
            let d = i64::from(sb[arch]) - i64::from(sa[arch]);
            if d > 0 {
                if self.costs[arch].lead > tau {
                    return INF;
                }
                c += d as f64 * self.costs[arch].on_cost;
            } else if d < 0 {
                c += (-d) as f64 * self.costs[arch].off_cost(self.horizon - tau);
            }
        }
        c
    }

    /// Beam pruning: keep the `w` cheapest finite entries (ties broken by
    /// index for determinism), INF out the rest.
    fn prune(&self, dp: &mut [f64]) {
        let Some(w) = self.beam else { return };
        let mut order: Vec<usize> = (0..dp.len()).filter(|&s| dp[s].is_finite()).collect();
        if order.len() <= w {
            return;
        }
        order.sort_by(|&x, &y| dp[x].partial_cmp(&dp[y]).unwrap().then(x.cmp(&y)));
        self.pruned
            .set(self.pruned.get() + (order.len() - w) as u64);
        for &s in &order[w..] {
            dp[s] = INF;
        }
    }

    /// Min-plus transition across boundary `tau`:
    /// `out[b] = min_a dp[a] + trans_cost(a, b, tau)`, computed exactly
    /// in `O(box)` via per-axis distance-transform sweeps over the count
    /// lattice (transition costs are separable per architecture; an
    /// up-then-down detour is never cheaper than the direct move, so the
    /// two sweeps per axis relax every pair).
    ///
    /// Each axis is walked as `for block, for lane, for j`: one lane is a
    /// chain of cells that differ only in this axis's count, relaxed
    /// upward (boots) and then downward (shutdowns) with the running
    /// value carried along `j`. Lanes are independent and each chain
    /// keeps its `j` order, so every float operation matches a flat
    /// sweep over the lattice. The axis's gap prices are computed once
    /// per boundary; an immature boot is priced `INF`, which never wins
    /// a comparison.
    fn transition(&self, dp: &[f64], tau: u64, lat: &mut Lattice, out: &mut [f64]) {
        let Lattice { cells, up, down } = lat;
        cells.fill(INF);
        for (s, &cell) in self.cell_of.iter().enumerate() {
            cells[cell] = dp[s];
        }
        for ((gaps, &stride), cost) in self.gaps.iter().zip(&self.strides).zip(&self.costs) {
            if gaps.is_empty() {
                continue;
            }
            let on_unit = if cost.lead <= tau { cost.on_cost } else { INF };
            let off_unit = cost.off_cost(self.horizon - tau);
            up.clear();
            up.extend(gaps.iter().map(|&g| on_unit * g));
            down.clear();
            down.extend(gaps.iter().map(|&g| off_unit * g));
            let top = gaps.len() * stride;
            for block in cells.chunks_exact_mut(top + stride) {
                for lane in 0..stride {
                    let mut run = block[lane];
                    let mut idx = lane;
                    for &price in up.iter() {
                        idx += stride;
                        let (cand, cur) = (run + price, block[idx]);
                        run = if cand < cur { cand } else { cur };
                        block[idx] = run;
                    }
                    for &price in down.iter().rev() {
                        idx -= stride;
                        let (cand, cur) = (run + price, block[idx]);
                        run = if cand < cur { cand } else { cur };
                        block[idx] = run;
                    }
                }
            }
        }
        for (s, &cell) in self.cell_of.iter().enumerate() {
            out[s] = cells[cell];
        }
    }

    /// One forward step: prune (beam) `dp`, the cost vector through
    /// segment `i`, then transition over the boundary into segment
    /// `i + 1` and add its serving energy, writing the cost vector
    /// through segment `i + 1` to `next`.
    fn step(&self, dp: &mut [f64], i: usize, lat: &mut Lattice, next: &mut [f64]) {
        self.prune(dp);
        let seg = self.segs[i + 1];
        self.transition(dp, seg.start, lat, next);
        let k = self.k();
        let len = seg.len as f64;
        for (v, &w) in next.iter_mut().zip(&self.serve[seg.load * k..][..k]) {
            *v += w * len;
        }
    }

    /// Forward pass + windowed backtrack. Returns the optimal state per
    /// segment plus the forward pass's beam-prune count, or `None` when
    /// the (beam-pruned) DP dead-ends.
    fn solve_path(&self) -> Option<(Vec<usize>, u64)> {
        let k = self.k();
        let s_count = self.segs.len();
        let mut dp: Vec<f64> = (0..k).map(|s| self.serve_energy(0, s)).collect();
        let mut lat = Lattice::new(self.box_size);
        let mut next = vec![INF; k];
        // Row `c` holds the cost vector through segment `c * CHECKPOINT_EVERY`.
        let mut checkpoints = dp.clone();
        for i in 0..s_count - 1 {
            self.step(&mut dp, i, &mut lat, &mut next);
            std::mem::swap(&mut dp, &mut next);
            if (i + 1) % CHECKPOINT_EVERY == 0 {
                checkpoints.extend_from_slice(&dp);
            }
        }
        let forward_pruned = self.pruned.get();
        let (mut best_s, mut best_v) = (usize::MAX, INF);
        for (s, &v) in dp.iter().enumerate() {
            if v < best_v {
                best_v = v;
                best_s = s;
            }
        }
        if !best_v.is_finite() {
            return None;
        }

        let mut path = vec![0usize; s_count];
        path[s_count - 1] = best_s;
        let mut window = vec![INF; CHECKPOINT_EVERY.min(s_count - 1) * k];
        let mut prices = SteadyRow::new(k);
        let mut hi = s_count - 1;
        while hi > 0 {
            let c = (hi - 1) / CHECKPOINT_EVERY;
            let w0 = c * CHECKPOINT_EVERY;
            // Recompute dp_{w0}..dp_{hi-1} from the window's checkpoint;
            // row `r` of the window holds dp_{w0 + r}.
            let rows = &mut window[..(hi - w0) * k];
            rows[..k].copy_from_slice(&checkpoints[c * k..][..k]);
            for r in 0..hi - 1 - w0 {
                let (done, rest) = rows.split_at_mut((r + 1) * k);
                self.step(&mut done[r * k..], w0 + r, &mut lat, &mut rest[..k]);
            }
            for i in (w0..hi).rev() {
                let dp_i = &mut rows[(i - w0) * k..][..k];
                self.prune(dp_i); // the same beam the forward transition saw
                let b = path[i + 1];
                let tau = self.segs[i + 1].start;
                let row = prices.get(self, b, tau);
                let (mut best_a, mut best_c) = (usize::MAX, INF);
                for (a, &v) in dp_i.iter().enumerate() {
                    if !v.is_finite() {
                        continue;
                    }
                    let price = match row {
                        Some(row) => row[a],
                        None => self.trans_cost(a, b, tau),
                    };
                    let cost = v + price;
                    if cost < best_c {
                        best_c = cost;
                        best_a = a;
                    }
                }
                debug_assert!(best_c.is_finite(), "reachable state has a predecessor");
                // Prefer staying put on (float-) ties: fewer records, and
                // the common no-reconfiguration case short-circuits.
                let stay = dp_i[b];
                path[i] = if stay <= best_c + 1e-9 * best_c.abs() + 1e-6 {
                    b
                } else {
                    best_a
                };
            }
            hi = w0;
        }
        Some((path, forward_pruned))
    }

    /// Total energy of a state path, priced canonically (serve + direct
    /// transition costs) — this, not the forward pass's float
    /// accumulation, is the number the replay must reproduce.
    fn path_energy(&self, path: &[usize]) -> f64 {
        let mut e = self.serve_energy(0, path[0]);
        for i in 1..path.len() {
            e += self.trans_cost(path[i - 1], path[i], self.segs[i].start);
            e += self.serve_energy(i, path[i]);
        }
        e
    }

    /// Convert a state path into the engine's believed-configuration
    /// record protocol: per transition, one boot record per distinct
    /// maturity lead issued `lead` seconds before the boundary, and one
    /// shutdown record at the boundary; then a global stable sort by
    /// time with cumulatively rebuilt targets, so records compose in
    /// list order even when leads from different transitions interleave.
    fn schedule(&self, path: &[usize]) -> Vec<ReconfigRecord> {
        let n_archs = self.profiles.len();
        let mut events: Vec<(u64, Vec<i64>)> = Vec::new();
        for i in 1..path.len() {
            let (a, b) = (&self.states[path[i - 1]], &self.states[path[i]]);
            if a == b {
                continue;
            }
            let tau = self.segs[i].start;
            let mut boots: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
            let mut offs = vec![0i64; n_archs];
            let mut any_off = false;
            for arch in 0..n_archs {
                let d = i64::from(b[arch]) - i64::from(a[arch]);
                if d > 0 {
                    boots
                        .entry(self.costs[arch].lead)
                        .or_insert_with(|| vec![0; n_archs])[arch] += d;
                } else if d < 0 {
                    offs[arch] = d;
                    any_off = true;
                }
            }
            for (lead, delta) in boots {
                debug_assert!(lead <= tau, "the DP only books maturable boots");
                events.push((tau - lead, delta));
            }
            if any_off {
                events.push((tau, offs));
            }
        }
        events.sort_by_key(|e| e.0); // stable: same-time records keep order
        let mut believed: Vec<i64> = self.states[path[0]].iter().map(|&c| i64::from(c)).collect();
        events
            .into_iter()
            .map(|(at, delta)| {
                for (b, d) in believed.iter_mut().zip(delta) {
                    *b += d;
                    debug_assert!(*b >= 0);
                }
                ReconfigRecord {
                    at,
                    target: believed.iter().map(|&c| c as u32).collect(),
                }
            })
            .collect()
    }
}

/// Compute the offline-optimal reconfiguration schedule for `trace` on
/// `bml`'s candidate infrastructure under `split`.
///
/// Returns `None` only when a [`OptOptions::beam_width`] prunes the DP
/// into a dead end; the exact DP (`beam_width: None`) always succeeds on
/// any trace (the combination for the trace maximum is feasible
/// everywhere, and the warm start makes it reachable). An empty trace
/// yields a zero-energy schedule.
///
/// The optimum is exact *within its state space*: machine combinations
/// produced by the infrastructure's combination table for the trace's
/// load levels (plus [`OptOptions::extra_states`]), reconfigured only at
/// constant-load segment boundaries — see the crate docs for why
/// boundary-restricted schedules dominate.
pub fn solve(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    split: SplitPolicy,
    opts: &OptOptions,
) -> Option<OptimalSchedule> {
    if trace.is_empty() {
        return Some(OptimalSchedule {
            energy_j: 0.0,
            initial: vec![0; bml.n_archs()],
            schedule: Vec::new(),
            n_states: 0,
            n_segments: 0,
            n_boundaries: 0,
            states_pruned: 0,
        });
    }
    let dp = Dp::build(trace, bml, split, opts);
    let (path, states_pruned) = dp.solve_path()?;
    Some(OptimalSchedule {
        energy_j: dp.path_energy(&path),
        initial: dp.states[path[0]].clone(),
        schedule: dp.schedule(&path),
        n_states: dp.k(),
        n_segments: dp.segs.len(),
        n_boundaries: dp.segs.len() - 1,
        states_pruned,
    })
}

/// [`solve`], then replay the schedule through the simulator
/// ([`bml_sim::replay_schedule`]) and demand the claimed energy back to
/// 1e-9 relative. Returns the schedule and the full replay
/// [`ScenarioResult`] (named `"Offline Optimal"`, genuine QoS and daily
/// energies).
///
/// # Panics
///
/// Panics when the replayed energy disagrees with the DP's claim beyond
/// 1e-9 relative — the cost model and the simulator have diverged, and
/// every optimality number downstream would be wrong.
pub fn solve_verified(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    split: SplitPolicy,
    opts: &OptOptions,
) -> Option<(OptimalSchedule, ScenarioResult)> {
    let sched = solve(trace, bml, split, opts)?;
    let replay = replay_schedule(trace, bml, &sched.initial, &sched.schedule, split);
    let (a, b) = (sched.energy_j, replay.total_energy_j);
    assert!(
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-9,
        "offline-optimal replay diverged: DP claims {a} J, simulator metered {b} J \
         ({} records over {} segments)",
        sched.schedule.len(),
        sched.n_segments,
    );
    Some((sched, replay))
}

/// Optimal power (W) and machine counts for serving a single constant
/// `rate` — the one-segment special case of the DP, with the knapsack
/// packing of [`bml_core::combination::optimal_dp`] seeded as an extra
/// candidate so the answer is the true instantaneous optimum (for a
/// fixed machine multiset the efficiency-greedy split is the cheapest
/// assignment, so the enriched candidate set contains the knapsack's
/// minimizer).
///
/// `ablation_packing` uses this to compare the Step-5 greedy fill
/// against the optimum; the two solvers must agree (tested there).
pub fn optimal_instant(bml: &BmlInfrastructure, rate: u64, split: SplitPolicy) -> (f64, Vec<u32>) {
    let (_, knapsack) = bml_core::combination::optimal_dp(bml.candidates(), rate);
    let trace = LoadTrace::new(0, vec![rate as f64]);
    let opts = OptOptions {
        beam_width: None,
        extra_states: vec![knapsack],
    };
    let sched = solve(&trace, bml, split, &opts).expect("exact one-segment DP cannot dead-end");
    (sched.energy_j, sched.initial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bml_core::catalog;
    use proptest::prelude::*;

    fn bml() -> BmlInfrastructure {
        BmlInfrastructure::build(&catalog::table1()).unwrap()
    }

    fn greedy() -> SplitPolicy {
        SplitPolicy::EfficiencyGreedy
    }

    #[test]
    fn empty_trace_is_free() {
        let s = solve(
            &LoadTrace::new(0, vec![]),
            &bml(),
            greedy(),
            &OptOptions::default(),
        )
        .unwrap();
        assert_eq!(s.energy_j, 0.0);
        assert!(s.schedule.is_empty());
        assert_eq!(s.initial, vec![0, 0, 0]);
        assert_eq!((s.n_boundaries, s.states_pruned), (0, 0));
    }

    #[test]
    fn solver_stats_count_boundaries_and_prunes() {
        let bml = bml();
        let mut rates = vec![100.0; 60];
        rates.extend(vec![900.0; 60]);
        rates.extend(vec![5.0; 60]);
        let trace = LoadTrace::new(0, rates);
        let exact = solve(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        assert_eq!(exact.n_segments, 3);
        assert_eq!(exact.n_boundaries, 2);
        assert_eq!(exact.states_pruned, 0, "exact DP never prunes");
        let beam = solve(
            &trace,
            &bml,
            greedy(),
            &OptOptions {
                beam_width: Some(1),
                extra_states: vec![],
            },
        );
        if let Some(beam) = beam {
            assert!(
                beam.states_pruned > 0,
                "width-1 beam over {} states must prune",
                beam.n_states
            );
            // Counting is deterministic: same inputs, same count.
            let again = solve(
                &trace,
                &bml,
                greedy(),
                &OptOptions {
                    beam_width: Some(1),
                    extra_states: vec![],
                },
            )
            .unwrap();
            assert_eq!(again.states_pruned, beam.states_pruned);
        }
    }

    #[test]
    fn constant_trace_holds_the_ideal_combination() {
        let bml = bml();
        let trace = LoadTrace::new(0, vec![500.0; 600]);
        let s = solve(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        assert!(s.schedule.is_empty(), "no reason to reconfigure");
        let counts = bml.combination_table().counts_for(500.0);
        assert_eq!(s.initial, counts);
        let (w, _) = bml.config_power(&counts, 500.0, greedy());
        assert!((s.energy_j - w * 600.0).abs() < 1e-9);
    }

    #[test]
    fn single_second_trace_solves() {
        let bml = bml();
        let s = solve(
            &LoadTrace::new(0, vec![42.0]),
            &bml,
            greedy(),
            &OptOptions::default(),
        )
        .unwrap();
        assert_eq!(s.n_segments, 1);
        let counts = bml.combination_table().counts_for(42.0);
        let (w, _) = bml.config_power(&counts, 42.0, greedy());
        assert!(s.energy_j <= w + 1e-9, "optimum can only improve on greedy");
    }

    #[test]
    fn immature_boot_forces_a_warm_start() {
        // Load jumps to 5000 at t=1: no architecture can boot in 1 s, so
        // the only feasible policy warm-starts the big fleet and pays its
        // idle through the first second.
        let bml = bml();
        let mut rates = vec![0.0];
        rates.extend(vec![5000.0; 300]);
        let trace = LoadTrace::new(0, rates);
        let (s, replay) = solve_verified(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        let high = bml.combination_table().counts_for(5000.0);
        assert_eq!(s.initial, high);
        assert!(s.schedule.is_empty());
        let (w_idle, _) = bml.config_power(&high, 0.0, greedy());
        let (w_high, _) = bml.config_power(&high, 5000.0, greedy());
        let expected = w_idle + w_high * 300.0;
        assert!((s.energy_j - expected).abs() < 1e-9);
        assert_eq!(replay.qos.violation_seconds, 0);
    }

    #[test]
    fn boots_are_scheduled_one_lead_before_the_step() {
        // Long quiet stretch then a step: booting just-in-time beats
        // holding the serving fleet from t=0.
        let bml = bml();
        let mut rates = vec![0.0; 1000];
        rates.extend(vec![500.0; 1000]);
        let trace = LoadTrace::new(0, rates);
        let (s, replay) = solve_verified(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        assert!(!s.schedule.is_empty(), "must boot for the step");
        assert_eq!(s.initial, vec![0, 0, 0], "idle stretch starts dark");
        // Every boot record lands exactly its architecture's ceil'd boot
        // duration before the step at t=1000.
        for r in &s.schedule {
            assert!(r.at < 1000, "boots are issued before the boundary: {r:?}");
        }
        assert_eq!(replay.qos.violation_seconds, 0, "just-in-time, not late");
        // And it beats the naive hold-forever policy.
        let counts = bml.combination_table().counts_for(500.0);
        let (w_idle, _) = bml.config_power(&counts, 0.0, greedy());
        let (w_serve, _) = bml.config_power(&counts, 500.0, greedy());
        assert!(s.energy_j < w_idle * 1000.0 + w_serve * 1000.0);
    }

    /// A DP whose distinct loads span several combinations.
    fn step_dp(bml: &BmlInfrastructure) -> Dp<'_> {
        let mut rates = Vec::new();
        for &v in &[0.0, 10.0, 50.0, 529.0, 1500.0, 4000.0, 300.0] {
            rates.extend(vec![v; 60]);
        }
        Dp::build(
            &LoadTrace::new(0, rates),
            bml,
            greedy(),
            &OptOptions::default(),
        )
    }

    #[test]
    fn lattice_transition_matches_naive_min_plus() {
        let bml = bml();
        let dp = step_dp(&bml);
        let k = dp.k();
        assert!(k >= 5, "want a non-trivial state space, got {k}");
        // Deterministic pseudo-random dp vector.
        let mixed: Vec<f64> = (0..k)
            .map(|s| {
                if s % 7 == 3 {
                    INF
                } else {
                    1000.0 + 37.0 * ((s * s + 11) % 97) as f64
                }
            })
            .collect();
        // Only all-off reachable: every finite output is a pure boot.
        let all_off = dp.states.iter().position(|s| s.iter().all(|&c| c == 0));
        let dark: Vec<f64> = (0..k)
            .map(|s| if Some(s) == all_off { 500.0 } else { INF })
            .collect();
        let h = dp.horizon;
        let off_ceil = dp.costs.iter().map(|c| c.off_ceil).max().unwrap();
        let taus = [
            1u64,
            12,
            16,
            189,
            200,
            h - off_ceil - 1,
            h - off_ceil,
            h - 5,
            h - 1,
        ];
        let mut lat = Lattice::new(dp.box_size);
        let mut out = vec![INF; k];
        for dp_in in [&mixed, &dark] {
            for &tau in &taus {
                dp.transition(dp_in, tau, &mut lat, &mut out);
                for (b, &got) in out.iter().enumerate() {
                    let naive = (0..k)
                        .map(|a| dp_in[a] + dp.trans_cost(a, b, tau))
                        .fold(INF, f64::min);
                    assert!(
                        (got - naive).abs() <= 1e-9 * naive.abs().max(1.0) || (got == naive),
                        "tau={tau} b={b}: lattice {got} vs naive {naive}"
                    );
                }
            }
        }
    }

    #[test]
    fn steady_row_is_trans_cost_and_falls_back_at_the_edges() {
        let bml = bml();
        let dp = step_dp(&bml);
        let k = dp.k();
        // Paravance's 189 s boot and the Chromebook's 21 s shutdown set
        // the edges.
        let (lo, hi) = (*dp.steady.start(), *dp.steady.end());
        assert_eq!((lo, hi), (189, dp.horizon - 21));
        let mut row = SteadyRow::new(k);
        for b in 0..k {
            for tau in [lo, lo + 1, (lo + hi) / 2, hi] {
                let got = row.get(&dp, b, tau).expect("tau is steady").to_vec();
                for (a, price) in got.iter().enumerate() {
                    assert_eq!(
                        price.to_bits(),
                        dp.trans_cost(a, b, tau).to_bits(),
                        "a={a} b={b} tau={tau}"
                    );
                }
            }
            for tau in [lo - 1, hi + 1] {
                assert!(row.get(&dp, b, tau).is_none(), "b={b} tau={tau}");
            }
        }
        // The fallback is needed: one second outside the range on either
        // side, some price differs from the steady one.
        let differs = |tau| {
            (0..k).any(|b| (0..k).any(|a| dp.trans_cost(a, b, tau) != dp.trans_cost(a, b, lo)))
        };
        assert!(differs(lo - 1) && differs(hi + 1));
    }

    #[test]
    fn verified_replay_agrees_on_a_bursty_trace() {
        let bml = bml();
        let trace = bml_trace::synthetic::flash_crowd(100.0, 5000.0, 1000, 60, 300.0, 5000);
        let (s, replay) = solve_verified(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        assert_eq!(replay.name, "Offline Optimal");
        assert_eq!(replay.qos.violation_seconds, 0, "full service by design");
        assert!(s.energy_j > 0.0);
        // The optimum must not exceed the pro-active scheduler's energy.
        let live = bml_sim::scenarios::bml_proactive(&trace, &bml, &bml_sim::SimConfig::default());
        assert!(
            s.energy_j <= live.total_energy_j + 1e-6,
            "optimal {} vs scheduler {}",
            s.energy_j,
            live.total_energy_j
        );
    }

    #[test]
    fn optimal_instant_never_above_greedy_fill() {
        let bml = bml();
        for rate in (1..=2662u64).step_by(97) {
            let (opt, counts) = optimal_instant(&bml, rate, greedy());
            let greedy_w = bml.ideal_combination(rate as f64).power(bml.candidates());
            assert!(
                opt <= greedy_w + 1e-9,
                "rate {rate}: optimal {opt} > greedy {greedy_w}"
            );
            let (_, dp_counts) = bml_core::combination::optimal_dp(bml.candidates(), rate);
            let (dp_w, _) = bml.config_power(&dp_counts, rate as f64, greedy());
            assert!(
                (opt - dp_w.min(greedy_w)).abs() <= 1e-9 * dp_w.max(1.0),
                "rate {rate}: instant {opt} vs knapsack {dp_w} / greedy {greedy_w} ({counts:?})"
            );
        }
    }

    #[test]
    fn zero_beam_dead_ends() {
        let bml = bml();
        // Two segments, so the (empty) beam is actually crossed once.
        let mut rates = vec![100.0; 10];
        rates.extend(vec![900.0; 10]);
        let trace = LoadTrace::new(0, rates);
        let opts = OptOptions {
            beam_width: Some(0),
            extra_states: vec![],
        };
        assert!(solve(&trace, &bml, greedy(), &opts).is_none());
    }

    /// FNV-1a over every record's `at` and target counts, in order.
    fn schedule_digest(schedule: &[ReconfigRecord]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in schedule {
            let words = std::iter::once(r.at).chain(r.target.iter().map(|&c| u64::from(c)));
            for byte in words.flat_map(u64::to_le_bytes) {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Bit-identity pin for the solver: a 13,000 s slice of the 2-day
    /// tournament trace from 17:40 on day 2. Its 12,975 segments span four
    /// checkpoint windows, and boundaries fall inside both price edges
    /// (before the 189 s boot lead and within 21 s of the horizon). Any
    /// change to the DP's float operations, tie-breaking or checkpoint
    /// recomputation moves the pinned values.
    #[test]
    fn golden_tournament_slice() {
        let bml = bml();
        let full = bml_trace::registry::generate("worldcup-tournament", 2, 1998).unwrap();
        let trace = LoadTrace::new(full.first_day, full.rates[150_000..163_000].to_vec());
        let dp = Dp::build(&trace, &bml, greedy(), &OptOptions::default());
        assert!(dp.segs[1].start < *dp.steady.start());
        assert!(dp.segs[dp.segs.len() - 1].start > *dp.steady.end());
        let s = solve(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        assert_eq!((s.n_states, s.n_segments), (35, 12_975));
        assert!(s.n_segments > 3 * CHECKPOINT_EVERY);
        assert_eq!(
            s.energy_j.to_bits(),
            0x414a_b0df_ef84_49c3,
            "{}",
            s.energy_j
        );
        assert_eq!(s.initial, vec![2, 0, 0]);
        assert_eq!(s.schedule.len(), 303);
        assert_eq!(schedule_digest(&s.schedule), 0x45e1_c26c_f46f_f815);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Beam energies are upper bounds on the exact optimum, and both
        /// survive the simulator replay cross-check, over random step
        /// traces.
        #[test]
        fn beam_is_an_upper_bound_and_replays_clean(
            levels in proptest::collection::vec(0usize..5, 1..8),
            durs in proptest::collection::vec(1u64..40, 1..8),
            width in 1usize..4,
        ) {
            let palette = [0.0, 9.0, 40.0, 529.0, 1400.0];
            let mut rates = Vec::new();
            for (l, d) in levels.iter().zip(&durs) {
                rates.extend(vec![palette[*l]; *d as usize]);
            }
            let trace = LoadTrace::new(0, rates);
            let bml = bml();
            let (exact, _) =
                solve_verified(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
            let beam_opts = OptOptions { beam_width: Some(width), extra_states: vec![] };
            if let Some((beam, _)) = solve_verified(&trace, &bml, greedy(), &beam_opts) {
                prop_assert!(
                    beam.energy_j >= exact.energy_j - 1e-9 * exact.energy_j.abs() - 1e-6,
                    "beam {} below exact {}", beam.energy_j, exact.energy_j
                );
            }
        }
    }
}
