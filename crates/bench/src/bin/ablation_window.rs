//! Ablation — sensitivity of BML to the look-ahead window length.
//!
//! The paper fixes the window at 2x the longest boot (378 s). This sweep
//! shows the trade-off: short windows react later (QoS risk, more
//! reconfigurations), long windows over-provision (energy).
//!
//! The sweep is a 1-D slice of the `bml-grid` experiment space (the
//! `windows` dimension); it routes through the same shared cell executor
//! as the `grid` binary and honors `--threads`.
//!
//! ```text
//! cargo run --release -p bml-bench --bin ablation_window [--days N] [--threads N] [--csv]
//! ```

use bml_bench::Args;
use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_metrics::{joules_to_kwh, Table};
use bml_sim::{run_cells, CellConfig, CellJob, SimConfig};
use bml_trace::worldcup::{generate, WorldCupParams};

fn main() {
    let args = Args::parse();
    let days = args.days_or(7); // the sweep repeats the simulation; default smaller
    let trace = generate(&WorldCupParams {
        seed: args.seed,
        n_days: days,
        tournament_start: 8, // pull the tournament into the short span
        final_day: 6 + days.saturating_sub(2),
        ..Default::default()
    });
    let bml = BmlInfrastructure::build(&catalog::table1()).expect("paper catalog builds");
    let windows = [60u64, 189, 378, 756, 1800, 3600];
    eprintln!("sweeping {} windows over {} days...", windows.len(), days);
    let base = CellConfig::from_sim(&SimConfig {
        stepping: args.stepping_or_default(),
        ..Default::default()
    });
    let jobs: Vec<CellJob<'_>> = windows
        .iter()
        .map(|&w| CellJob {
            trace: &trace,
            bml: &bml,
            cell: CellConfig {
                window: Some(w),
                ..base.clone()
            },
        })
        .collect();
    let results = args.pool().install(|| run_cells(&jobs, None));

    println!(
        "Window-length ablation ({} days, seed {}):\n",
        days, args.seed
    );
    let mut t = Table::new(&[
        "window (s)",
        "energy (kWh)",
        "reconfigs",
        "boots",
        "QoS shortfall (%)",
        "violation secs",
    ]);
    for (w, r) in windows.iter().zip(&results) {
        t.row(&[
            format!("{w}"),
            format!("{:.2}", joules_to_kwh(r.total_energy_j)),
            format!("{}", r.reconfigurations),
            format!("{}", r.nodes_switched_on),
            format!("{:.4}", 100.0 * r.qos.shortfall_fraction()),
            format!("{}", r.qos.violation_seconds),
        ]);
    }
    if args.csv {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }
    println!("\nThe paper's 378 s window (2x longest boot) hides boot latency with minimal over-provisioning.");
}
