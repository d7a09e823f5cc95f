//! Ablation — baseline pro-active scheduler vs the future-work
//! transition-aware scheduler (paper Sec. VI) on the World-Cup-like
//! trace: energy, churn and QoS side by side.
//!
//! The sweep is a 1-D slice of the `bml-grid` experiment space (the
//! `schedulers` dimension); it routes through the same shared cell
//! executor as the `grid` binary and honors `--threads`.
//!
//! ```text
//! cargo run --release -p bml-bench --bin ablation_scheduler [--days N] [--threads N] [--csv]
//! ```

use bml_bench::Args;
use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_core::scheduler::paper_window_length;
use bml_core::transition_aware::TransitionAwareConfig;
use bml_metrics::{joules_to_kwh, Table};
use bml_sim::{run_cells, CellConfig, CellJob, SchedulerKind, SimConfig};
use bml_trace::worldcup::{generate, WorldCupParams};

fn main() {
    let args = Args::parse();
    let days = args.days_or(7); // the sweep repeats the simulation; default smaller
    let trace = generate(&WorldCupParams {
        seed: args.seed,
        n_days: days,
        tournament_start: 8,
        final_day: 6 + days.saturating_sub(2),
        ..Default::default()
    });
    let bml = BmlInfrastructure::build(&catalog::table1()).expect("paper catalog builds");
    let base = CellConfig::from_sim(&SimConfig {
        stepping: args.stepping_or_default(),
        ..Default::default()
    });
    let aware = TransitionAwareConfig {
        horizon_s: paper_window_length(bml.candidates()) as f64,
        split: base.split,
        consider_keep_variants: true,
    };
    let schedulers = [
        ("baseline", SchedulerKind::Baseline),
        ("transition-aware", SchedulerKind::TransitionAware(aware)),
    ];
    let jobs: Vec<CellJob<'_>> = schedulers
        .iter()
        .map(|(_, scheduler)| CellJob {
            trace: &trace,
            bml: &bml,
            cell: CellConfig {
                scheduler: scheduler.clone(),
                ..base.clone()
            },
        })
        .collect();
    let results = args.pool().install(|| run_cells(&jobs, None));

    println!("Scheduler ablation ({} days, seed {}):\n", days, args.seed);
    let mut t = Table::new(&[
        "scheduler",
        "energy (kWh)",
        "reconfigs",
        "boots",
        "reconfig energy (kJ)",
        "QoS shortfall (%)",
    ]);
    for ((name, _), r) in schedulers.iter().zip(&results) {
        t.row(&[
            name.to_string(),
            format!("{:.2}", joules_to_kwh(r.total_energy_j)),
            format!("{}", r.reconfigurations),
            format!("{}", r.nodes_switched_on),
            format!("{:.1}", r.reconfig_energy_j / 1_000.0),
            format!("{:.4}", 100.0 * r.qos.shortfall_fraction()),
        ]);
    }
    if args.csv {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }
    println!(
        "\nThe transition-aware scheduler suppresses reconfigurations whose On/Off energy\n\
         exceeds what the better-fitting combination saves within the decision horizon."
    );
}
