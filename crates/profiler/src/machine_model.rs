//! Synthetic physical machines with hidden ground truth.
//!
//! The paper profiles five real machines (Grid'5000 servers, a Chromebook
//! and a Raspberry Pi) by running a web benchmark against them while a
//! wattmeter samples power (Sec. V-A). We cannot ship that hardware, so
//! this module provides machine *models* with hidden true parameters —
//! per-core work throughput, a slightly non-linear power curve (per
//! Rivoire et al., the paper's own caveat about linear models), and boot/
//! shutdown ramps. The profiling harness only interacts with them the way
//! Siege + WattsUp?Pro would: offered concurrency in, observed throughput
//! and sampled power out.

/// Mean work units per request of the paper's CGI script, whose loop
/// count is drawn uniformly from `[1000, 2000]` (Sec. V-A).
pub const MEAN_WORK_UNITS: f64 = 1500.0;

/// Ground-truth description of one physical machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticMachine {
    /// Codename, e.g. `"paravance"`.
    pub name: String,
    /// Number of CPU cores.
    pub cores: u32,
    /// Work units one core retires per second.
    pub units_per_core_s: f64,
    /// True idle power (W).
    pub idle_w: f64,
    /// True power at full utilization (W).
    pub peak_w: f64,
    /// Power-curve shape: fraction of the dynamic range that scales
    /// linearly with utilization; the remainder scales with `util^2`
    /// (0.0 = fully quadratic, 1.0 = perfectly linear).
    pub linearity: f64,
    /// True boot duration (s).
    pub boot_s: f64,
    /// Mean power drawn while booting (W).
    pub boot_power_w: f64,
    /// True shutdown duration (s).
    pub shutdown_s: f64,
    /// Mean power drawn while shutting down (W).
    pub shutdown_power_w: f64,
}

impl SyntheticMachine {
    /// True request capacity (req/s) under the paper's 1500-unit mean
    /// request: `cores * units_per_core / mean_units`.
    pub fn true_capacity_rps(&self) -> f64 {
        f64::from(self.cores) * self.units_per_core_s / MEAN_WORK_UNITS
    }

    /// Throughput (req/s) sustained under a closed-loop benchmark with
    /// `concurrency` clients and zero think time.
    ///
    /// CPU-bound service: with fewer clients than cores each client keeps
    /// one core busy; beyond that the machine saturates at its capacity,
    /// with a mild contention penalty that grows with oversubscription
    /// (scheduler overhead), just like a real small box under Siege.
    pub fn throughput_rps(&self, concurrency: u32) -> f64 {
        if concurrency == 0 {
            return 0.0;
        }
        let per_client = self.units_per_core_s / MEAN_WORK_UNITS;
        let unsaturated = f64::from(concurrency) * per_client;
        let capacity = self.true_capacity_rps();
        if unsaturated <= capacity {
            unsaturated
        } else {
            // 0.5% throughput loss per 100% oversubscription, capped at 5%.
            let over = f64::from(concurrency) / f64::from(self.cores) - 1.0;
            let penalty = (0.005 * over).min(0.05);
            capacity * (1.0 - penalty)
        }
    }

    /// True power (W) at a given utilization in `[0, 1]`: idle plus a
    /// mostly-linear, slightly convex dynamic part.
    pub fn power_at_utilization(&self, util: f64) -> f64 {
        let u = util.clamp(0.0, 1.0);
        let dynamic = self.linearity * u + (1.0 - self.linearity) * u * u;
        self.idle_w + (self.peak_w - self.idle_w) * dynamic
    }

    /// True power (W) while serving `rate` req/s.
    pub fn power_at_rate(&self, rate: f64) -> f64 {
        let cap = self.true_capacity_rps();
        self.power_at_utilization(if cap > 0.0 { rate / cap } else { 0.0 })
    }

    /// True boot energy (J).
    pub fn boot_energy_j(&self) -> f64 {
        self.boot_s * self.boot_power_w
    }

    /// True shutdown energy (J).
    pub fn shutdown_energy_j(&self) -> f64 {
        self.shutdown_s * self.shutdown_power_w
    }

    /// Power (W) observed `t` seconds after a switch-on request, and
    /// whether the machine answers pings yet.
    pub fn boot_observation(&self, t: f64) -> (f64, bool) {
        if t < self.boot_s {
            (self.boot_power_w, false)
        } else {
            (self.idle_w, true)
        }
    }

    /// Power (W) observed `t` seconds after a shutdown request (0 once
    /// off).
    pub fn shutdown_observation(&self, t: f64) -> f64 {
        if t < self.shutdown_s {
            self.shutdown_power_w
        } else {
            0.0
        }
    }
}

/// Ground-truth models matching the five machines of paper Table I: the
/// hidden parameters are chosen so an ideal measurement recovers the
/// published numbers.
pub fn paper_machines() -> Vec<SyntheticMachine> {
    vec![
        SyntheticMachine {
            name: "paravance".into(),
            cores: 16,
            units_per_core_s: 1331.0 * MEAN_WORK_UNITS / 16.0,
            idle_w: 69.9,
            peak_w: 200.5,
            linearity: 0.92,
            boot_s: 189.0,
            boot_power_w: 21341.0 / 189.0,
            shutdown_s: 10.0,
            shutdown_power_w: 65.7,
        },
        SyntheticMachine {
            name: "taurus".into(),
            cores: 12,
            units_per_core_s: 860.0 * MEAN_WORK_UNITS / 12.0,
            idle_w: 95.8,
            peak_w: 223.7,
            linearity: 0.92,
            boot_s: 164.0,
            boot_power_w: 20628.0 / 164.0,
            shutdown_s: 11.0,
            shutdown_power_w: 1173.0 / 11.0,
        },
        SyntheticMachine {
            name: "graphene".into(),
            cores: 4,
            units_per_core_s: 272.0 * MEAN_WORK_UNITS / 4.0,
            idle_w: 47.7,
            peak_w: 123.8,
            linearity: 0.9,
            boot_s: 71.0,
            boot_power_w: 4940.0 / 71.0,
            shutdown_s: 16.0,
            shutdown_power_w: 47.5,
        },
        SyntheticMachine {
            name: "chromebook".into(),
            cores: 2,
            units_per_core_s: 33.0 * MEAN_WORK_UNITS / 2.0,
            idle_w: 4.0,
            peak_w: 7.6,
            linearity: 0.95,
            boot_s: 12.0,
            boot_power_w: 49.3 / 12.0,
            shutdown_s: 21.0,
            shutdown_power_w: 77.6 / 21.0,
        },
        SyntheticMachine {
            name: "raspberry".into(),
            cores: 4,
            units_per_core_s: 9.0 * MEAN_WORK_UNITS / 4.0,
            idle_w: 3.1,
            peak_w: 3.7,
            linearity: 0.97,
            boot_s: 16.0,
            boot_power_w: 40.5 / 16.0,
            shutdown_s: 14.0,
            shutdown_power_w: 36.2 / 14.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paravance() -> SyntheticMachine {
        paper_machines().remove(0)
    }

    #[test]
    fn true_capacity_matches_table1() {
        for (m, expect) in paper_machines()
            .iter()
            .zip([1331.0, 860.0, 272.0, 33.0, 9.0])
        {
            assert!(
                (m.true_capacity_rps() - expect).abs() < 1e-9,
                "{}: {}",
                m.name,
                m.true_capacity_rps()
            );
        }
    }

    #[test]
    fn throughput_scales_until_cores_saturate() {
        let m = paravance();
        let per_client = m.units_per_core_s / MEAN_WORK_UNITS;
        assert!((m.throughput_rps(1) - per_client).abs() < 1e-9);
        assert!((m.throughput_rps(8) - 8.0 * per_client).abs() < 1e-9);
        // At the core count the machine reaches its capacity...
        assert!((m.throughput_rps(16) - 1331.0).abs() < 1e-9);
        // ...and oversubscription degrades slightly, never improves.
        assert!(m.throughput_rps(32) < 1331.0);
        assert!(m.throughput_rps(32) > 1331.0 * 0.94);
        assert_eq!(m.throughput_rps(0), 0.0);
    }

    #[test]
    fn power_curve_endpoints_and_convexity() {
        let m = paravance();
        assert!((m.power_at_utilization(0.0) - 69.9).abs() < 1e-12);
        assert!((m.power_at_utilization(1.0) - 200.5).abs() < 1e-12);
        // Convex: mid-utilization power below the straight line.
        let mid = m.power_at_utilization(0.5);
        let line = (69.9 + 200.5) / 2.0;
        assert!(mid < line);
        assert!(mid > 69.9);
        // Clamping.
        assert_eq!(m.power_at_utilization(2.0), 200.5);
        assert_eq!(m.power_at_utilization(-1.0), 69.9);
    }

    #[test]
    fn transition_energies_match_table1() {
        let m = paravance();
        assert!((m.boot_energy_j() - 21341.0).abs() < 1e-9);
        assert!((m.shutdown_energy_j() - 657.0).abs() < 1e-9);
    }

    #[test]
    fn boot_observation_timeline() {
        let m = paravance();
        let (w, up) = m.boot_observation(0.0);
        assert!(!up);
        assert!((w - 21341.0 / 189.0).abs() < 1e-9);
        let (w, up) = m.boot_observation(189.0);
        assert!(up);
        assert_eq!(w, 69.9);
    }

    #[test]
    fn shutdown_observation_timeline() {
        let m = paravance();
        assert!(m.shutdown_observation(5.0) > 0.0);
        assert_eq!(m.shutdown_observation(10.0), 0.0);
    }

    #[test]
    fn all_five_machines_present() {
        let names: Vec<String> = paper_machines().into_iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            vec!["paravance", "taurus", "graphene", "chromebook", "raspberry"]
        );
    }
}
