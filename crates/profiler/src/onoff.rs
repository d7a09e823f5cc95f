//! Measuring switch-on / switch-off durations and energies (paper
//! Sec. V-A: "We also measure On/Off durations and energy consumption").
//!
//! The protocol mirrors what one does with a wattmeter and a ping loop:
//! issue the power command, sample power at 1 Hz, and probe reachability
//! every second; the transition ends when the machine responds (boot) or
//! the meter reads zero (shutdown). The energy is the integral of the
//! sampled power over the transition.

use crate::machine_model::SyntheticMachine;
use crate::wattmeter::Wattmeter;

/// Measured transition characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionMeasurement {
    /// Measured duration (s), 1 s resolution like the paper's table.
    pub duration_s: f64,
    /// Measured energy (J): integral of sampled power.
    pub energy_j: f64,
}

/// Safety cap on transition measurements (s).
const TIMEOUT_S: u64 = 3_600;

/// Measure a switch-on: sample power each second until the machine
/// answers pings.
pub fn measure_boot(machine: &SyntheticMachine, meter: &mut Wattmeter) -> TransitionMeasurement {
    let mut energy = 0.0;
    for t in 0..TIMEOUT_S {
        let (true_power, up) = machine.boot_observation(t as f64);
        if up {
            return TransitionMeasurement {
                duration_s: t as f64,
                energy_j: energy,
            };
        }
        energy += meter.sample(true_power);
    }
    TransitionMeasurement {
        duration_s: TIMEOUT_S as f64,
        energy_j: energy,
    }
}

/// Measure a switch-off: sample power each second until the meter reads
/// (near) zero.
pub fn measure_shutdown(
    machine: &SyntheticMachine,
    meter: &mut Wattmeter,
) -> TransitionMeasurement {
    let mut energy = 0.0;
    for t in 0..TIMEOUT_S {
        let true_power = machine.shutdown_observation(t as f64);
        if true_power <= 0.0 {
            return TransitionMeasurement {
                duration_s: t as f64,
                energy_j: energy,
            };
        }
        energy += meter.sample(true_power);
    }
    TransitionMeasurement {
        duration_s: TIMEOUT_S as f64,
        energy_j: energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine_model::paper_machines;

    #[test]
    fn boot_measurement_recovers_table1() {
        for (machine, (dur, energy)) in paper_machines().iter().zip([
            (189.0f64, 21341.0f64),
            (164.0, 20628.0),
            (71.0, 4940.0),
            (12.0, 49.3),
            (16.0, 40.5),
        ]) {
            let mut meter = Wattmeter::new(1);
            let m = measure_boot(machine, &mut meter);
            assert_eq!(m.duration_s, dur, "{}", machine.name);
            let tolerance = (energy * 0.02).max(1.0);
            assert!(
                (m.energy_j - energy).abs() < tolerance,
                "{}: {} vs {energy}",
                machine.name,
                m.energy_j
            );
        }
    }

    #[test]
    fn shutdown_measurement_recovers_table1() {
        for (machine, (dur, energy)) in paper_machines().iter().zip([
            (10.0f64, 657.0f64),
            (11.0, 1173.0),
            (16.0, 760.0),
            (21.0, 77.6),
            (14.0, 36.2),
        ]) {
            let mut meter = Wattmeter::new(2);
            let m = measure_shutdown(machine, &mut meter);
            assert_eq!(m.duration_s, dur, "{}", machine.name);
            let tolerance = (energy * 0.02).max(1.0);
            assert!(
                (m.energy_j - energy).abs() < tolerance,
                "{}: {} vs {energy}",
                machine.name,
                m.energy_j
            );
        }
    }

    #[test]
    fn ideal_meter_exact_energies() {
        let m = paper_machines().remove(0);
        let mut meter = Wattmeter::ideal(0);
        let boot = measure_boot(&m, &mut meter);
        assert!((boot.energy_j - 21341.0).abs() < 1e-6);
        let down = measure_shutdown(&m, &mut meter);
        assert!((down.energy_j - 657.0).abs() < 1e-6);
    }
}
