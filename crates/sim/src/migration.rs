//! Instance migration planning (paper Secs. III and V-A).
//!
//! A stateless web server migrates "by stopping a server instance and
//! launching a new one on the destination machine, and then updating the
//! load balancer". When a reconfiguration changes the machine mix, the
//! instances on machines being switched off must move to machines being
//! switched on; surplus instances simply stop and new capacity simply
//! starts fresh.

use crate::characterization::MigrationCost;

/// Instance-level actions needed to follow a machine reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationPlan {
    /// `(arch, count)` of instances stopped with no replacement (capacity
    /// shrinks).
    pub pure_stops: Vec<(usize, u32)>,
    /// `(arch, count)` of instances started fresh (capacity grows).
    pub pure_starts: Vec<(usize, u32)>,
    /// Number of stop+start pairs that are logical *migrations* of a
    /// running instance to a different architecture.
    pub migrations: u32,
    /// Wall-clock duration of the instance-level transition (s); stops and
    /// starts proceed in parallel per the stateless model.
    pub duration_s: f64,
    /// Energy attributed to instance stops/starts/LB updates (J).
    pub energy_j: f64,
}

/// Plan the instance moves that turn per-architecture instance counts
/// `from` into `to`, with per-instance `cost`.
///
/// The number of migrations is `min(total stopped, total started)`: each
/// stopped instance whose capacity is replaced elsewhere counts as one
/// migration (stop + start + balancer update); the rest are pure stops or
/// pure starts.
pub fn plan_migrations(from: &[u32], to: &[u32], cost: MigrationCost) -> MigrationPlan {
    assert_eq!(from.len(), to.len());
    let mut pure_stops = Vec::new();
    let mut pure_starts = Vec::new();
    let mut stopped = 0u32;
    let mut started = 0u32;
    for (k, (&f, &t)) in from.iter().zip(to).enumerate() {
        if f > t {
            pure_stops.push((k, f - t));
            stopped += f - t;
        } else if t > f {
            pure_starts.push((k, t - f));
            started += t - f;
        }
    }
    let migrations = stopped.min(started);
    let moves = stopped.max(started); // every instance action pays the cost
    MigrationPlan {
        pure_stops,
        pure_starts,
        migrations,
        duration_s: if moves > 0 { cost.duration_s } else { 0.0 },
        energy_j: f64::from(stopped + started) * cost.energy_j,
    }
}

impl MigrationPlan {
    /// Total instances stopped (with or without replacement).
    pub fn total_stops(&self) -> u32 {
        self.pure_stops.iter().map(|&(_, c)| c).sum()
    }

    /// Total instances started.
    pub fn total_starts(&self) -> u32 {
        self.pure_starts.iter().map(|&(_, c)| c).sum()
    }

    /// `true` when nothing needs to move.
    pub fn is_noop(&self) -> bool {
        self.pure_stops.is_empty() && self.pure_starts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> MigrationCost {
        MigrationCost {
            duration_s: 2.0,
            energy_j: 5.0,
        }
    }

    #[test]
    fn identical_counts_noop() {
        let p = plan_migrations(&[1, 2, 3], &[1, 2, 3], cost());
        assert!(p.is_noop());
        assert_eq!(p.migrations, 0);
        assert_eq!(p.duration_s, 0.0);
        assert_eq!(p.energy_j, 0.0);
    }

    #[test]
    fn scale_up_is_pure_starts() {
        let p = plan_migrations(&[0, 1, 0], &[0, 3, 2], cost());
        assert_eq!(p.total_starts(), 4);
        assert_eq!(p.total_stops(), 0);
        assert_eq!(p.migrations, 0);
        assert_eq!(p.energy_j, 20.0);
        assert_eq!(p.duration_s, 2.0);
    }

    #[test]
    fn scale_down_is_pure_stops() {
        let p = plan_migrations(&[2, 0, 5], &[1, 0, 0], cost());
        assert_eq!(p.total_stops(), 6);
        assert_eq!(p.migrations, 0);
        assert_eq!(p.energy_j, 30.0);
    }

    #[test]
    fn architecture_swap_counts_migrations() {
        // 1 Big replaced by 16 Mediums + 1 Little: 1 stop, 17 starts ->
        // 1 logical migration, 16 fresh starts.
        let p = plan_migrations(&[1, 0, 0], &[0, 16, 1], cost());
        assert_eq!(p.total_stops(), 1);
        assert_eq!(p.total_starts(), 17);
        assert_eq!(p.migrations, 1);
        assert_eq!(p.energy_j, 18.0 * 5.0);
    }

    #[test]
    fn mixed_transition() {
        let p = plan_migrations(&[2, 10, 0], &[3, 0, 4], cost());
        assert_eq!(p.pure_stops, vec![(1, 10)]);
        assert_eq!(p.pure_starts, vec![(0, 1), (2, 4)]);
        assert_eq!(p.migrations, 5);
    }

    #[test]
    fn free_cost_zero_energy() {
        let p = plan_migrations(&[1, 0], &[0, 1], MigrationCost::free());
        assert_eq!(p.energy_j, 0.0);
        assert_eq!(p.duration_s, 0.0);
        assert_eq!(p.migrations, 1);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = plan_migrations(&[1, 2], &[1], cost());
    }
}
