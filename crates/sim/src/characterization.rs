//! Application characterization (paper Sec. III).
//!
//! The BML methodology is application-centric: performance is measured in
//! an *application metric* (work per time unit), QoS requirements classify
//! applications from critical to tolerant, and the feasibility of dynamic
//! reconfiguration depends on whether the application can be migrated and
//! distributed ("malleability").

/// The application metric: what one unit of performance means
/// (e.g. "requests processed per second" for the paper's web server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplicationMetric {
    /// Metric name, e.g. `"request rate"`.
    pub name: String,
    /// Unit, e.g. `"req/s"`.
    pub unit: String,
}

impl ApplicationMetric {
    /// The paper's web-server metric: requests processed per second.
    pub fn requests_per_second() -> Self {
        ApplicationMetric {
            name: "request rate".into(),
            unit: "req/s".into(),
        }
    }
}

/// QoS classes (paper Sec. III): critical applications have strict
/// performance requirements; tolerant ones accept soft degradation;
/// intermediate classes interpolate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QosClass {
    /// Strict requirements (banking, medical): no capacity shortfall is
    /// acceptable.
    Critical,
    /// Soft requirements with a tolerated shortfall fraction in `[0, 1]`
    /// (enterprise services, flexible deadlines).
    Tolerant {
        /// Fraction of demand that may go unserved before the QoS is
        /// considered violated.
        max_shortfall: f64,
    },
    /// An explicitly parameterized intermediate class.
    Intermediate {
        /// Tolerated shortfall fraction.
        max_shortfall: f64,
        /// Maximum consecutive seconds of shortfall tolerated.
        max_violation_seconds: u64,
    },
}

impl QosClass {
    /// The shortfall fraction this class tolerates.
    pub fn tolerated_shortfall(&self) -> f64 {
        match *self {
            QosClass::Critical => 0.0,
            QosClass::Tolerant { max_shortfall } => max_shortfall,
            QosClass::Intermediate { max_shortfall, .. } => max_shortfall,
        }
    }
}

/// How much is known about future load (paper Sec. III): perfect, partial
/// (patterns known, variations not) or unknown (prediction required).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadKnowledge {
    /// Load is known with precision ahead of time.
    Perfect,
    /// Weekly/diurnal/hourly patterns are known, exact variations are not.
    Partial,
    /// Nothing is known; the load must be predicted online.
    Unknown,
}

/// Whether and how the application can be spread over several machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malleability {
    /// Can the application be distributed across several machines at all?
    pub distributable: bool,
    /// Minimum number of simultaneously running instances.
    pub min_instances: u32,
    /// Maximum number of instances (`u32::MAX` for unbounded).
    pub max_instances: u32,
}

impl Malleability {
    /// Fully malleable: any instance count (the stateless web server).
    pub fn full() -> Self {
        Malleability {
            distributable: true,
            min_instances: 1,
            max_instances: u32::MAX,
        }
    }

    /// Is `n` instances a permitted deployment?
    pub fn allows(&self, n: u32) -> bool {
        if n == 0 {
            return false;
        }
        if !self.distributable && n > 1 {
            return false;
        }
        (self.min_instances..=self.max_instances).contains(&n)
    }
}

/// Migration overhead of one application instance, "both in terms of
/// duration and energy consumption" (paper Sec. III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCost {
    /// Seconds to stop, transfer (if any state) and restart an instance.
    pub duration_s: f64,
    /// Energy consumed by the migration (J).
    pub energy_j: f64,
}

impl MigrationCost {
    /// A stateless restart: negligible but non-zero cost.
    pub fn stateless() -> Self {
        MigrationCost {
            duration_s: 1.0,
            energy_j: 5.0,
        }
    }

    /// Free migration, for theoretical bounds.
    pub fn free() -> Self {
        MigrationCost {
            duration_s: 0.0,
            energy_j: 0.0,
        }
    }
}

/// Complete application characterization consumed by the scheduler and
/// the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationSpec {
    /// Human-readable name.
    pub name: String,
    /// Performance metric.
    pub metric: ApplicationMetric,
    /// QoS class.
    pub qos: QosClass,
    /// Load knowledge class.
    pub load_knowledge: LoadKnowledge,
    /// Malleability constraints.
    pub malleability: Malleability,
    /// Per-instance migration cost.
    pub migration: MigrationCost,
    /// Can the application run on every candidate architecture?
    /// (The paper requires multi-architecture support for BML.)
    pub multi_arch: bool,
}

impl ApplicationSpec {
    /// The paper's target application: a stateless `lighttpd` web server
    /// behind a load balancer, fully malleable, migrated by stop/start,
    /// tolerant of brief degradation during reconfigurations.
    pub fn stateless_web_server() -> Self {
        ApplicationSpec {
            name: "stateless-web-server".into(),
            metric: ApplicationMetric::requests_per_second(),
            qos: QosClass::Tolerant {
                max_shortfall: 0.01,
            },
            load_knowledge: LoadKnowledge::Partial,
            malleability: Malleability::full(),
            migration: MigrationCost::stateless(),
            multi_arch: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn web_server_spec_is_bml_compatible() {
        let s = ApplicationSpec::stateless_web_server();
        assert!(s.multi_arch && s.malleability.distributable);
        assert_eq!(s.metric.unit, "req/s");
        assert!(s.malleability.allows(1));
        assert!(s.malleability.allows(500));
    }

    #[test]
    fn qos_shortfall_tolerances() {
        assert_eq!(QosClass::Critical.tolerated_shortfall(), 0.0);
        assert_eq!(
            QosClass::Tolerant {
                max_shortfall: 0.05
            }
            .tolerated_shortfall(),
            0.05
        );
        let q = QosClass::Intermediate {
            max_shortfall: 0.02,
            max_violation_seconds: 30,
        };
        assert_eq!(q.tolerated_shortfall(), 0.02);
    }

    #[test]
    fn malleability_bounds() {
        let m = Malleability {
            distributable: true,
            min_instances: 2,
            max_instances: 4,
        };
        assert!(!m.allows(1));
        assert!(m.allows(2));
        assert!(m.allows(4));
        assert!(!m.allows(5));
    }

    #[test]
    fn migration_cost_presets() {
        assert_eq!(MigrationCost::free().duration_s, 0.0);
        assert!(MigrationCost::stateless().duration_s > 0.0);
    }
}
