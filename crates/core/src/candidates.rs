//! Step 2 — sorting architectures and keeping only BML candidates —
//! plus the Step-3 "never crosses anything" removal the paper applies to
//! Graphene (Sec. V-B).
//!
//! Step 2 (paper IV-B): sort by decreasing maximum performance, then remove
//! any architecture whose maximum power does not respect that ordering —
//! i.e. it performs worse than some other architecture while drawing at
//! least as much peak power. Such a machine can never improve energy
//! proportionality.
//!
//! Step 3 additionally discards architectures whose profile "never crosses
//! any other architecture's profile" — concretely, machines that are never
//! the most power-efficient choice at *any* performance rate (Graphene in
//! the paper's data). We implement the slightly stronger but equivalent
//! never-optimal test over homogeneous stacks, which is well-defined for
//! any number of architectures.

use crate::errors::BmlError;
use crate::profile::{stack_power, ArchProfile};

/// Why an architecture was rejected from the BML candidate set.
#[derive(Debug, Clone, PartialEq)]
pub enum RemovalReason {
    /// Step 2: dominated — another architecture performs at least as well
    /// with at most the same peak power.
    Dominated {
        /// Codename of the dominating architecture.
        by: String,
    },
    /// Step 3: at no performance rate is this architecture (as a
    /// homogeneous stack) the cheapest option.
    NeverOptimal,
}

/// Result of candidate filtering: the surviving profiles sorted by
/// decreasing maximum performance, and the rejects with their reasons.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSet {
    /// Survivors, sorted by decreasing `max_perf` (Big first).
    pub kept: Vec<ArchProfile>,
    /// Rejected profiles and why.
    pub removed: Vec<(ArchProfile, RemovalReason)>,
}

impl CandidateSet {
    /// Codenames of the survivors, Big first.
    pub fn names(&self) -> Vec<&str> {
        self.kept.iter().map(|p| p.name.as_str()).collect()
    }

    /// BML class labels for the survivors, Big first: `"Big"`, `"Medium"`,
    /// `"Little"` for three candidates; for other counts intermediate
    /// classes are numbered (`"Medium-1"`, `"Medium-2"`, ...) as the paper
    /// allows ("intermediate classes can be required depending on the
    /// use-case", Sec. III).
    pub fn class_labels(&self) -> Vec<String> {
        class_labels(self.kept.len())
    }
}

/// BML class labels for `n` architectures ordered Big -> Little.
pub fn class_labels(n: usize) -> Vec<String> {
    match n {
        0 => vec![],
        1 => vec!["Big".to_string()],
        2 => vec!["Big".to_string(), "Little".to_string()],
        3 => vec![
            "Big".to_string(),
            "Medium".to_string(),
            "Little".to_string(),
        ],
        n => {
            let mut v = vec!["Big".to_string()];
            for i in 1..n - 1 {
                v.push(format!("Medium-{i}"));
            }
            v.push("Little".to_string());
            v
        }
    }
}

/// Step 2: sort by decreasing `max_perf` and drop dominated architectures.
///
/// After sorting, maximum power must strictly decrease along the list; an
/// entry whose peak power is >= the smallest peak power seen so far is
/// dominated by the machine that set that minimum.
pub fn filter_candidates(input: &[ArchProfile]) -> Result<CandidateSet, BmlError> {
    for p in input {
        p.validate()?;
    }
    let mut sorted: Vec<ArchProfile> = input.to_vec();
    // Sort by decreasing performance; tie-break by increasing peak power so
    // the cheaper of two equal performers survives.
    sorted.sort_by(|a, b| {
        b.max_perf
            .partial_cmp(&a.max_perf)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                a.max_power
                    .partial_cmp(&b.max_power)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });

    let mut kept: Vec<ArchProfile> = Vec::with_capacity(sorted.len());
    let mut removed = Vec::new();
    for p in sorted {
        match kept.iter().find(|k| k.max_power <= p.max_power) {
            // Someone faster already draws no more peak power than `p`.
            Some(dominator) => removed.push((
                p,
                RemovalReason::Dominated {
                    by: dominator.name.clone(),
                },
            )),
            None => kept.push(p),
        }
    }
    if kept.is_empty() {
        return Err(BmlError::NoCandidates);
    }
    Ok(CandidateSet { kept, removed })
}

/// Step 3 removal: drop every architecture that is never strictly the
/// cheapest homogeneous stack at any integer rate in `[1, horizon]`.
///
/// `horizon` defaults (when `None`) to twice the largest `max_perf`, which
/// covers one full repetition of every staircase period; beyond that the
/// comparison is decided by full-load efficiency, already sampled within
/// the horizon.
pub fn remove_never_optimal(
    set: CandidateSet,
    horizon: Option<u64>,
) -> Result<CandidateSet, BmlError> {
    let CandidateSet { kept, mut removed } = set;
    if kept.len() <= 1 {
        return Ok(CandidateSet { kept, removed });
    }
    let max_mp = kept.iter().map(|p| p.max_perf).fold(0.0f64, f64::max);
    let horizon = horizon.unwrap_or((2.0 * max_mp).ceil() as u64);

    // For each integer rate, find which architecture's stack is cheapest.
    let mut ever_best = vec![false; kept.len()];
    for r in 1..=horizon {
        let rate = r as f64;
        let mut best = 0usize;
        let mut best_p = f64::INFINITY;
        for (i, p) in kept.iter().enumerate() {
            let w = stack_power(p, rate);
            if w < best_p - 1e-12 {
                best_p = w;
                best = i;
            }
        }
        ever_best[best] = true;
        if ever_best.iter().all(|&b| b) {
            break;
        }
    }

    let mut surviving = Vec::with_capacity(kept.len());
    for (i, p) in kept.into_iter().enumerate() {
        if ever_best[i] {
            surviving.push(p);
        } else {
            removed.push((p, RemovalReason::NeverOptimal));
        }
    }
    if surviving.is_empty() {
        return Err(BmlError::NoCandidates);
    }
    Ok(CandidateSet {
        kept: surviving,
        removed,
    })
}

/// Convenience: Step 2 followed by the Step-3 removal, with the default
/// horizon.
pub fn bml_candidates(input: &[ArchProfile]) -> Result<CandidateSet, BmlError> {
    remove_never_optimal(filter_candidates(input)?, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn step2_removes_taurus_keeps_rest() {
        let set = filter_candidates(&catalog::table1()).unwrap();
        assert_eq!(
            set.names(),
            vec!["paravance", "graphene", "chromebook", "raspberry"]
        );
        assert_eq!(set.removed.len(), 1);
        assert_eq!(set.removed[0].0.name, "taurus");
        assert_eq!(
            set.removed[0].1,
            RemovalReason::Dominated {
                by: "paravance".into()
            }
        );
    }

    #[test]
    fn step3_removes_graphene() {
        let set = bml_candidates(&catalog::table1()).unwrap();
        assert_eq!(set.names(), vec!["paravance", "chromebook", "raspberry"]);
        let never: Vec<_> = set
            .removed
            .iter()
            .filter(|(_, r)| *r == RemovalReason::NeverOptimal)
            .map(|(p, _)| p.name.as_str())
            .collect();
        assert_eq!(never, vec!["graphene"]);
    }

    #[test]
    fn illustrative_d_removed_a_b_c_kept() {
        let set = filter_candidates(&catalog::illustrative()).unwrap();
        assert_eq!(set.names(), vec!["A", "B", "C"]);
        assert_eq!(set.removed[0].0.name, "D");
        // And all three survive the never-optimal check.
        let set = bml_candidates(&catalog::illustrative()).unwrap();
        assert_eq!(set.names(), vec!["A", "B", "C"]);
    }

    #[test]
    fn labels_for_three_candidates() {
        let set = bml_candidates(&catalog::table1()).unwrap();
        assert_eq!(set.class_labels(), vec!["Big", "Medium", "Little"]);
    }

    #[test]
    fn labels_for_other_counts() {
        assert!(class_labels(0).is_empty());
        assert_eq!(class_labels(1), vec!["Big"]);
        assert_eq!(class_labels(2), vec!["Big", "Little"]);
        assert_eq!(
            class_labels(4),
            vec!["Big", "Medium-1", "Medium-2", "Little"]
        );
    }

    #[test]
    fn empty_input_is_error() {
        assert_eq!(filter_candidates(&[]).unwrap_err(), BmlError::NoCandidates);
    }

    #[test]
    fn single_architecture_survives_alone() {
        let set = bml_candidates(&[catalog::paravance()]).unwrap();
        assert_eq!(set.names(), vec!["paravance"]);
    }

    #[test]
    fn equal_perf_keeps_cheaper() {
        let a = ArchProfile::without_transitions("cheap", 10.0, 50.0, 100.0).unwrap();
        let b = ArchProfile::without_transitions("pricey", 10.0, 60.0, 100.0).unwrap();
        let set = filter_candidates(&[b, a]).unwrap();
        assert_eq!(set.names(), vec!["cheap"]);
        assert_eq!(set.removed[0].0.name, "pricey");
    }

    #[test]
    fn survivors_sorted_by_decreasing_perf_and_power() {
        let set = bml_candidates(&catalog::table1()).unwrap();
        for w in set.kept.windows(2) {
            assert!(w[0].max_perf > w[1].max_perf);
            assert!(w[0].max_power > w[1].max_power);
        }
    }

    #[test]
    fn invalid_profile_propagates_error() {
        let bad = ArchProfile {
            name: "bad".into(),
            idle_power: 5.0,
            max_power: 1.0, // max < idle
            max_perf: 10.0,
            on_duration: 0.0,
            on_energy: 0.0,
            off_duration: 0.0,
            off_energy: 0.0,
        };
        assert!(filter_candidates(&[bad]).is_err());
    }

    #[test]
    fn never_optimal_horizon_override() {
        // With a horizon of 1 only the cheapest-at-rate-1 machine is kept.
        let set = filter_candidates(&catalog::table1()).unwrap();
        let set = remove_never_optimal(set, Some(1)).unwrap();
        assert_eq!(set.names(), vec!["raspberry"]);
    }
}
