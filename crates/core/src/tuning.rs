//! Adaptive parameter tuning (§4.2 / §6.3).
//!
//! "We propose to dynamically tune these parameters by analyzing recent
//! query workloads based on our cost models whenever the insert buffer is
//! flushed to disk. This kind of adaptive database design is especially
//! useful when the database application is just deployed" (§4.2), and the
//! §6.3 procedure for picking `C`: collect the workload's thresholds,
//! determine the acceptable database size, then choose the cutoff that
//! fits the size budget with the best expected runtime.
//!
//! [`WorkloadProfile`] records observed query thresholds;
//! [`TuningAdvisor`] turns a profile plus the live index statistics into a
//! cutoff recommendation. When to merge fractures is
//! [`crate::maintenance`]'s decision.

use upi_storage::DiskConfig;

use crate::cost::{pointer_fetch_ms, DeviceCoeffs};
use crate::upi::DiscreteUpi;

/// A recency-free histogram of observed query thresholds (`QT`s).
#[derive(Debug, Clone, Default)]
pub struct WorkloadProfile {
    observations: Vec<f64>,
}

impl WorkloadProfile {
    /// Empty profile.
    pub fn new() -> WorkloadProfile {
        WorkloadProfile::default()
    }

    /// Record one executed query's threshold.
    pub fn record(&mut self, qt: f64) {
        assert!((0.0..=1.0).contains(&qt), "QT {qt} out of range");
        self.observations.push(qt);
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Fraction of queries whose threshold is below `c` — these are the
    /// queries a cutoff threshold `c` forces through the cutoff index.
    pub fn fraction_below(&self, c: f64) -> f64 {
        if self.observations.is_empty() {
            return 0.0;
        }
        self.observations.iter().filter(|&&qt| qt < c).count() as f64
            / self.observations.len() as f64
    }

    /// The recorded thresholds (for expectation sums).
    pub fn thresholds(&self) -> &[f64] {
        &self.observations
    }
}

/// One evaluated cutoff candidate.
#[derive(Debug, Clone, Copy)]
pub struct CutoffChoice {
    /// The candidate cutoff threshold.
    pub cutoff: f64,
    /// Estimated total index size at this cutoff, bytes.
    pub est_bytes: u64,
    /// Expected per-query runtime over the workload profile, ms.
    pub est_query_ms: f64,
    /// Whether the size budget is met.
    pub fits_budget: bool,
}

/// Cost-model-driven advisor. Stateless: every method takes the live
/// structures it judges.
#[derive(Debug, Clone, Copy, Default)]
pub struct TuningAdvisor;

impl TuningAdvisor {
    /// Evaluate cutoff candidates for a UPI against a workload profile and
    /// a size budget, following the §6.3 procedure. `hot_key` is the
    /// representative queried value (selectivities are per-value).
    ///
    /// Returns every candidate (for reporting) and the index of the
    /// recommended one: the cheapest expected runtime among those within
    /// budget, falling back to the smallest index if none fit.
    pub fn evaluate_cutoffs(
        &self,
        disk: &DiskConfig,
        upi: &DiscreteUpi,
        hot_key: u64,
        workload: &WorkloadProfile,
        budget_bytes: u64,
        candidates: &[f64],
    ) -> (Vec<CutoffChoice>, usize) {
        assert!(!candidates.is_empty());
        let coeffs = DeviceCoeffs::from_disk(disk);
        let stats = upi.attr_stats();
        let heap = upi.heap_stats();
        let avg_tuple_bytes = if heap.entries > 0 {
            heap.bytes as f64 / heap.entries as f64
        } else {
            256.0
        };
        let total_alts = stats.total().max(1) as f64;

        let mut out = Vec::with_capacity(candidates.len());
        for &c in candidates {
            // Heap copies at cutoff c: alternatives at/above c plus the
            // below-c first alternatives that Algorithm 1 keeps resident.
            let copies = stats.est_total_ge(c) + stats.est_first_below_global(c);
            let est_heap_bytes = copies * avg_tuple_bytes;
            // Cutoff entries are small (key + pointer ≈ 40 bytes).
            let est_cut_bytes = (total_alts - copies).max(0.0) * 40.0;
            let est_bytes = (est_heap_bytes + est_cut_bytes) as u64;

            // Expected query time: the §6.3 per-query estimate of
            // `cost::cutoff_query_cost_parts` with the candidate cutoff
            // substituted via the pointer histogram. The terms are added
            // in the paper's order (scan, opens, pointers) — float
            // addition does not re-associate, and `build_identity.rs` pins
            // these estimates to the bit.
            let est_query_ms = if workload.is_empty() {
                0.0
            } else {
                let cost_scan = coeffs.read_cost_ms(heap.bytes as f64);
                workload
                    .thresholds()
                    .iter()
                    .map(|&qt| {
                        let heap_sel =
                            stats.est_heap_count_ge(hot_key, qt, c) / heap.entries.max(1) as f64;
                        if qt >= c {
                            cost_scan * heap_sel
                                + coeffs.cost_init_ms
                                + heap.height as f64 * coeffs.t_descend_ms
                        } else {
                            let pointers = stats.est_cutoff_pointers(hot_key, qt, c);
                            cost_scan * heap_sel
                                + 2.0 * coeffs.open_descend_ms(heap.height)
                                + pointer_fetch_ms(
                                    &coeffs,
                                    heap.bytes,
                                    heap.leaf_pages as u64,
                                    pointers,
                                )
                        }
                    })
                    .sum::<f64>()
                    / workload.len() as f64
            };
            out.push(CutoffChoice {
                cutoff: c,
                est_bytes,
                est_query_ms,
                fits_budget: est_bytes <= budget_bytes,
            });
        }
        let pick = out
            .iter()
            .enumerate()
            .filter(|(_, ch)| ch.fits_budget)
            .min_by(|a, b| a.1.est_query_ms.partial_cmp(&b.1.est_query_ms).unwrap())
            .map(|(i, _)| i)
            .unwrap_or_else(|| {
                out.iter()
                    .enumerate()
                    .min_by_key(|(_, ch)| ch.est_bytes)
                    .map(|(i, _)| i)
                    .unwrap()
            });
        (out, pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upi::UpiConfig;
    use std::sync::Arc;
    use upi_storage::{SimDisk, Store};
    use upi_uncertain::{Datum, DiscretePmf, Field, Tuple, TupleId};

    fn author(id: u64, inst: u64, p: f64) -> Tuple {
        let spill = ((1.0 - p) * 0.5).max(0.02);
        Tuple::new(
            TupleId(id),
            0.95,
            vec![
                Field::Certain(Datum::Str(format!("a{id}"))),
                Field::Discrete(DiscretePmf::new(vec![(inst, p), (inst + 50, spill)])),
            ],
        )
    }

    fn upi_with_cutoff(c: f64) -> (Store, DiscreteUpi) {
        let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20);
        let mut u = DiscreteUpi::create(
            store.clone(),
            "t",
            1,
            UpiConfig {
                cutoff: c,
                ..UpiConfig::default()
            },
        )
        .unwrap();
        let tuples: Vec<Tuple> = (0..3000)
            .map(|i| author(i, i % 10, 0.4 + (i % 5) as f64 * 0.1))
            .collect();
        u.bulk_load(&tuples).unwrap();
        (store, u)
    }

    #[test]
    fn workload_profile_fractions() {
        let mut w = WorkloadProfile::new();
        for qt in [0.05, 0.1, 0.3, 0.3, 0.8] {
            w.record(qt);
        }
        assert_eq!(w.len(), 5);
        assert!((w.fraction_below(0.2) - 0.4).abs() < 1e-12);
        assert_eq!(w.fraction_below(0.0), 0.0);
        assert!((w.fraction_below(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn size_estimates_shrink_with_larger_cutoff() {
        let (store, upi) = upi_with_cutoff(0.1);
        let advisor = TuningAdvisor;
        let w = {
            let mut w = WorkloadProfile::new();
            w.record(0.3);
            w
        };
        let (choices, _) =
            advisor.evaluate_cutoffs(store.disk.config(), &upi, 0, &w, u64::MAX, &[0.0, 0.2, 0.6]);
        assert!(choices[0].est_bytes >= choices[1].est_bytes);
        assert!(choices[1].est_bytes >= choices[2].est_bytes);
    }

    #[test]
    fn low_qt_workloads_prefer_low_cutoffs() {
        let (store, upi) = upi_with_cutoff(0.1);
        let advisor = TuningAdvisor;
        let mut deep = WorkloadProfile::new();
        for _ in 0..20 {
            deep.record(0.02); // every query dives below any cutoff
        }
        let candidates = [0.0, 0.3, 0.6];
        let (choices, pick) =
            advisor.evaluate_cutoffs(store.disk.config(), &upi, 0, &deep, u64::MAX, &candidates);
        assert_eq!(
            candidates[pick], 0.0,
            "deep scans should pick no cutoff: {choices:?}"
        );
    }

    #[test]
    fn budget_forces_larger_cutoff() {
        let (store, upi) = upi_with_cutoff(0.1);
        let advisor = TuningAdvisor;
        let mut w = WorkloadProfile::new();
        w.record(0.02);
        // First find the sizes, then set a budget excluding the smallest
        // cutoff.
        let candidates = [0.0, 0.3, 0.6];
        let (choices, _) =
            advisor.evaluate_cutoffs(store.disk.config(), &upi, 0, &w, u64::MAX, &candidates);
        let budget = choices[0].est_bytes - 1;
        let (_, pick) =
            advisor.evaluate_cutoffs(store.disk.config(), &upi, 0, &w, budget, &candidates);
        assert!(candidates[pick] > 0.0, "budget must exclude C=0");
    }

    #[test]
    fn empty_workload_is_handled() {
        let (store, upi) = upi_with_cutoff(0.1);
        let (choices, pick) = TuningAdvisor.evaluate_cutoffs(
            store.disk.config(),
            &upi,
            0,
            &WorkloadProfile::new(),
            u64::MAX,
            &[0.1, 0.2],
        );
        assert_eq!(choices.len(), 2);
        assert!(pick < 2);
    }
}
