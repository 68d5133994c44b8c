//! Cost-driven background fracture maintenance — the LSM-style
//! incremental merge scheduler.
//!
//! A fractured UPI deteriorates as fracture events accumulate: every PTQ
//! pays one `Cost_init + H·T_descend` open per component (§6.2, fig09),
//! and the only §4.3 remedy is a stop-the-world [`merge`] priced at
//! read+write of the whole database. This module makes the trade-off
//! *automatic and incremental*:
//!
//! * [`select_compaction`] enumerates the bounded compaction shapes one
//!   maintenance step can take — fold the oldest prefix into main, or
//!   compact a contiguous run of fractures into one — and picks the step
//!   that eliminates the most component opens inside a device budget,
//!   tiered LSM-style: smallest components first (ties fall to the
//!   cheapest candidate, and small adjacent fractures are exactly the
//!   cheap ones).
//! * [`MaintenancePolicy`] decides *whether* a step pays for itself and
//!   *which* candidate to run: each candidate is valued by the
//!   per-query overhead it permanently removes (tree descents plus the
//!   head thrash of interleaving the eliminated components' clustered
//!   runs into the k-way merge), and a step is profitable when
//!   `savings_per_query × observed_qps × horizon > step_cost_ms`, every
//!   term taken from the calibrated cost model and the session's
//!   observed traffic — never from wall-clock heuristics. Because the
//!   seek term grows with a fracture's *size* while a fold's cost is
//!   dominated by rewriting main, the policy naturally defers folds
//!   until enough fracture mass has accumulated to amortize the
//!   rewrite, then folds the whole prefix at once — the tiered-LSM
//!   cadence, derived from device economics instead of a shape
//!   parameter.
//!
//! The *execution* of a step lives on
//! [`FracturedUpi::merge_step`](crate::fractured::FracturedUpi::merge_step);
//! both it and the policy share this module's candidate selection so the
//! planned step and the executed step can never disagree.
//!
//! [`merge`]: crate::fractured::FracturedUpi::merge

use crate::cost::DeviceCoeffs;

/// One bounded compaction step over a fractured UPI's component chain.
///
/// Components are addressed in age order: `0` = the main UPI, `i + 1` =
/// fracture `i`. Both shapes merge an *adjacent* slice into one
/// component, which keeps the newer-suppresses-older delete-set
/// semantics intact without rewriting anything outside the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionStep {
    /// Merge the main UPI and the `fractures` oldest fractures into a
    /// fresh main. The merged fractures' delete markers become
    /// droppable: they only suppressed rows inside the folded prefix.
    FoldPrefix {
        /// Number of oldest fractures folded into main (>= 1).
        fractures: usize,
    },
    /// Merge fractures `first..=last` (a contiguous run, `first < last`)
    /// into one fracture at position `first`. The run's delete markers
    /// are kept (unioned): they still suppress older components.
    CompactRun {
        /// First fracture of the run.
        first: usize,
        /// Last fracture of the run (inclusive).
        last: usize,
    },
}

impl CompactionStep {
    /// Number of components this step merges into one (>= 2).
    pub fn merged(&self) -> usize {
        match *self {
            CompactionStep::FoldPrefix { fractures } => fractures + 1,
            CompactionStep::CompactRun { first, last } => last - first + 1,
        }
    }

    /// Number of component opens a query stops paying after the step.
    pub fn eliminated(&self) -> usize {
        self.merged() - 1
    }
}

/// A selected step plus its priced cost (sequential read + write of the
/// merged slice, the incremental version of `Cost_merge`, §6.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPlan {
    /// The step to execute.
    pub step: CompactionStep,
    /// Estimated device cost of executing it, ms.
    pub est_cost_ms: f64,
}

/// Estimated device cost of merging `bytes` of component data: read it
/// all, write the result (`S (T_read + T_write)`, Table 8, applied to
/// the slice instead of the whole database).
pub fn merge_slice_cost_ms(coeffs: &DeviceCoeffs, bytes: u64) -> f64 {
    coeffs.read_cost_ms(bytes as f64) + coeffs.write_cost_ms(bytes as f64)
}

/// Pick the best compaction step affordable within `budget_ms`.
///
/// `component_bytes[0]` is the main UPI, `component_bytes[i]` fracture
/// `i - 1` — [`FracturedUpi::component_bytes`] produces exactly this
/// shape. Candidates are every prefix fold and every contiguous
/// fracture run; among those whose priced cost fits the budget, the one
/// eliminating the most components wins, ties broken by cheapest cost
/// (the tiered-LSM "smallest first" rule: for a fixed number of
/// components eliminated, the cheapest slice is the one over the
/// smallest fractures). Returns `None` when nothing fits — including
/// the degenerate chains with fewer than two components.
///
/// [`FracturedUpi::component_bytes`]: crate::fractured::FracturedUpi::component_bytes
pub fn select_compaction(
    component_bytes: &[u64],
    coeffs: &DeviceCoeffs,
    budget_ms: f64,
) -> Option<CompactionPlan> {
    best_candidate(component_bytes, coeffs, |p| p.est_cost_ms <= budget_ms)
}

/// Enumerate every candidate step (each prefix fold, each contiguous
/// fracture run) with its priced cost.
fn for_each_candidate(
    component_bytes: &[u64],
    coeffs: &DeviceCoeffs,
    mut f: impl FnMut(CompactionPlan),
) {
    let n = component_bytes.len();
    if n < 2 {
        return;
    }
    let mut consider = |step: CompactionStep, bytes: u64| {
        f(CompactionPlan {
            step,
            est_cost_ms: merge_slice_cost_ms(coeffs, bytes),
        })
    };
    // Prefix folds: main + the k oldest fractures.
    let mut prefix = component_bytes[0];
    for (k, bytes) in component_bytes.iter().enumerate().skip(1) {
        prefix += bytes;
        consider(CompactionStep::FoldPrefix { fractures: k }, prefix);
    }
    // Contiguous fracture runs (at least two fractures; a single
    // fracture "run" merges nothing).
    for first in 0..n.saturating_sub(2) {
        let mut run = component_bytes[first + 1];
        for last in first + 1..n - 1 {
            run += component_bytes[last + 1];
            consider(CompactionStep::CompactRun { first, last }, run);
        }
    }
}

/// Keep the best candidate `accept`s: most components eliminated, ties
/// broken by cheapest cost.
fn best_candidate(
    component_bytes: &[u64],
    coeffs: &DeviceCoeffs,
    accept: impl Fn(&CompactionPlan) -> bool,
) -> Option<CompactionPlan> {
    let mut best: Option<CompactionPlan> = None;
    for_each_candidate(component_bytes, coeffs, |cand| {
        if !accept(&cand) {
            return;
        }
        let better = match &best {
            None => true,
            Some(b) => {
                cand.step.eliminated() > b.step.eliminated()
                    || (cand.step.eliminated() == b.step.eliminated()
                        && cand.est_cost_ms < b.est_cost_ms)
            }
        };
        if better {
            best = Some(cand);
        }
    });
    best
}

/// When maintenance work pays for itself, from calibrated device
/// coefficients and observed traffic.
#[derive(Debug, Clone, Copy)]
pub struct MaintenancePolicy {
    /// Traffic horizon the step's cost is amortized over, ms of device
    /// time. A step is worth running when the queries expected inside
    /// this window save more than the step costs.
    pub horizon_ms: f64,
    /// Device budget of one incremental step, ms — bounds how long
    /// queries wait behind a step on a single-device store.
    pub step_budget_ms: f64,
    /// Fraction of one component's bytes a typical fractured query
    /// streams through — ≈ 1 / (distinct clustered values), since a PTQ
    /// reads one value's clustered run per component. Sizes the seek
    /// term of [`component_overhead_ms`](Self::component_overhead_ms).
    pub mean_run_fraction: f64,
    /// Prefetch batch the buffer pool issues for a hinted run, bytes.
    /// Every batch boundary of a secondary component's stream is a
    /// discontiguous head move during the k-way merge, which is what
    /// makes a *large* fracture cost queries real device time even
    /// though its bytes would be read either way.
    pub interleave_window_bytes: f64,
}

impl Default for MaintenancePolicy {
    fn default() -> MaintenancePolicy {
        MaintenancePolicy {
            // One sustained device-minute of traffic: long enough that
            // steady query streams trigger maintenance, short enough
            // that a burst of flushes on an idle table stays cheap.
            horizon_ms: 60_000.0,
            // A step may cost up to two seconds of device time — a few
            // fractures' worth on the Table-6 device.
            step_budget_ms: 2_000.0,
            // A query reads ~a tenth of each component's clustered
            // bytes: right for tables with ~10 well-populated values,
            // conservative for more selective ones.
            mean_run_fraction: 0.1,
            // 64 pages × 8 KiB: the pool's hinted-run prefetch batch.
            interleave_window_bytes: (64 * 8192) as f64,
        }
    }
}

/// A policy decision: the step worth running, with the profitability
/// terms that justified it (for traces and tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceDecision {
    /// The selected step and its priced cost.
    pub plan: CompactionPlan,
    /// Estimated per-query savings once the step commits, ms.
    pub savings_per_query_ms: f64,
    /// Savings over the policy horizon at the observed rate, ms.
    pub horizon_savings_ms: f64,
}

impl MaintenancePolicy {
    /// Recurring per-query overhead of one *extra* component of `bytes`
    /// in the chain (beyond the main UPI, whose stream is the
    /// baseline): the tree descent, plus two discontiguous head moves —
    /// away from the other streams and back — per prefetch batch of the
    /// run this component contributes to the k-way merge.
    ///
    /// `Cost_init` is deliberately absent: across the sustained query
    /// stream the horizon multiplies this by, the pool keeps component
    /// files open and the open cost amortizes to noise. The planner's
    /// `Cost_init + H·T_descend` is the right price for one cold query,
    /// but a maintenance policy that values eliminations at the cold
    /// price over-buys small compactions (opens look expensive) and
    /// under-buys folds (a large fracture's seek tax looks free).
    pub fn component_overhead_ms(&self, coeffs: &DeviceCoeffs, descend_ms: f64, bytes: u64) -> f64 {
        let windows = (bytes as f64 * self.mean_run_fraction / self.interleave_window_bytes).ceil();
        descend_ms + 2.0 * coeffs.t_seek_ms * windows
    }

    /// Per-fractured-query savings of executing `step`: the overhead of
    /// every component the step removes from the chain. A prefix fold
    /// erases its fractures outright (their bytes join main's baseline
    /// stream); a run compaction trades its members' overheads for the
    /// merged survivor's — mostly the descents, since the merged run's
    /// seek windows nearly sum.
    pub fn step_savings_ms(
        &self,
        component_bytes: &[u64],
        step: CompactionStep,
        coeffs: &DeviceCoeffs,
        descend_ms: f64,
    ) -> f64 {
        let overhead = |bytes: u64| self.component_overhead_ms(coeffs, descend_ms, bytes);
        match step {
            CompactionStep::FoldPrefix { fractures } => component_bytes[1..=fractures]
                .iter()
                .map(|&b| overhead(b))
                .sum(),
            CompactionStep::CompactRun { first, last } => {
                let run = &component_bytes[first + 1..=last + 1];
                run.iter().map(|&b| overhead(b)).sum::<f64>() - overhead(run.iter().sum::<u64>())
            }
        }
    }

    /// Decide whether one maintenance step should run now.
    ///
    /// * `component_bytes` — per-component sizes (main first), as for
    ///   [`select_compaction`].
    /// * `descend_ms` — the calibrated per-component recurring descent
    ///   cost `H·T_descend` (take it from the session's scaled cost
    ///   model, not the raw device constants).
    /// * `observed_qps` — queries per second of *device time* from the
    ///   session metrics (queries / device-seconds spent on queries).
    /// * `fractured_query_fraction` — the share of those queries that
    ///   touch the fractured structure (and so pay the per-component
    ///   overheads): 1.0 when every query is a PTQ over the table, lower
    ///   for mixed sessions.
    ///
    /// Among the candidates that are affordable (`cost ≤ step budget`)
    /// and profitable (`savings_per_query × observed_qps × horizon >
    /// cost`, savings from [`step_savings_ms`](Self::step_savings_ms)),
    /// returns the one saving queries the most, ties broken by cheapest
    /// cost. Profitability is judged *per candidate*, so light traffic
    /// that cannot pay for a full fold can still pay for compacting two
    /// small fractures — and because a fold's savings grow with the
    /// folded fractures' mass while its cost is dominated by main's
    /// rewrite, steady traffic makes the fold profitable only once
    /// enough fractures have accumulated, yielding the periodic
    /// amortized fold cadence. `None` means: not worth it yet (too few
    /// components, no traffic, or every affordable step costs more than
    /// its horizon savings).
    pub fn decide(
        &self,
        component_bytes: &[u64],
        coeffs: &DeviceCoeffs,
        descend_ms: f64,
        observed_qps: f64,
        fractured_query_fraction: f64,
    ) -> Option<MaintenanceDecision> {
        let mut best: Option<MaintenanceDecision> = None;
        for_each_candidate(component_bytes, coeffs, |plan| {
            if plan.est_cost_ms > self.step_budget_ms {
                return;
            }
            let savings_per_query_ms = fractured_query_fraction
                * self.step_savings_ms(component_bytes, plan.step, coeffs, descend_ms);
            let horizon_savings_ms =
                savings_per_query_ms * observed_qps * self.horizon_ms / 1_000.0;
            if horizon_savings_ms <= plan.est_cost_ms {
                return;
            }
            let better = match &best {
                None => true,
                Some(b) => {
                    savings_per_query_ms > b.savings_per_query_ms
                        || (savings_per_query_ms == b.savings_per_query_ms
                            && plan.est_cost_ms < b.plan.est_cost_ms)
                }
            };
            if better {
                best = Some(MaintenanceDecision {
                    plan,
                    savings_per_query_ms,
                    horizon_savings_ms,
                });
            }
        });
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coeffs() -> DeviceCoeffs {
        // Table 6's device: 20 ms/MiB read, 50 ms/MiB write.
        DeviceCoeffs {
            t_seek_ms: 10.0,
            seek_floor_ms: 4.0,
            t_descend_ms: 4.0,
            t_read_ms_per_mb: 20.0,
            t_write_ms_per_mb: 50.0,
            cost_init_ms: 100.0,
            stroke_bytes: (100 << 20) as f64,
        }
    }

    const MIB: u64 = 1 << 20;

    #[test]
    fn no_step_on_short_chains_or_tiny_budgets() {
        let c = coeffs();
        assert!(select_compaction(&[], &c, 1e9).is_none());
        assert!(select_compaction(&[10 * MIB], &c, 1e9).is_none());
        // 70 ms/MiB merged: a 1 ms budget affords nothing.
        assert!(select_compaction(&[MIB, MIB], &c, 1.0).is_none());
    }

    #[test]
    fn unbounded_budget_folds_everything_into_main() {
        let c = coeffs();
        let plan = select_compaction(&[64 * MIB, 4 * MIB, 2 * MIB, MIB], &c, f64::INFINITY)
            .expect("a 4-component chain has candidates");
        assert_eq!(plan.step, CompactionStep::FoldPrefix { fractures: 3 });
        assert_eq!(plan.step.eliminated(), 3);
        assert!((plan.est_cost_ms - 71.0 * 70.0).abs() < 1e-6);
    }

    #[test]
    fn tight_budgets_compact_the_smallest_fractures_first() {
        let c = coeffs();
        // Folding main (64 MiB) is out of budget; the three small
        // fractures are in. The cheapest 2-elimination run wins over any
        // 1-elimination pair — and over runs touching the 8 MiB fracture.
        let sizes = [64 * MIB, 8 * MIB, 2 * MIB, MIB, MIB];
        let plan = select_compaction(&sizes, &c, 70.0 * 5.0).unwrap();
        assert_eq!(plan.step, CompactionStep::CompactRun { first: 1, last: 3 });
        assert_eq!(plan.step.eliminated(), 2);
        assert!((plan.est_cost_ms - 4.0 * 70.0).abs() < 1e-6);
    }

    #[test]
    fn elimination_count_beats_cost() {
        let c = coeffs();
        // A 3-fracture run (2 eliminated, 12 MiB) must beat the cheaper
        // 2-fracture run (1 eliminated, 2 MiB).
        let sizes = [64 * MIB, MIB, MIB, 10 * MIB];
        let plan = select_compaction(&sizes, &c, 70.0 * 12.5).unwrap();
        assert_eq!(plan.step, CompactionStep::CompactRun { first: 0, last: 2 });
    }

    /// Per-component overhead with [`coeffs`], `descend_ms = 8`, and the
    /// default policy shape: a 1 MiB fracture streams one prefetch
    /// window per query (8 + 2·10·1 = 28 ms), an 8 MiB fracture two
    /// (8 + 2·10·2 = 48 ms).
    const DESCEND: f64 = 8.0;

    #[test]
    fn folds_wait_for_fracture_mass_then_fold_the_whole_prefix() {
        let c = coeffs();
        let pol = MaintenancePolicy {
            step_budget_ms: 10_000.0,
            ..MaintenancePolicy::default()
        };
        // Idle: nothing ever pays.
        assert!(pol
            .decide(&[64 * MIB, MIB], &c, DESCEND, 0.0, 1.0)
            .is_none());
        // One fresh fracture saves 28 ms/query; at 2 qps over 60 s that
        // is 3360 ms — less than the 4550 ms fold of main. Deferred.
        assert!(pol
            .decide(&[64 * MIB, MIB], &c, DESCEND, 2.0, 1.0)
            .is_none());
        // A second fracture doubles the savings (6720 ms) past the
        // 4620 ms fold cost: the policy folds the whole prefix at once,
        // ranking it above the profitable-but-smaller run compaction.
        let d = pol
            .decide(&[64 * MIB, MIB, MIB], &c, DESCEND, 2.0, 1.0)
            .expect("accumulated mass amortizes the fold");
        assert_eq!(d.plan.step, CompactionStep::FoldPrefix { fractures: 2 });
        assert!((d.savings_per_query_ms - 56.0).abs() < 1e-9);
        assert!(d.horizon_savings_ms > d.plan.est_cost_ms);
    }

    #[test]
    fn budget_starved_chains_still_compact_runs() {
        let c = coeffs();
        let pol = MaintenancePolicy::default();
        // Folding the 512 MiB main is far over the default 2 s budget;
        // the two small fractures still compact under steady traffic —
        // their merged run costs queries the same seek windows, so the
        // savings are just the eliminated descent (28 ms with the 1 MiB
        // windows cancelling).
        let sizes = [512 * MIB, MIB, MIB];
        let d = pol
            .decide(&sizes, &c, DESCEND, 1.0, 1.0)
            .expect("small-run step is affordable and profitable");
        assert_eq!(
            d.plan.step,
            CompactionStep::CompactRun { first: 0, last: 1 }
        );
        assert!(d.plan.est_cost_ms <= pol.step_budget_ms);
        // Too little traffic to pay even for that (84 ms < 140 ms).
        assert!(pol.decide(&sizes, &c, DESCEND, 0.05, 1.0).is_none());
    }

    #[test]
    fn deeper_folds_rank_above_shallow_ones() {
        let c = coeffs();
        let pol = MaintenancePolicy {
            step_budget_ms: 10_000.0,
            ..MaintenancePolicy::default()
        };
        // At heavy traffic every candidate is profitable; the full fold
        // saves the most per query (28 + 28 + 48 ms: the 8 MiB fracture
        // streams two seek windows) and wins.
        let d = pol
            .decide(&[64 * MIB, MIB, MIB, 8 * MIB], &c, DESCEND, 5.0, 1.0)
            .expect("heavy traffic");
        assert_eq!(d.plan.step, CompactionStep::FoldPrefix { fractures: 3 });
        assert!((d.savings_per_query_ms - 104.0).abs() < 1e-9);
    }
}
