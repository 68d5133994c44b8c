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
//! * [`MaintenancePolicy`] decides *whether* a step runs, by the
//!   rent-or-buy rule of online algorithms: a fracture costs every query
//!   that runs on the chain a rent — the priced descent `H·T_descend`
//!   plus its share of the `Cost_init` the query actually paid — and
//!   [`RentAccounts`] credits each fracture with what queries paid it. A
//!   step is bought once the rent paid for the fractures it merges
//!   covers its priced cost (and the cost fits the per-step budget).
//!   Maintenance therefore never spends more than queries already paid
//!   for the fractures it removes, and a table nobody queries never
//!   rewrites anything. Every term is a device price, never a forecast
//!   of future traffic.
//!
//! The *execution* of a step lives on
//! [`FracturedUpi::merge_step`](crate::fractured::FracturedUpi::merge_step);
//! both it and the policy share this module's candidate selection so the
//! planned step and the executed step can never disagree.
//!
//! [`merge`]: crate::fractured::FracturedUpi::merge

use upi_storage::FileId;

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

/// Rent-or-buy (§4.3's merge as an online purchase): a step is bought
/// once the rent queries already paid for its fractures covers its
/// price, and never above the per-step device budget.
#[derive(Debug, Clone, Copy)]
pub struct MaintenancePolicy {
    /// Device budget of one incremental step, ms — bounds how long
    /// queries wait behind a step on a single-device store.
    pub step_budget_ms: f64,
}

impl Default for MaintenancePolicy {
    fn default() -> MaintenancePolicy {
        MaintenancePolicy {
            // A step may cost up to two seconds of device time — a few
            // fractures' worth on the Table-6 device.
            step_budget_ms: 2_000.0,
        }
    }
}

impl MaintenancePolicy {
    /// The step to buy now, if any: among the candidates of
    /// [`select_compaction`] that fit the step budget and whose
    /// fractures' accrued rent ([`step_rent_ms`]) covers their priced
    /// cost, the one eliminating the most components, ties broken by
    /// cheapest cost. `fracture_rent_ms[i]` is fracture `i`'s account
    /// (see [`RentAccounts`]). `None` means no query has yet paid for
    /// any affordable step — an idle table never buys one.
    pub fn buy(
        &self,
        component_bytes: &[u64],
        fracture_rent_ms: &[f64],
        coeffs: &DeviceCoeffs,
    ) -> Option<CompactionPlan> {
        best_candidate(component_bytes, coeffs, |p| {
            p.est_cost_ms <= self.step_budget_ms
                && step_rent_ms(p.step, fracture_rent_ms) >= p.est_cost_ms
        })
    }
}

/// The rent paid for the fractures `step` merges: the sum of their
/// accounts (main has none — queries pay for main either way).
pub fn step_rent_ms(step: CompactionStep, fracture_rent_ms: &[f64]) -> f64 {
    let paid = match step {
        CompactionStep::FoldPrefix { fractures } => &fracture_rent_ms[..fractures],
        CompactionStep::CompactRun { first, last } => &fracture_rent_ms[first..=last],
    };
    paid.iter().sum()
}

/// Per-fracture rent accounts, keyed by each fracture's heap file id.
///
/// Every query on a fractured chain pays each fracture the same rent,
/// so one running total (the rent paid per fracture since the session
/// opened) is all the query path keeps; a fracture's account is that
/// total minus its value when the fracture's account opened. Accounts
/// are derived state: a recovered session starts them all at zero.
#[derive(Debug, Clone, Default)]
pub struct RentAccounts {
    /// `(heap file, running total when its account opened)`, in chain
    /// order (oldest fracture first).
    opened: Vec<(FileId, f64)>,
}

impl RentAccounts {
    /// Match the accounts to the live chain's fractures (heap file ids,
    /// oldest first) at running total `paid_ms`: a fracture seen for the
    /// first time — a flush, or a run compaction's survivor — opens at
    /// zero, and the accounts of fractures that left the chain are
    /// dropped. Steps keep the surviving fractures' order, so this is
    /// one pass and allocates only when a fracture is new.
    pub fn sync(&mut self, fractures: impl IntoIterator<Item = FileId>, paid_ms: f64) {
        let mut i = 0;
        for file in fractures {
            match self.opened[i..].iter().position(|&(f, _)| f == file) {
                Some(stale) => {
                    self.opened.drain(i..i + stale);
                }
                None => self.opened.insert(i, (file, paid_ms)),
            }
            i += 1;
        }
        self.opened.truncate(i);
    }

    /// Each account's balance at running total `paid_ms`, in chain order.
    pub fn balances(&self, paid_ms: f64) -> Vec<f64> {
        self.opened.iter().map(|&(_, at)| paid_ms - at).collect()
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

    #[test]
    fn a_fold_is_bought_on_the_first_tick_its_rent_covers() {
        let c = coeffs();
        let pol = MaintenancePolicy {
            step_budget_ms: 10_000.0,
        };
        let sizes = [64 * MIB, MIB];
        // 65 MiB read and rewritten: 4550 ms, exactly 50 ticks of 91 ms.
        let price = merge_slice_cost_ms(&c, 65 * MIB);
        assert_eq!(price, 4550.0);
        let mut accounts = RentAccounts::default();
        accounts.sync([FileId(7)], 0.0);
        let mut paid = 0.0;
        for tick in 1..=50 {
            paid += 91.0;
            let bought = pol.buy(&sizes, &accounts.balances(paid), &c);
            if tick < 50 {
                assert!(bought.is_none(), "tick {tick}: rent {paid} < {price}");
            } else {
                let plan = bought.expect("the 50th tick's rent covers the fold");
                assert_eq!(plan.step, CompactionStep::FoldPrefix { fractures: 1 });
                assert_eq!(plan.est_cost_ms, price);
            }
        }
    }

    #[test]
    fn no_rent_buys_nothing() {
        let c = coeffs();
        let pol = MaintenancePolicy {
            step_budget_ms: f64::INFINITY,
        };
        assert!(pol.buy(&[MIB, MIB, MIB], &[0.0, 0.0], &c).is_none());
        // A step's rent is its fractures' sum: just short of the run's
        // price buys nothing, the full price buys the run.
        let run = merge_slice_cost_ms(&c, 2 * MIB);
        assert!(pol
            .buy(&[64 * MIB, MIB, MIB], &[0.0, 0.99 * run], &c)
            .is_none());
        assert_eq!(
            pol.buy(&[64 * MIB, MIB, MIB], &[run / 2.0, run / 2.0], &c)
                .map(|p| p.step),
            Some(CompactionStep::CompactRun { first: 0, last: 1 })
        );
    }

    #[test]
    fn a_step_over_the_budget_is_never_bought() {
        let c = coeffs();
        let pol = MaintenancePolicy::default();
        let rich = [1e12, 1e12];
        // Folding the 512 MiB main is far over the 2 s budget however
        // much rent was paid; compacting the two small fractures is not.
        let sizes = [512 * MIB, MIB, MIB];
        let plan = pol.buy(&sizes, &rich, &c).expect("the run fits");
        assert_eq!(plan.step, CompactionStep::CompactRun { first: 0, last: 1 });
        assert!(plan.est_cost_ms <= pol.step_budget_ms);
        let tight = MaintenancePolicy {
            step_budget_ms: 100.0,
        };
        assert!(tight.buy(&sizes, &rich, &c).is_none());
    }

    #[test]
    fn a_run_compactions_survivor_opens_at_zero() {
        let mut accounts = RentAccounts::default();
        accounts.sync([FileId(10), FileId(11), FileId(12)], 0.0);
        assert_eq!(accounts.balances(500.0), [500.0, 500.0, 500.0]);
        let step = CompactionStep::CompactRun { first: 0, last: 1 };
        assert_eq!(step_rent_ms(step, &accounts.balances(500.0)), 1000.0);
        // The run 10..=11 became file 13; a flush then appended 14.
        accounts.sync([FileId(13), FileId(12), FileId(14)], 500.0);
        assert_eq!(accounts.balances(600.0), [100.0, 600.0, 100.0]);
        // A fold of the two oldest drops both their accounts.
        accounts.sync([FileId(14)], 600.0);
        assert_eq!(accounts.balances(650.0), [150.0]);
        accounts.sync([], 650.0);
        assert!(accounts.balances(700.0).is_empty());
    }

    #[test]
    fn step_rent_sums_the_merged_fractures_only() {
        let rent = [1.0, 2.0, 4.0, 8.0];
        assert_eq!(
            step_rent_ms(CompactionStep::FoldPrefix { fractures: 2 }, &rent),
            3.0
        );
        assert_eq!(
            step_rent_ms(CompactionStep::CompactRun { first: 1, last: 3 }, &rent),
            14.0
        );
    }
}
