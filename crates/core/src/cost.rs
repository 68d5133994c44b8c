//! Cost models (§6).
//!
//! Two formulas, verbatim from the paper:
//!
//! * **Fractured UPI** (§6.2):
//!   `Cost_frac = Cost_scan · Selectivity + N_frac (Cost_init + H·T_descend)`
//! * **Cutoff index** (§6.3):
//!   `Cost_cut = Cost_scan · Selectivity + 2(Cost_init + H·T_descend) + f(#Pointers)`
//!
//! The paper prices each of the `H` descent steps at a full `T_seek`;
//! we price them at the device's short-move cost instead (see
//! [`DeviceCoeffs::t_descend_ms`]) — a root-to-leaf walk moves between
//! nearby pages of one file, and charging the full stroke per level
//! overstates the fixed term enough to poison calibration on shallow
//! trees.
//!   where `f(x) = Cost_scan · (1 − e^{−kx}) / (1 + e^{−kx})` is a
//!   generalized logistic (sigmoid) capturing *saturation*: beyond a point,
//!   more cutoff pointers land on already-visited pages and the access
//!   pattern degenerates into a full scan. `k` is fixed by the paper's
//!   heuristic `f(0.05 · N_leaf) = 0.99 · Cost_scan`.
//!
//! Every formula is a free function over [`DeviceCoeffs`] plus a live
//! index: [`cutoff_query_cost_parts`] and [`fractured_cost_parts`] are the
//! two models split into the `(fixed, dominant)` halves the calibrating
//! planner (`upi_query`'s `CostModel`, the only type of that name) prices
//! through, and `Cost_merge` is
//! [`merge_slice_cost_ms`](crate::maintenance::merge_slice_cost_ms).
//! Selectivity and pointer counts come from the §6.1 probability
//! histograms ([`upi_uncertain::AttrStats`]).

use upi_storage::DiskConfig;

use crate::fractured::FracturedUpi;
use crate::upi::DiscreteUpi;

/// The device coefficients every cost formula is parameterized over —
/// Table 6's constants plus the two seek-curve extensions of
/// [`DiskConfig`] — as a plain value type the calibration layer can copy,
/// adjust, and feed back in, instead of formulas reading the disk
/// configuration directly.
///
/// Units are part of the contract:
///
/// | coefficient | unit | Table 6 name |
/// |---|---|---|
/// | `t_seek_ms` | ms per full random seek | `T_seek` |
/// | `seek_floor_ms` | ms, minimum discontiguous move | — (settle + rotation) |
/// | `t_descend_ms` | ms per tree level descended | — (see below) |
/// | `t_read_ms_per_mb` | ms per MiB sequentially read | `T_read` |
/// | `t_write_ms_per_mb` | ms per MiB sequentially written | `T_write` |
/// | `cost_init_ms` | ms per file open | `Cost_init` |
/// | `stroke_bytes` | bytes of head travel costing a full seek | — |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCoeffs {
    /// Full random seek cost, ms (`T_seek`).
    pub t_seek_ms: f64,
    /// Minimum cost of any discontiguous head move, ms (settle +
    /// rotational latency; the seek curve's floor).
    pub seek_floor_ms: f64,
    /// Cost per tree level descended, ms. The paper prices a descent at
    /// `T_seek`, but a root-to-leaf walk hops between *nearby* pages of
    /// one index file — the device charges those moves at the seek
    /// curve's floor, not the full stroke. Pricing descents at `T_seek`
    /// overstates the fixed term of shallow trees so badly that the
    /// warm-execution filter rejects real cold samples and the refit
    /// pins scales at the floor; this coefficient keeps the fixed term
    /// honest.
    pub t_descend_ms: f64,
    /// Sequential read rate, ms/MiB (`T_read`).
    pub t_read_ms_per_mb: f64,
    /// Sequential write rate, ms/MiB (`T_write`).
    pub t_write_ms_per_mb: f64,
    /// File open cost, ms (`Cost_init`).
    pub cost_init_ms: f64,
    /// Seek-distance normalization: a move of this many bytes (or more)
    /// costs the full `t_seek_ms`.
    pub stroke_bytes: f64,
}

impl DeviceCoeffs {
    /// Lift the simulated disk's configuration into coefficients.
    pub fn from_disk(disk: &DiskConfig) -> DeviceCoeffs {
        DeviceCoeffs {
            t_seek_ms: disk.seek_ms,
            seek_floor_ms: disk.seek_floor_ms,
            t_descend_ms: disk.seek_floor_ms,
            t_read_ms_per_mb: disk.read_ms_per_mb,
            t_write_ms_per_mb: disk.write_ms_per_mb,
            cost_init_ms: disk.init_ms,
            stroke_bytes: disk.stroke_bytes as f64,
        }
    }

    /// Milliseconds to sequentially read `bytes`.
    pub fn read_cost_ms(&self, bytes: f64) -> f64 {
        bytes * self.t_read_ms_per_mb / (1024.0 * 1024.0)
    }

    /// Milliseconds to sequentially write `bytes`.
    pub fn write_cost_ms(&self, bytes: f64) -> f64 {
        bytes * self.t_write_ms_per_mb / (1024.0 * 1024.0)
    }

    /// `Cost_init + H · T_descend`: open a file and descend its tree.
    /// Each level is priced at the calibrated descent coefficient
    /// ([`t_descend_ms`](Self::t_descend_ms)), not the full `T_seek`.
    pub fn open_descend_ms(&self, height: usize) -> f64 {
        self.cost_init_ms + height as f64 * self.t_descend_ms
    }
}

/// The saturation constant `k` of the pointer-fetch sigmoid, from the
/// paper's heuristic `f(0.05 · N_leaf) = 0.99 · Cost_scan`.
///
/// Solving `(1 − e^{−kx})/(1 + e^{−kx}) = 0.99` gives
/// `e^{−kx} = 0.01/1.99`, i.e. `k = ln(199) / x` at `x = 0.05·N_leaf`.
pub fn sigmoid_k(n_leaf: u64) -> f64 {
    (199.0f64).ln() / (0.05 * n_leaf.max(1) as f64)
}

/// `f(x)` (§6.3): the cost of dereferencing `n_pointers` cutoff pointers
/// into a heap of `table_bytes` over `n_leaf` leaf pages, saturating at a
/// full scan (`Cost_scan = T_read · S_table`).
pub fn pointer_fetch_ms(
    coeffs: &DeviceCoeffs,
    table_bytes: u64,
    n_leaf: u64,
    n_pointers: f64,
) -> f64 {
    if n_pointers <= 0.0 {
        return 0.0;
    }
    let k = sigmoid_k(n_leaf);
    let e = (-k * n_pointers).exp();
    coeffs.read_cost_ms(table_bytes as f64) * (1.0 - e) / (1.0 + e)
}

/// Estimated number of cutoff pointers a PTQ `(value, qt)` reads — the
/// "Estimated" series of Figure 11. Zero when `qt ≥ C`.
pub fn estimate_cutoff_pointers(upi: &DiscreteUpi, value: u64, qt: f64) -> f64 {
    let c = upi.config().cutoff;
    if qt >= c {
        return 0.0;
    }
    upi.attr_stats().est_cutoff_pointers(value, qt, c)
}

/// Estimated fraction of the heap file a PTQ `(value, qt)` scans:
/// alternatives at/above `max(qt, C)` plus the first alternatives in
/// `[qt, C)`, which Algorithm 1 keeps heap-resident.
pub fn estimate_heap_selectivity(upi: &DiscreteUpi, value: u64, qt: f64) -> f64 {
    let c = upi.config().cutoff;
    let heap_entries = upi.heap_stats().entries.max(1) as f64;
    let matching = upi.attr_stats().est_heap_count_ge(value, qt, c);
    (matching / heap_entries).min(1.0)
}

/// Average heap entries per leaf page, from live tree statistics — the
/// occupancy figure every run-length-to-pages conversion shares (also
/// used by the planner to bound a top-k hint window to k rows' leaves).
pub fn entries_per_leaf(upi: &DiscreteUpi) -> f64 {
    let hs = upi.heap_stats();
    (hs.entries as f64 / hs.leaf_pages.max(1) as f64).max(1.0)
}

/// Estimated length, in heap leaf pages, of the clustered run a point PTQ
/// `(value, qt)` scans — the §6.1 heap selectivity translated into pages
/// so the buffer pool's hinted read-ahead can size its window from it.
/// Always at least 1 (the run's first leaf is read regardless).
pub fn estimate_run_pages(upi: &DiscreteUpi, value: u64, qt: f64) -> usize {
    let matching = upi
        .attr_stats()
        .est_heap_count_ge(value, qt, upi.config().cutoff);
    let pages = (matching / entries_per_leaf(upi)).ceil() as usize;
    pages.clamp(1, upi.heap_stats().leaf_pages.max(1))
}

/// Estimated length, in heap leaf pages, of the clustered run a range PTQ
/// `[lo, hi]` scans. Alternatives sum under possible-world semantics, so
/// the run covers every entry whose value falls in the range regardless
/// of probability (see `DiscreteUpi::range_run`).
pub fn estimate_range_run_pages(upi: &DiscreteUpi, lo: u64, hi: u64) -> usize {
    let stats = upi.attr_stats();
    let frac = (stats.est_count_value_range(lo, hi) / stats.total().max(1) as f64).min(1.0);
    let leaf_pages = upi.heap_stats().leaf_pages.max(1);
    ((frac * leaf_pages as f64).ceil() as usize).clamp(1, leaf_pages)
}

/// The §6.3 cutoff-query cost split into its calibration halves:
/// `(fixed, dominant)` where fixed = file opens + tree descents (device
/// constants) and dominant = the data-dependent selectivity-scaled scan
/// plus the saturating pointer dereferences. The single source both the
/// calibrating planner (which rescales only the dominant half) and
/// [`estimate_query_cutoff_ms`] (their sum) derive from — so the two can
/// never drift apart.
pub fn cutoff_query_cost_parts(
    coeffs: &DeviceCoeffs,
    upi: &DiscreteUpi,
    value: u64,
    qt: f64,
) -> (f64, f64) {
    let heap = upi.heap_stats();
    let scan = coeffs.read_cost_ms(heap.bytes as f64) * estimate_heap_selectivity(upi, value, qt);
    let opens = coeffs.open_descend_ms(heap.height);
    if qt >= upi.config().cutoff {
        // Heap-only path: one file open + descent + sequential run.
        (opens, scan)
    } else {
        // `Cost_cut`: two opens (heap + cutoff index) + scan + f(x).
        let pointers = estimate_cutoff_pointers(upi, value, qt);
        (
            2.0 * opens,
            scan + pointer_fetch_ms(coeffs, heap.bytes, heap.leaf_pages as u64, pointers),
        )
    }
}

/// Estimated runtime of Query 1 on a standalone UPI with a cutoff index
/// (the "Estimated" curves of Figure 12) — the sum of
/// [`cutoff_query_cost_parts`].
pub fn estimate_query_cutoff_ms(disk: &DiskConfig, upi: &DiscreteUpi, value: u64, qt: f64) -> f64 {
    let (fixed, dominant) = cutoff_query_cost_parts(&DeviceCoeffs::from_disk(disk), upi, value, qt);
    fixed + dominant
}

/// The §6.2 fractured cost for a given selectivity, split into its
/// calibration halves: `(fixed, dominant)` where fixed = one open +
/// descent per component (`N_frac + 1`) and dominant = the
/// selectivity-scaled scan over all components' bytes (see
/// [`cutoff_query_cost_parts`] for why the split is shared).
pub fn fractured_cost_parts(
    coeffs: &DeviceCoeffs,
    f: &FracturedUpi,
    selectivity: f64,
) -> (f64, f64) {
    let components = (f.n_fractures() + 1) as f64;
    (
        components * coeffs.open_descend_ms(f.main().heap_stats().height),
        coeffs.read_cost_ms(f.total_bytes() as f64) * selectivity,
    )
}

/// Estimated runtime of Query 1 on a fractured UPI (the "Estimated" series
/// of Figure 10) — the sum of [`fractured_cost_parts`] at the point
/// query's heap selectivity.
pub fn estimate_query_fractured_ms(
    disk: &DiskConfig,
    f: &FracturedUpi,
    value: u64,
    qt: f64,
) -> f64 {
    let sel = estimate_heap_selectivity(f.main(), value, qt);
    let (fixed, dominant) = fractured_cost_parts(&DeviceCoeffs::from_disk(disk), f, sel);
    fixed + dominant
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractured::FracturedConfig;
    use crate::maintenance::merge_slice_cost_ms;
    use crate::upi::UpiConfig;
    use std::sync::Arc;
    use upi_storage::{SimDisk, Store};
    use upi_uncertain::{Datum, DiscretePmf, Field, Tuple, TupleId};

    /// Table 6's running configuration.
    fn coeffs() -> DeviceCoeffs {
        DeviceCoeffs {
            t_seek_ms: 10.0,
            seek_floor_ms: 4.0,
            t_descend_ms: 4.0,
            t_read_ms_per_mb: 20.0,
            t_write_ms_per_mb: 50.0,
            cost_init_ms: 100.0,
            stroke_bytes: (1u64 << 30) as f64,
        }
    }

    /// A 100 MiB table of 8 KiB leaves.
    const TABLE_BYTES: u64 = 100 << 20;
    const N_LEAF: u64 = TABLE_BYTES / 8192;

    fn fetch(x: f64) -> f64 {
        pointer_fetch_ms(&coeffs(), TABLE_BYTES, N_LEAF, x)
    }

    /// 500 authors in the main UPI plus `fractures` flushed batches of 50;
    /// every author has one alternative at 0.665 (value `id % 10`) and one
    /// below `C` (value `id % 10 + 50`).
    fn fractured(fractures: u64) -> FracturedUpi {
        let authors = |ids: std::ops::Range<u64>| -> Vec<Tuple> {
            ids.map(|i| {
                let pmf = DiscretePmf::new(vec![(i % 10, 0.7), (i % 10 + 50, 0.05)]);
                let name = Field::Certain(Datum::Str(format!("a{i}")));
                Tuple::new(TupleId(i), 0.95, vec![name, Field::Discrete(pmf)])
            })
            .collect()
        };
        let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20);
        let cfg = FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        };
        let mut f = FracturedUpi::create(store, "f", 1, &[], cfg).unwrap();
        f.load_initial(&authors(0..500)).unwrap();
        for round in 1..=fractures {
            for t in authors(round * 500..round * 500 + 50) {
                f.insert(t).unwrap();
            }
            f.flush().unwrap();
        }
        f
    }

    #[test]
    fn cost_scan_matches_table6_definition() {
        let scan = coeffs().read_cost_ms(TABLE_BYTES as f64);
        assert!((scan - 2000.0).abs() < 1e-9, "100MiB * 20ms/MiB");
    }

    #[test]
    fn sigmoid_k_satisfies_heuristic() {
        let f = fetch(0.05 * N_LEAF as f64);
        assert!((f - 0.99 * 2000.0).abs() < 1e-6, "f(0.05*Nleaf) = {f}");
    }

    #[test]
    fn pointer_fetch_saturates_at_cost_scan() {
        assert_eq!(fetch(0.0), 0.0);
        let huge = fetch(1e12);
        assert!(huge <= 2000.0 + 1e-9);
        assert!(huge > 0.999 * 2000.0);
    }

    #[test]
    fn pointer_fetch_is_monotone_nondecreasing() {
        let mut prev = 0.0;
        for x in (0..10_000).step_by(100) {
            let f = fetch(x as f64);
            assert!(f + 1e-12 >= prev);
            prev = f;
        }
    }

    #[test]
    fn pointer_fetch_is_initially_steep_then_flat() {
        // Near zero, each pointer costs roughly k/2 * Cost_scan (expensive
        // seeks); near saturation, marginal cost approaches zero.
        let early = fetch(200.0) - fetch(100.0);
        let late = fetch(5000.0) - fetch(4900.0);
        assert!(early > late * 2.0, "early {early} vs late {late}");
    }

    #[test]
    fn fractured_cost_is_linear_in_components() {
        let c = coeffs();
        let (one, five) = (fractured(0), fractured(4));
        let (fixed1, _) = fractured_cost_parts(&c, &one, 0.01);
        let (fixed5, dominant) = fractured_cost_parts(&c, &five, 0.01);
        let per = c.open_descend_ms(five.main().heap_stats().height);
        assert!(((fixed5 - fixed1) - 4.0 * per).abs() < 1e-9);
        let scan = c.read_cost_ms(five.total_bytes() as f64);
        assert!((dominant - scan * 0.01).abs() < 1e-9);
    }

    #[test]
    fn cutoff_cost_includes_two_opens() {
        let (c, f) = (coeffs(), fractured(0));
        let upi = f.main();
        let per = c.open_descend_ms(upi.heap_stats().height);
        // Value 999 matches nothing: the scan and pointer terms vanish.
        assert_eq!(
            cutoff_query_cost_parts(&c, upi, 999, 0.01),
            (2.0 * per, 0.0)
        );
        assert_eq!(cutoff_query_cost_parts(&c, upi, 999, 0.5), (per, 0.0));
        // Value 53 only occurs as a below-C second alternative: under C
        // the dominant half is its pointer dereferences.
        let (_, below) = cutoff_query_cost_parts(&c, upi, 53, 0.01);
        let (_, above) = cutoff_query_cost_parts(&c, upi, 53, 0.1);
        assert!(below > above, "{below} vs {above}");
    }

    #[test]
    fn descents_are_priced_below_full_seeks() {
        // The calibrated descent coefficient comes from the seek curve's
        // floor, so the fixed term of any tree walk undercuts the
        // paper's `H·T_seek` pricing — the §6 formulas must pick it up.
        let coeffs = DeviceCoeffs::from_disk(&DiskConfig::default());
        assert!(coeffs.t_descend_ms < coeffs.t_seek_ms);
        let h = 3;
        let walk = coeffs.open_descend_ms(h);
        let paper = coeffs.cost_init_ms + h as f64 * coeffs.t_seek_ms;
        assert!(walk < paper, "{walk} must undercut {paper}");
    }

    #[test]
    fn merge_cost_matches_formula() {
        // `Cost_merge = S_table (T_read + T_write)`; 1 GiB: 1024 * (20 + 50) ms.
        assert!((merge_slice_cost_ms(&coeffs(), 1 << 30) - 1024.0 * 70.0).abs() < 1e-6);
    }
}
