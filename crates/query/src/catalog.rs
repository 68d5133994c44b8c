//! The catalog: which access structures exist for planning.

use upi::{
    Chain, ContinuousSecondary, ContinuousUpi, DiscreteUpi, FracturedUpi, Pii, SecondaryUTree,
    UnclusteredHeap,
};
use upi_storage::{BufferPool, DiskConfig};

use crate::cost::CostModel;

/// Everything the planner may route a query through, with the disk
/// parameters it prices I/O against. All references borrow the caller's
/// live structures, so estimates always reflect current sizes and
/// statistics.
///
/// A catalog usually describes *one* table's physical design (e.g. an
/// unclustered heap + PII baseline next to a UPI over the same rows, as in
/// the paper's evaluation setups); the planner assumes every structure
/// indexes the same logical row set.
pub struct Catalog<'a> {
    /// Disk cost parameters (Table 6).
    pub disk: &'a DiskConfig,
    /// The pricing authority every candidate's `est_ms` comes from:
    /// device coefficients plus per-path-kind calibration scales.
    /// Defaults to the uncalibrated model over `disk`; a session that has
    /// refit from observed executions injects its calibrated copy via
    /// [`with_cost_model`](Self::with_cost_model).
    pub cost: CostModel,
    /// A discrete UPI (clustered heap + cutoff index + secondaries).
    pub upi: Option<&'a DiscreteUpi>,
    /// A fractured (LSM-maintained) UPI.
    pub fractured: Option<&'a FracturedUpi>,
    /// An unclustered heap (required by the PII and full-scan paths).
    pub heap: Option<&'a UnclusteredHeap>,
    /// PII baselines over the unclustered heap, any attributes.
    pub piis: Vec<&'a Pii>,
    /// A continuous UPI (R-Tree-clustered heap).
    pub cupi: Option<&'a ContinuousUpi>,
    /// PII-style segment indexes over the continuous UPI.
    pub cont_secondaries: Vec<&'a ContinuousSecondary>,
    /// A secondary U-Tree over the unclustered heap.
    pub utree: Option<&'a SecondaryUTree>,
    /// The buffer pool the structures read through. When registered, the
    /// executor attributes per-query hit/miss/read-ahead counters to each
    /// run (surfaced on `QueryOutput::io` and in
    /// `PhysicalPlan::explain_with_io`).
    pub pool: Option<&'a BufferPool>,
    /// The attribution id the executor should charge device time under.
    /// A session sets this so every execution's I/O lands on its own
    /// per-query slot; when absent the executor allocates a fresh id per
    /// execution.
    pub query_id: Option<upi_storage::QueryId>,
}

impl<'a> Catalog<'a> {
    /// Empty catalog over the given disk parameters, priced with the
    /// uncalibrated cost model.
    pub fn new(disk: &'a DiskConfig) -> Catalog<'a> {
        Catalog {
            disk,
            cost: CostModel::from_disk(disk),
            upi: None,
            fractured: None,
            heap: None,
            piis: Vec::new(),
            cupi: None,
            cont_secondaries: Vec::new(),
            utree: None,
            pool: None,
            query_id: None,
        }
    }

    /// Register a discrete UPI.
    ///
    /// Single-slot: registering a second discrete UPI is a caller bug —
    /// the first would be silently shadowed, so debug builds assert (all
    /// `with_*` single-slot builders behave the same; release builds keep
    /// the documented last-wins for robustness).
    pub fn with_upi(mut self, upi: &'a DiscreteUpi) -> Catalog<'a> {
        debug_assert!(
            self.upi.is_none(),
            "catalog already has a discrete UPI registered"
        );
        self.upi = Some(upi);
        self
    }

    /// Register a fractured UPI (single-slot, see
    /// [`with_upi`](Self::with_upi)).
    pub fn with_fractured(mut self, f: &'a FracturedUpi) -> Catalog<'a> {
        debug_assert!(
            self.fractured.is_none(),
            "catalog already has a fractured UPI registered"
        );
        self.fractured = Some(f);
        self
    }

    /// Register an unclustered heap (single-slot, see
    /// [`with_upi`](Self::with_upi)).
    pub fn with_heap(mut self, heap: &'a UnclusteredHeap) -> Catalog<'a> {
        debug_assert!(
            self.heap.is_none(),
            "catalog already has an unclustered heap registered"
        );
        self.heap = Some(heap);
        self
    }

    /// Register a PII over the unclustered heap (appends — any number of
    /// PIIs on distinct attributes may coexist).
    pub fn with_pii(mut self, pii: &'a Pii) -> Catalog<'a> {
        self.piis.push(pii);
        self
    }

    /// Register a continuous UPI (single-slot, see
    /// [`with_upi`](Self::with_upi)).
    pub fn with_cupi(mut self, cupi: &'a ContinuousUpi) -> Catalog<'a> {
        debug_assert!(
            self.cupi.is_none(),
            "catalog already has a continuous UPI registered"
        );
        self.cupi = Some(cupi);
        self
    }

    /// Register a segment index over the continuous UPI (appends).
    pub fn with_cont_secondary(mut self, s: &'a ContinuousSecondary) -> Catalog<'a> {
        self.cont_secondaries.push(s);
        self
    }

    /// Register a secondary U-Tree over the unclustered heap
    /// (single-slot, see [`with_upi`](Self::with_upi)).
    pub fn with_utree(mut self, utree: &'a SecondaryUTree) -> Catalog<'a> {
        debug_assert!(
            self.utree.is_none(),
            "catalog already has a secondary U-Tree registered"
        );
        self.utree = Some(utree);
        self
    }

    /// Replace the pricing model (e.g. with a session's calibrated copy).
    /// Unlike the structure slots this is a plain overwrite — the catalog
    /// always starts with the uncalibrated default.
    pub fn with_cost_model(mut self, model: CostModel) -> Catalog<'a> {
        self.cost = model;
        self
    }

    /// Register the buffer pool for per-query I/O attribution and run
    /// detection (single-slot, see [`with_upi`](Self::with_upi)).
    pub fn with_pool(mut self, pool: &'a BufferPool) -> Catalog<'a> {
        debug_assert!(
            self.pool.is_none(),
            "catalog already has a buffer pool registered"
        );
        self.pool = Some(pool);
        self
    }

    /// Pin the attribution id queries through this catalog are charged
    /// under (plain overwrite — a session re-pins per query).
    pub fn with_query_id(mut self, qid: upi_storage::QueryId) -> Catalog<'a> {
        self.query_id = Some(qid);
        self
    }

    /// The clustered chain a path with this `fractured` flag reads: the
    /// fractured UPI's, or the discrete UPI's chain of one.
    pub fn chain(&self, fractured: bool) -> Option<Chain<'a>> {
        if fractured {
            self.fractured.map(FracturedUpi::chain)
        } else {
            self.upi.map(DiscreteUpi::chain)
        }
    }

    /// Every registered clustered chain: the discrete UPI's, then the
    /// fractured UPI's.
    pub fn chains(&self) -> impl Iterator<Item = Chain<'a>> {
        self.chain(false).into_iter().chain(self.chain(true))
    }
}
