//! The session layer: a planner-first facade over an `UncertainTable`.
//!
//! [`UncertainDb`] owns an [`upi::UncertainTable`] and is the **only**
//! query entry point over it. Every query — the classic
//! [`ptq`](UncertainDb::ptq) / [`ptq_range`](UncertainDb::ptq_range) /
//! [`ptq_secondary`](UncertainDb::ptq_secondary) /
//! [`top_k`](UncertainDb::top_k) shapes as much as an arbitrary
//! [`PtqQuery`] — is planned against a [`Catalog`] the session builds
//! from the table's live structures, priced with the §6 cost models, and
//! executed as a streaming [`PhysicalPlan`]. There is no direct-index
//! fallback: the table type itself no longer exposes query methods.
//!
//! Owning the table solves the `Catalog<'a>` borrow-builder awkwardness:
//! callers never juggle per-structure references — the internal
//! registration step ([`catalog`](UncertainDb::catalog)) borrows the
//! right structures for the table's layout (including the shared buffer
//! pool, so per-query I/O counters and run-sized read-ahead are wired up by
//! construction) and hands back a ready catalog whose borrows are
//! tied to `&self`.

use parking_lot::Mutex;
use upi::cost::DeviceCoeffs;
use upi::{
    step_rent_ms, CompactionStep, MaintenancePolicy, PtqResult, RecoveryInfo, RentAccounts,
    TableLayout, UncertainTable,
};
use upi_storage::error::Result as StorageResult;
use upi_storage::{IoStats, Lsn, Store};
use upi_uncertain::{Field, Schema, Tuple, TupleId};

use crate::catalog::Catalog;
use crate::cost::{CalibrationStore, CostModel, PathKind, RefitOutcome, N_PATH_KINDS};
use crate::error::{PlanError, QueryError};
use crate::exec::QueryOutput;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::obs::{QueryTrace, TraceSpan};
use crate::plan::PhysicalPlan;
use crate::query::PtqQuery;
use upi_storage::QueryId;

/// A planner-first session over one uncertain table.
///
/// # Example
///
/// The paper's running example (Tables 1–3), loaded into a UPI-clustered
/// table and queried through the planner:
///
/// ```
/// use std::sync::Arc;
/// use upi::{TableLayout, UpiConfig};
/// use upi_query::{PtqQuery, UncertainDb};
/// use upi_storage::{DiskConfig, SimDisk, Store};
/// use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema};
///
/// let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 1 << 20);
/// let schema = Schema::new(vec![
///     ("name", FieldKind::Str),
///     ("institution", FieldKind::Discrete),
/// ]);
/// let mut db = UncertainDb::create(
///     store,
///     "authors",
///     schema,
///     1, // cluster on Institution
///     TableLayout::Upi(UpiConfig { cutoff: 0.10, ..UpiConfig::default() }),
/// )
/// .unwrap();
///
/// const MIT: u64 = 1;
/// db.insert(0.9, vec![
///     Field::Certain(Datum::Str("Alice".into())),
///     Field::Discrete(DiscretePmf::new(vec![(0, 0.8), (MIT, 0.2)])),
/// ])
/// .unwrap();
/// db.insert(1.0, vec![
///     Field::Certain(Datum::Str("Bob".into())),
///     Field::Discrete(DiscretePmf::new(vec![(MIT, 0.95), (2, 0.05)])),
/// ])
/// .unwrap();
///
/// // Query 1: WHERE Institution = MIT (confidence >= 0.5) — planned,
/// // then executed as a streaming physical plan.
/// let rows = db.ptq(MIT, 0.5).unwrap();
/// assert_eq!(rows.len(), 1); // Bob at 95%
///
/// // The same query as an explicit PtqQuery, with the plan surfaced.
/// let q = PtqQuery::eq(1, MIT).with_qt(0.5);
/// let plan = db.plan(&q).unwrap();
/// assert!(plan.explain().contains("chosen:"));
/// assert_eq!(db.query(&q).unwrap().rows.len(), 1);
/// ```
pub struct UncertainDb {
    table: UncertainTable,
    /// The self-calibrating pricing state: the cost model the catalog is
    /// stamped with on every [`catalog`](Self::catalog) call, plus the
    /// observed `(estimated, measured)` samples every executed query
    /// feeds ([`recalibrate`](Self::recalibrate) refits from them).
    calibration: Mutex<CalibrationState>,
    /// Session metrics: per-path-kind query counts and latency
    /// histograms, pool traffic totals, calibration gauges. Snapshot via
    /// [`metrics`](Self::metrics).
    metrics: Mutex<MetricsRegistry>,
    /// Background-maintenance scheduler state: the policy plus the rent
    /// accounts [`maintenance_tick`](Self::maintenance_tick) buys steps
    /// with.
    maintenance: Mutex<MaintenanceState>,
}

struct CalibrationState {
    model: CostModel,
    store: CalibrationStore,
}

struct MaintenanceState {
    policy: MaintenancePolicy,
    /// What queries paid each live fracture, kept against the metrics
    /// registry's running rent total. Derived state: never checkpointed.
    accounts: RentAccounts,
}

/// What one committed [`maintenance_tick`](UncertainDb::maintenance_tick)
/// did: the step's size, its attributed device time, the rent that
/// bought it, and a renderable trace.
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// Components (main and/or fractures) the step merged into one.
    pub components: u64,
    /// Fracture-chain components eliminated (`components - 1`).
    pub eliminated: u64,
    /// Device ms attributed to the step (plan + execute).
    pub device_ms: f64,
    /// The rent queries had paid for the merged fractures, ms — at least
    /// the step's priced cost.
    pub rent_ms: f64,
    /// The tick's span tree (path `"Maintenance"`), renderable like any
    /// query trace.
    pub trace: QueryTrace,
}

/// Aggregate of one [`maintain`](UncertainDb::maintain) drain: every
/// committed step plus the checkpoint that sealed them (durable tables).
#[derive(Debug, Clone, Default)]
pub struct MaintenanceSummary {
    /// Committed incremental steps.
    pub steps: u64,
    /// Total components compacted across those steps.
    pub components_compacted: u64,
    /// Total attributed maintenance device ms.
    pub device_ms: f64,
    /// LSN of the sealing checkpoint, when the table is durable and at
    /// least one step ran (the checkpoint also rotates the WAL to a
    /// fresh generation and retires the covered one).
    pub checkpoint: Option<Lsn>,
}

/// Serialize the session's calibration (per-kind scales plus the sample
/// rings) into the opaque checkpoint payload. Layout (version 2): `[2u8]`,
/// per-kind `(scale f64, samples u64)`, `u32` calibration-store length,
/// store bytes. Planner statistics are not part of it: they are derived
/// from the records, and recovery rebuilds them.
fn calibration_payload(state: &CalibrationState) -> Vec<u8> {
    let mut out = vec![2u8];
    for (scale, samples) in state.model.export_scales() {
        out.extend_from_slice(&scale.to_le_bytes());
        out.extend_from_slice(&(samples as u64).to_le_bytes());
    }
    let store = state.store.to_bytes();
    out.extend_from_slice(&(store.len() as u32).to_le_bytes());
    out.extend(store);
    out
}

/// Inverse of [`calibration_payload`]: restore the calibration. `false`
/// (state untouched) on any malformed payload — losing calibration is
/// degraded, never fatal. Version-1 payloads (no length prefix) are still
/// accepted, and so are version-2 payloads from builds that appended the
/// table's statistics after the store: anything past the store is
/// ignored.
fn restore_calibration(state: &mut CalibrationState, data: &[u8]) -> bool {
    let header = 1 + N_PATH_KINDS * 16;
    if data.len() < header || !matches!(data[0], 1 | 2) {
        return false;
    }
    // Fixed-width little-endian field at `off`; `None` past the end.
    fn array<const N: usize>(data: &[u8], off: usize) -> Option<[u8; N]> {
        data.get(off..off + N)?.try_into().ok()
    }
    let mut scales = [(1.0f64, 0usize); N_PATH_KINDS];
    for (i, sc) in scales.iter_mut().enumerate() {
        let off = 1 + i * 16;
        let (Some(scale), Some(samples)) = (array(data, off), array(data, off + 8)) else {
            return false;
        };
        sc.0 = f64::from_le_bytes(scale);
        sc.1 = u64::from_le_bytes(samples) as usize;
    }
    let store_bytes = if data[0] == 1 {
        &data[header..]
    } else {
        let Some(len) = array(data, header) else {
            return false;
        };
        let len = u32::from_le_bytes(len) as usize;
        match data[header + 4..].get(..len) {
            Some(store) => store,
            None => return false,
        }
    };
    let Some(store) = CalibrationStore::from_bytes(store_bytes) else {
        return false;
    };
    state.model.import_scales(&scales);
    state.store = store;
    true
}

impl UncertainDb {
    /// Create an empty session-owned table (see
    /// [`UncertainTable::create`] for the argument contract).
    pub fn create(
        store: Store,
        name: &str,
        schema: Schema,
        primary_attr: usize,
        layout: TableLayout,
    ) -> StorageResult<UncertainDb> {
        Ok(UncertainDb::from_table(UncertainTable::create(
            store,
            name,
            schema,
            primary_attr,
            layout,
        )?))
    }

    /// Adopt an existing table into a session.
    pub fn from_table(table: UncertainTable) -> UncertainDb {
        let model = CostModel::from_disk(table.store().disk.config());
        let mut db = UncertainDb {
            table,
            calibration: Mutex::new(CalibrationState {
                model,
                store: CalibrationStore::new(),
            }),
            metrics: Mutex::new(MetricsRegistry::new()),
            maintenance: Mutex::new(MaintenanceState {
                policy: MaintenancePolicy::default(),
                accounts: RentAccounts::default(),
            }),
        };
        db.sync_rent_accounts();
        db
    }

    /// The owned table (schema, statistics, structure accessors).
    pub fn table(&self) -> &UncertainTable {
        &self.table
    }

    // --- DML / maintenance passthrough ------------------------------------

    /// Attach a secondary index (before loading data); returns the `idx`
    /// for [`ptq_secondary`](Self::ptq_secondary).
    pub fn add_secondary(&mut self, attr: usize) -> StorageResult<usize> {
        self.table.add_secondary(attr)
    }

    /// Bulk-load tuples into the empty table.
    pub fn load(&mut self, tuples: &[Tuple]) -> StorageResult<()> {
        self.write(|t| t.load(tuples))
    }

    /// Insert a row, assigning the next tuple id.
    pub fn insert(&mut self, exist: f64, fields: Vec<Field>) -> StorageResult<TupleId> {
        self.write(|t| t.insert(exist, fields))
    }

    /// Insert a fully-formed tuple (caller manages ids).
    pub fn insert_tuple(&mut self, t: &Tuple) -> StorageResult<()> {
        self.write(|table| table.insert_tuple(t))
    }

    /// Delete a tuple.
    pub fn delete(&mut self, t: &Tuple) -> StorageResult<()> {
        self.write(|table| table.delete(t))
    }

    /// Flush buffered changes (fractured layout only; no-op otherwise).
    pub fn flush(&mut self) -> StorageResult<()> {
        self.write(|t| t.flush())
    }

    /// Merge fractures (fractured layout only; no-op otherwise).
    pub fn merge(&mut self) -> StorageResult<()> {
        self.write(|t| t.merge())
    }

    /// Execute one compaction step now, whatever the rent paid for it
    /// (see [`UncertainTable::apply_merge_step`]); returns the number of
    /// components eliminated.
    pub fn apply_merge_step(&mut self, step: CompactionStep) -> StorageResult<usize> {
        self.write(|t| t.apply_merge_step(step))
    }

    /// Replace `old` with `new` as one logical (singly-logged) operation.
    pub fn update(&mut self, old: &Tuple, new: &Tuple) -> StorageResult<()> {
        self.write(|table| table.update(old, new))
    }

    /// Run one write on the table, then match the rent accounts to the
    /// chain it left: a fracture it flushed starts earning rent at once,
    /// and one it merged away stops.
    fn write<T>(
        &mut self,
        op: impl FnOnce(&mut UncertainTable) -> StorageResult<T>,
    ) -> StorageResult<T> {
        let out = op(&mut self.table);
        self.sync_rent_accounts();
        out
    }

    /// Match the rent accounts to the live chain's fractures (see
    /// [`RentAccounts::sync`]).
    fn sync_rent_accounts(&mut self) {
        if let Some(f) = self.table.as_fractured() {
            let paid = self.metrics.get_mut().fracture_rent_ms();
            let files = f.chain().components().skip(1).map(|c| c.heap_file());
            self.maintenance.get_mut().accounts.sync(files, paid);
        }
    }

    /// The rent one query paid each fracture of the chain it ran on: the
    /// priced descent `H·T_descend` (the planner's own fixed term,
    /// unscaled) plus an even share of the `Cost_init` the query actually
    /// paid, so a warm query pays only the descent. Zero without
    /// fractures.
    fn fracture_rent_ms(&self, paid: &IoStats) -> f64 {
        let chain = self.table.chain();
        let components = chain.n_components();
        if components == 1 {
            return 0.0;
        }
        let coeffs = DeviceCoeffs::from_disk(self.table.store().disk.config());
        chain.main().heap_stats().height as f64 * coeffs.t_descend_ms
            + paid.init_ms / components as f64
    }

    // --- Background maintenance -------------------------------------------

    /// The scheduling policy [`maintenance_tick`](Self::maintenance_tick)
    /// applies.
    pub fn maintenance_policy(&self) -> MaintenancePolicy {
        self.maintenance.lock().policy
    }

    /// Replace the maintenance policy (the per-step budget).
    pub fn set_maintenance_policy(&self, policy: MaintenancePolicy) {
        self.maintenance.lock().policy = policy;
    }

    /// One maintenance tick: buy at most one incremental compaction step
    /// whose fractures' accrued rent covers its priced cost (see
    /// [`MaintenancePolicy::buy`]), and commit it through
    /// [`UncertainTable::apply_merge_step`]. Returns `None` when the
    /// layout is not fractured or no affordable step is paid for yet.
    ///
    /// The accounts are first matched to the live chain, so a chain
    /// changed outside the tick (a [`merge`](Self::merge), a replayed
    /// step, recovery) cannot misattribute rent; a compaction's survivor
    /// then starts at zero. The step's device time is attributed like a
    /// query's and recorded under the maintenance counters, with a
    /// renderable `"Maintenance"` trace.
    pub fn maintenance_tick(&mut self) -> StorageResult<Option<MaintenanceReport>> {
        self.sync_rent_accounts();
        let Some(f) = self.table.as_fractured() else {
            return Ok(None);
        };
        let component_bytes = f.component_bytes();
        let store = self.table.store().clone();
        let coeffs = DeviceCoeffs::from_disk(store.disk.config());
        let paid = self.metrics.get_mut().fracture_rent_ms();
        let st = self.maintenance.get_mut();
        let rent = st.accounts.balances(paid);
        let Some(plan) = st.policy.buy(&component_bytes, &rent, &coeffs) else {
            return Ok(None);
        };
        let rent_ms = step_rent_ms(plan.step, &rent);
        // Commit exactly the candidate the policy priced and bought.
        let qid = QueryId::next();
        let eliminated = {
            let _guard = store.pool.attributed(qid);
            self.write(|t| t.apply_merge_step(plan.step))?
        };
        let attributed = store.pool.take_attributed(qid);
        if eliminated == 0 {
            return Ok(None);
        }
        let device_ms = attributed.total_ms();
        let components = eliminated as u64 + 1;
        self.metrics
            .lock()
            .record_maintenance(components, device_ms);
        let trace = QueryTrace {
            query_id: qid.0,
            path: "Maintenance".into(),
            spans: vec![
                TraceSpan::label_only(
                    format!(
                        "MaintenanceTick rent={rent_ms:.1}ms components={}",
                        component_bytes.len()
                    ),
                    0,
                ),
                TraceSpan {
                    label: format!("MergeStep(components={components})"),
                    depth: 1,
                    device_ms: Some(device_ms),
                    est_ms: Some(plan.est_cost_ms),
                    start_ms: 0.0,
                    end_ms: device_ms,
                    ..TraceSpan::default()
                },
            ],
        };
        Ok(Some(MaintenanceReport {
            components,
            eliminated: eliminated as u64,
            device_ms,
            rent_ms,
            trace,
        }))
    }

    /// Drain paid-for maintenance: run
    /// [`maintenance_tick`](Self::maintenance_tick) until the policy declines, then seal the
    /// work with a checkpoint when the table is durable (which also
    /// rotates the WAL to a fresh generation and retires the old one).
    pub fn maintain(&mut self) -> StorageResult<MaintenanceSummary> {
        let mut summary = MaintenanceSummary::default();
        // The chain can only shrink, so this terminates; the cap is a
        // backstop.
        while summary.steps < 64 {
            let Some(report) = self.maintenance_tick()? else {
                break;
            };
            summary.steps += 1;
            summary.components_compacted += report.components;
            summary.device_ms += report.device_ms;
        }
        if summary.steps > 0 && self.table.is_durable() {
            summary.checkpoint = Some(self.checkpoint()?);
        }
        Ok(summary)
    }

    // --- Durability --------------------------------------------------------

    /// Attach a WAL to the table and write the initial checkpoint. The
    /// checkpoint's session payload carries this session's serialized
    /// cost-model calibration, so a reopened session prices plans with
    /// the scales it had already learned.
    pub fn enable_durability(&mut self) -> StorageResult<Lsn> {
        let payload = calibration_payload(&self.calibration.lock());
        self.table.enable_durability(&payload)
    }

    /// Checkpoint the table (live tuples + current calibration) and seal
    /// it in the WAL. Post-checkpoint recovery replays only later records.
    pub fn checkpoint(&mut self) -> StorageResult<Lsn> {
        let payload = calibration_payload(&self.calibration.lock());
        let lsn = self.table.checkpoint(&payload)?;
        self.metrics.lock().set_wal(self.table.wal_counters());
        Ok(lsn)
    }

    /// Force the WAL group-commit buffer durable (one fsync barrier).
    pub fn sync_wal(&mut self) -> StorageResult<Lsn> {
        self.table.sync_wal()
    }

    /// Rebuild a crashed session: recover the table from its durable
    /// WAL and checkpoint (see [`UncertainTable::recover`]) and restore
    /// the serialized calibration from the checkpoint payload, so the
    /// recovered planner prices plans with the scales it had learned.
    /// The planner statistics need no restoring: the rebuild derives them
    /// from the checkpoint's records and the replayed WAL, so they are a
    /// recount of the recovered components and cover every replayed row.
    pub fn recover(store: Store, name: &str) -> StorageResult<(UncertainDb, RecoveryInfo)> {
        let (table, info) = UncertainTable::recover(store, name)?;
        let db = UncertainDb::from_table(table);
        restore_calibration(&mut db.calibration.lock(), &info.extra);
        {
            let mut m = db.metrics.lock();
            m.record_recovery(info.faults_survived);
            m.set_wal(db.table.wal_counters());
        }
        Ok((db, info))
    }

    // --- Planning and execution -------------------------------------------

    /// The internal registration step: a [`Catalog`] over the table's
    /// live structures and its buffer pool. Estimates always reflect
    /// current sizes and statistics because the borrows are taken fresh
    /// per call. Exposed so callers can force paths or add side
    /// structures; the query methods below all go through it.
    pub fn catalog(&self) -> Catalog<'_> {
        let store = self.table.store();
        let c = Catalog::new(store.disk.config())
            .with_cost_model(self.calibration.lock().model)
            .with_pool(store.pool.as_ref());
        let chain = self.table.chain();
        match chain.fractured() {
            Some(f) => c.with_fractured(f),
            None => c.with_upi(chain.main()),
        }
    }

    /// Plan a query against the table's structures without executing it
    /// (inspect with [`PhysicalPlan::explain`]).
    pub fn plan(&self, q: &PtqQuery) -> Result<PhysicalPlan, PlanError> {
        q.plan(&self.catalog())
    }

    /// The shared plan-and-execute core: every query path below runs
    /// through here, under one **per-query attribution id**.
    ///
    /// The attribution guard is pushed before planning (which reads no
    /// page), so the slot holds exactly the execution's I/O; it is
    /// consumed afterwards, and its total is both the observed side of
    /// calibration and the query's `QueryOutput::device`. Concurrent
    /// queries on this session each observe only their own device time —
    /// the shared-store-clock cross-talk the old store-wide snapshot
    /// window suffered is gone.
    /// Warm-cache executions are still filtered out by the calibration
    /// store itself (see `CalibrationStore::record`).
    fn run_query(&self, q: &PtqQuery) -> Result<(QueryOutput, PhysicalPlan), QueryError> {
        let store = self.table.store();
        let qid = QueryId::next();
        let result = {
            let _guard = store.pool.attributed(qid);
            let catalog = self.catalog().with_query_id(qid);
            q.plan(&catalog)
                .map_err(QueryError::from)
                .and_then(|plan| plan.execute(&catalog).map(|out| (plan, out)))
        };
        // Consume the attribution slot whether or not execution succeeded.
        let attributed = store.pool.take_attributed(qid);
        let (plan, mut out) = result?;
        // The calibration window covers plan + execute, so the per-query
        // device view the session reports is the same quantity. One
        // store means one device: latency and device time coincide.
        out.device = Some(attributed);
        out.latency_ms = Some(attributed.total_ms());
        // Surface degraded (read-only) mode on the output so
        // `flush_warning` / `explain_analyze` can distinguish it from a
        // transient, retried fault.
        out.degraded = store.pool.degraded();
        let observed = attributed.total_ms();
        let cost = &plan.candidates[0].cost;
        self.calibration
            .lock()
            .store
            .record(cost.kind, cost.fixed_ms, cost.dominant_ms, observed);
        let rent = self.fracture_rent_ms(&attributed);
        let mut metrics = self.metrics.lock();
        metrics.record_query(
            cost.kind,
            plan.est_ms(),
            observed,
            out.len() as u64,
            out.io.as_ref(),
        );
        metrics.credit_fracture_rent(rent);
        drop(metrics);
        Ok((out, plan))
    }

    /// Plan and execute a query. `QueryOutput::io` carries the buffer-
    /// pool traffic this execution caused, `QueryOutput::device` the
    /// device time attributed to **this query alone** (the session
    /// always registers the pool and an attribution id), and the
    /// execution's `(estimated, observed)` pair is recorded as a
    /// calibration sample for [`recalibrate`](Self::recalibrate).
    pub fn query(&self, q: &PtqQuery) -> Result<QueryOutput, QueryError> {
        Ok(self.run_query(q)?.0)
    }

    /// The chosen plan's `explain()` rendering, without executing.
    pub fn explain(&self, q: &PtqQuery) -> Result<String, PlanError> {
        Ok(self.plan(q)?.explain())
    }

    /// EXPLAIN ANALYZE: plan, execute, and render the plan **with** the
    /// executed span tree — per-operator estimated-vs-observed rows,
    /// pages, and simulated device ms (flagged `!` beyond 2x), plus a
    /// warning line if eviction-flush errors occurred. Feeds calibration
    /// and session metrics like [`query`](Self::query).
    pub fn explain_analyze(&self, q: &PtqQuery) -> Result<(QueryOutput, String), QueryError> {
        let (out, plan) = self.run_query(q)?;
        let text = plan.render_analyze(&out);
        Ok((out, text))
    }

    // --- Cost-model calibration -------------------------------------------

    /// One bounded refit pass over the samples collected so far:
    /// per-path-kind least-squares on the dominant cost term (see
    /// [`crate::cost`] for the bounds). Subsequent [`plan`](Self::plan) /
    /// [`query`](Self::query) calls price with the updated coefficients.
    /// Returns what changed, one entry per kind that had enough samples.
    pub fn recalibrate(&self) -> Vec<RefitOutcome> {
        let outcomes = {
            let mut g = self.calibration.lock();
            let CalibrationState { model, store } = &mut *g;
            model.refit(&*store)
        };
        // Mirror the post-refit scales into the metrics registry so the
        // snapshot always reports current pricing.
        let model = self.cost_model();
        let mut scales = [1.0f64; N_PATH_KINDS];
        for k in PathKind::ALL {
            scales[k.index()] = model.scale(k);
        }
        let mut m = self.metrics.lock();
        if outcomes.is_empty() {
            m.set_scales(scales);
        } else {
            m.record_refit(scales);
        }
        outcomes
    }

    /// Snapshot the session metrics registry: query counts and device-ms
    /// latency quantiles per path kind, pool hit ratio, read-ahead
    /// efficiency, flush errors, refit count, misestimation quantiles.
    /// Cheap (copies counters); the registry keeps accumulating.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.metrics.lock();
        m.set_wal(self.table.wal_counters());
        m.snapshot()
    }

    /// The cost model currently pricing this session's plans.
    pub fn cost_model(&self) -> CostModel {
        self.calibration.lock().model
    }

    /// Replace the session's cost model (e.g. seed a deliberately
    /// mispriced one to test convergence, or restore a saved calibration).
    /// Collected samples are kept.
    pub fn set_cost_model(&self, model: CostModel) {
        self.calibration.lock().model = model;
    }

    /// Calibration samples collected so far for `kind`.
    pub fn calibration_samples(&self, kind: PathKind) -> usize {
        self.calibration.lock().store.len(kind)
    }

    /// Feed one externally driven execution into this session's
    /// calibration store and metrics registry. The sharded scatter-gather
    /// facade drives shard cursors itself (so [`run_query`](Self::query)
    /// never runs on the shard session), but each shard's plan was priced
    /// by *this* session's model — its observation belongs here, exactly
    /// as [`query`](Self::query) would have recorded it, rent included.
    pub(crate) fn note_external_execution(
        &self,
        cost: &crate::cost::PathCost,
        est_ms: f64,
        observed: &IoStats,
        rows: u64,
        io: Option<&upi_storage::PoolCounters>,
    ) {
        let observed_ms = observed.total_ms();
        self.calibration.lock().store.record(
            cost.kind,
            cost.fixed_ms,
            cost.dominant_ms,
            observed_ms,
        );
        let rent = self.fracture_rent_ms(observed);
        let mut metrics = self.metrics.lock();
        metrics.record_query(cost.kind, est_ms, observed_ms, rows, io);
        metrics.credit_fracture_rent(rent);
    }

    /// Record that a scatter-gather query skipped this shard outright:
    /// its table's confidence bound proved no row could qualify, so neither a
    /// plan nor a cursor was opened and no calibration sample exists.
    pub(crate) fn note_shard_skip(&self) {
        self.metrics.lock().record_shard_skip();
    }

    // --- The four classic PTQ entry points --------------------------------
    //
    // Each is sugar for a PtqQuery through plan() → execute(): the
    // planner chooses the access path (heap run vs. cutoff merge vs.
    // tailored secondary vs. PII vs. scan) from the §6 cost models, per
    // query, per layout.

    /// Point PTQ on the primary attribute:
    /// `WHERE primary = value (confidence ≥ qt)`.
    pub fn ptq(&self, value: u64, qt: f64) -> Result<Vec<PtqResult>, QueryError> {
        Ok(self
            .query(&PtqQuery::eq(self.table.primary_attr(), value).with_qt(qt))?
            .rows)
    }

    /// Range PTQ on the primary attribute (inclusive bounds).
    pub fn ptq_range(&self, lo: u64, hi: u64, qt: f64) -> Result<Vec<PtqResult>, QueryError> {
        Ok(self
            .query(&PtqQuery::range(self.table.primary_attr(), lo, hi).with_qt(qt))?
            .rows)
    }

    /// PTQ through secondary index `idx` (position returned by
    /// [`add_secondary`](Self::add_secondary)). The planner weighs
    /// tailored against plain secondary access — and against a scan —
    /// instead of hard-wiring one.
    pub fn ptq_secondary(
        &self,
        idx: usize,
        value: u64,
        qt: f64,
    ) -> Result<Vec<PtqResult>, QueryError> {
        let sec_attrs = self.table.sec_attrs();
        assert!(
            idx < sec_attrs.len(),
            "secondary index {idx} out of range ({} attached)",
            sec_attrs.len()
        );
        Ok(self
            .query(&PtqQuery::eq(sec_attrs[idx], value).with_qt(qt))?
            .rows)
    }

    /// Top-k most confident rows for a primary value (confidence-ordered
    /// streaming sources let the sink stop the I/O after k rows).
    pub fn top_k(&self, value: u64, k: usize) -> Result<Vec<PtqResult>, QueryError> {
        Ok(self
            .query(&PtqQuery::eq(self.table.primary_attr(), value).with_top_k(k))?
            .rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi::{FracturedConfig, UpiConfig};
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, DiscretePmf, FieldKind};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
    }

    fn schema() -> Schema {
        Schema::new(vec![
            ("name", FieldKind::Str),
            ("institution", FieldKind::Discrete),
            ("country", FieldKind::Discrete),
        ])
    }

    fn row(inst: u64, p: f64, country: u64) -> Vec<Field> {
        vec![
            Field::Certain(Datum::Str("x".into())),
            Field::Discrete(DiscretePmf::new(vec![
                (inst, p),
                (inst + 100, (1.0 - p) * 0.5),
            ])),
            Field::Discrete(DiscretePmf::new(vec![(country, 1.0)])),
        ]
    }

    /// A table over `layout` holding rows `0..120` (ids assigned in
    /// insert order), with a secondary on `country` unless fractured.
    fn db(layout: TableLayout) -> UncertainDb {
        let mut db = UncertainDb::create(store(), "t", schema(), 1, layout).unwrap();
        if db.table().as_fractured().is_none() {
            db.add_secondary(2).unwrap();
        }
        for i in 0..120u64 {
            db.insert(0.9, row(i % 5, 0.5 + (i % 4) as f64 * 0.1, i % 3))
                .unwrap();
        }
        db
    }

    #[test]
    fn catalog_registers_the_layouts_structures() {
        let upi = db(TableLayout::Upi(UpiConfig::default()));
        let c = upi.catalog();
        assert!(c.upi.is_some());
        assert!(c.heap.is_none() && c.piis.is_empty() && c.fractured.is_none());
        assert!(c.pool.is_some(), "session always registers the pool");

        let frac = db(TableLayout::FracturedUpi(FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        }));
        let c = frac.catalog();
        assert!(c.fractured.is_some());
        assert!(c.upi.is_none(), "fractured must register whole structure");
    }

    #[test]
    fn entry_points_run_via_physical_plans() {
        let d = db(TableLayout::Upi(UpiConfig::default()));
        // Each sugar method's result matches planning the equivalent
        // PtqQuery by hand.
        let rows = d.ptq(3, 0.2).unwrap();
        assert!(!rows.is_empty());
        let q = PtqQuery::eq(1, 3).with_qt(0.2);
        let planned = d.plan(&q).unwrap();
        assert!(planned.explain().contains("chosen:"));
        assert_eq!(d.query(&q).unwrap().rows.len(), rows.len());

        let top = d.top_k(3, 4).unwrap();
        assert_eq!(top.len(), 4);
        assert!(top.windows(2).all(|w| w[0].confidence >= w[1].confidence));
        assert_eq!(
            top.iter().map(|r| r.tuple.id.0).collect::<Vec<_>>(),
            rows.iter()
                .take(4)
                .map(|r| r.tuple.id.0)
                .collect::<Vec<_>>(),
            "top-k is the prefix of the full answer"
        );

        let sec = d.ptq_secondary(0, 1, 0.3).unwrap();
        assert!(!sec.is_empty());
        let range = d.ptq_range(1, 3, 0.2).unwrap();
        assert!(range.len() >= rows.len());

        // Executions report their pool traffic (the session wired it).
        let (out, text) = d.explain_analyze(&q).unwrap();
        assert!(out.io.is_some());
        assert!(text.contains("candidates:"));
    }

    #[test]
    fn all_layouts_answer_identically_through_the_planner() {
        let layouts = [
            db(TableLayout::Upi(UpiConfig::default())),
            db(TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 0,
            })),
        ];
        // The reference is the possible-worlds identity over the inserted
        // rows: `confidence = exist × P(value)`, summed over the range.
        let inserted: Vec<Tuple> = (0..120u64)
            .map(|i| {
                Tuple::new(
                    TupleId(i),
                    0.9,
                    row(i % 5, 0.5 + (i % 4) as f64 * 0.1, i % 3),
                )
            })
            .collect();
        let reference = |conf: &dyn Fn(&Tuple) -> f64, qt: f64| {
            let mut v: Vec<(u64, u64)> = inserted
                .iter()
                .filter(|t| conf(t) >= qt)
                .map(|t| (t.id.0, (conf(t) * 1e6).round() as u64))
                .collect();
            v.sort_unstable();
            v
        };
        let fingerprint = |rows: Vec<PtqResult>| {
            let mut v: Vec<(u64, u64)> = rows
                .iter()
                .map(|r| (r.tuple.id.0, (r.confidence * 1e6).round() as u64))
                .collect();
            v.sort_unstable();
            v
        };
        let point = reference(&|t| t.confidence_eq(1, 3), 0.2);
        assert!(!point.is_empty());
        let range = reference(&|t| (2..=4).map(|v| t.confidence_eq(1, v)).sum(), 0.3);
        assert!(!range.is_empty());
        for d in &layouts {
            assert_eq!(fingerprint(d.ptq(3, 0.2).unwrap()), point);
            assert_eq!(fingerprint(d.ptq_range(2, 4, 0.3).unwrap()), range);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_secondary_index_is_rejected() {
        let d = db(TableLayout::Upi(UpiConfig::default()));
        let _ = d.ptq_secondary(5, 1, 0.3);
    }

    /// A fractured `db` with three flushed fractures of 25 rows each.
    fn fractured_with_three_fractures() -> UncertainDb {
        let mut d = db(TableLayout::FracturedUpi(FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        }));
        for batch in 0..3u64 {
            for i in 0..25u64 {
                d.insert(0.9, row((batch * 25 + i) % 5, 0.7, i % 3))
                    .unwrap();
            }
            d.flush().unwrap();
        }
        d
    }

    #[test]
    fn maintenance_tick_compacts_under_traffic_and_declines_idle() {
        let mut d = fractured_with_three_fractures();
        let fractures = d.table().as_fractured().unwrap().n_fractures();
        assert!(fractures >= 3);

        // No traffic, no rent, no step.
        assert!(d.maintenance_tick().unwrap().is_none());
        assert_eq!(
            d.table().as_fractured().unwrap().n_fractures(),
            fractures,
            "a declined tick must not touch the chain"
        );

        // Cold queries pay the fractures' opens and descents: their rent
        // buys a step, and the drain converges the chain.
        d.table().store().go_cold();
        for _ in 0..20 {
            d.ptq(3, 0.2).unwrap();
        }
        d.set_maintenance_policy(MaintenancePolicy {
            step_budget_ms: f64::INFINITY,
        });
        let report = d.maintenance_tick().unwrap().expect("a paid-for step");
        assert!(report.components >= 2);
        assert!(report.device_ms > 0.0);
        assert!(report.rent_ms > 0.0);
        assert!(report.trace.render().contains("MergeStep"));

        let summary = d.maintain().unwrap();
        assert_eq!(
            d.table().as_fractured().unwrap().n_fractures(),
            0,
            "drain converges to a single component"
        );
        assert!(summary.checkpoint.is_none(), "not durable, no checkpoint");
        let m = d.metrics();
        assert!(m.merge_steps >= 1);
        assert!(m.components_compacted >= 2);
        assert!(m.maintenance_device_ms > 0.0);
        assert!(m.query_device_ms > 0.0);
        assert!(m.to_json().contains("\"merge_steps\""));
    }

    #[test]
    fn fractures_no_query_runs_on_are_never_folded() {
        let mut d = fractured_with_three_fractures();
        d.set_maintenance_policy(MaintenancePolicy {
            step_budget_ms: f64::INFINITY,
        });
        let fractures = d.table().as_fractured().unwrap().n_fractures();
        for _ in 0..1000 {
            assert!(d.maintenance_tick().unwrap().is_none());
        }
        assert_eq!(d.maintain().unwrap().steps, 0);
        assert_eq!(d.table().as_fractured().unwrap().n_fractures(), fractures);
    }

    /// Each fracture's balance, oldest first.
    fn balances(d: &UncertainDb) -> Vec<f64> {
        let paid = d.metrics.lock().fracture_rent_ms();
        d.maintenance.lock().accounts.balances(paid)
    }

    #[test]
    fn rent_accounts_follow_the_chain_across_merge_and_recovery() {
        let mut d = fractured_with_three_fractures();
        // Warm queries pay each fracture exactly the priced descent.
        d.ptq(3, 0.2).unwrap();
        let f = d.table().as_fractured().unwrap();
        let coeffs = DeviceCoeffs::from_disk(d.table().store().disk.config());
        let descend = f.main().heap_stats().height as f64 * coeffs.t_descend_ms;
        let before = balances(&d);
        d.ptq(3, 0.2).unwrap();
        let after = balances(&d);
        for (a, b) in after.iter().zip(&before) {
            assert!(
                (a - b - descend).abs() < 1e-9,
                "a warm query pays the descent only"
            );
        }
        assert_eq!(after.len(), 3);

        // A fracture flushed now opens at zero; the older ones keep theirs.
        d.insert(0.9, row(3, 0.7, 0)).unwrap();
        d.flush().unwrap();
        let grown = balances(&d);
        assert_eq!(grown[..3], after[..]);
        assert_eq!(grown[3], 0.0);

        // merge() folds every fracture: their accounts go with them, and
        // the next fracture starts from zero, not from a folded one's rent.
        d.merge().unwrap();
        assert!(balances(&d).is_empty());
        d.insert(0.9, row(3, 0.7, 0)).unwrap();
        d.flush().unwrap();
        assert_eq!(balances(&d), [0.0]);

        // A recovered session starts every account at zero.
        let store = store();
        let mut durable = UncertainDb::create(
            store.clone(),
            "r",
            schema(),
            1,
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 0,
            }),
        )
        .unwrap();
        durable.enable_durability().unwrap();
        for i in 0..30u64 {
            durable.insert(0.9, row(i % 5, 0.7, i % 3)).unwrap();
        }
        durable.flush().unwrap();
        durable.checkpoint().unwrap();
        for _ in 0..5 {
            durable.ptq(3, 0.2).unwrap();
        }
        assert!(balances(&durable)[0] > 0.0);
        drop(durable);
        store.reboot();
        let (recovered, _) = UncertainDb::recover(store, "r").unwrap();
        let fractures = recovered.table().as_fractured().unwrap().n_fractures();
        assert_eq!(balances(&recovered), vec![0.0; fractures]);
    }

    #[test]
    fn a_truncated_calibration_payload_is_refused_and_leaves_the_state() {
        let d = db(TableLayout::Upi(UpiConfig::default()));
        let payload = calibration_payload(&d.calibration.lock());
        let mut state = CalibrationState {
            model: CostModel::from_disk(&DiskConfig::default()),
            store: CalibrationStore::new(),
        };
        assert!(restore_calibration(&mut state, &payload));
        for len in [0, 1, 9, 1 + N_PATH_KINDS * 16, payload.len() - 1] {
            assert!(
                !restore_calibration(&mut state, &payload[..len]),
                "a {len}-byte prefix must be refused"
            );
        }
        // A length prefix past the end of the payload is refused too.
        let mut long = payload.clone();
        let at = 1 + N_PATH_KINDS * 16;
        long[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(!restore_calibration(&mut state, &long));
    }

    #[test]
    fn a_dangling_cutoff_pointer_is_a_typed_corruption_error() {
        // A slow-transfer disk and small pages, so the planner prefers the
        // cutoff merge to a full scan of a modest table.
        let disk = DiskConfig {
            read_ms_per_mb: 2000.0,
            ..DiskConfig::default()
        };
        let store = Store::new(Arc::new(SimDisk::new(disk)), 8 << 20);
        let cfg = UpiConfig {
            page_size: 1024,
            ..UpiConfig::default()
        };
        let mut d = UncertainDb::create(store, "t", schema(), 1, TableLayout::Upi(cfg)).unwrap();
        let tuples: Vec<Tuple> = (0..3000u64)
            .map(|i| Tuple::new(TupleId(i), 0.9, row(i % 5, 0.9, i % 3)))
            .collect();
        d.load(&tuples).unwrap();
        // Tuple 3000's second alternative (value 777, 4.5%) is its only
        // cutoff entry. A caller describing it without that alternative
        // deletes the heap copy but leaves the cutoff pointer dangling.
        let pmf = |alts| Field::Discrete(DiscretePmf::new(alts));
        let mut fields = row(3, 0.9, 0);
        fields[1] = pmf(vec![(3, 0.9), (777, 0.05)]);
        let victim = Tuple::new(TupleId(3000), 0.9, fields.clone());
        d.insert_tuple(&victim).unwrap();
        fields[1] = pmf(vec![(3, 0.9)]);
        d.delete(&Tuple::new(TupleId(3000), 0.9, fields)).unwrap();

        let q = PtqQuery::eq(1, 777).with_qt(0.01);
        assert_eq!(d.plan(&q).unwrap().path().label(), "UpiHeap+CutoffMerge");
        match d.query(&q) {
            Err(QueryError::Storage(upi_storage::StorageError::Corrupted(what))) => {
                assert!(what.contains("value 777, tuple 3000"), "{what}");
            }
            other => panic!("expected a wrapped Corrupted, got {other:?}"),
        }
    }

    #[test]
    fn maintenance_is_a_noop_on_unfractured_layouts() {
        let mut d = db(TableLayout::Upi(UpiConfig::default()));
        assert!(d.maintenance_tick().unwrap().is_none());
        let s = d.maintain().unwrap();
        assert_eq!(s.steps, 0);
    }
}
