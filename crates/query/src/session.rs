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
use upi::{MaintenancePolicy, PtqResult, RecoveryInfo, TableLayout, UncertainTable};
use upi_storage::error::Result as StorageResult;
use upi_storage::{Lsn, Store};
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
    /// Background-maintenance scheduler state: the policy plus the
    /// observation window [`maintenance_tick`](Self::maintenance_tick)
    /// derives the query rate from.
    maintenance: Mutex<MaintenanceState>,
}

struct CalibrationState {
    model: CostModel,
    store: CalibrationStore,
}

struct MaintenanceState {
    policy: MaintenancePolicy,
    /// Simulated clock at the last rate observation.
    last_clock_ms: f64,
    /// Total session queries at the last rate observation.
    last_queries: u64,
}

/// What one committed [`maintenance_tick`](UncertainDb::maintenance_tick)
/// did: the step's size, its attributed device time, the traffic rate
/// that justified it, and a renderable trace.
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// Components (main and/or fractures) the step merged into one.
    pub components: u64,
    /// Fracture-chain components eliminated (`components - 1`).
    pub eliminated: u64,
    /// Device ms attributed to the step (plan + execute).
    pub device_ms: f64,
    /// Queries/second the profitability test used.
    pub observed_qps: f64,
    /// Estimated per-query savings the policy credited the step with.
    pub savings_per_query_ms: f64,
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
    let mut scales = [(1.0f64, 0usize); N_PATH_KINDS];
    for (i, sc) in scales.iter_mut().enumerate() {
        let off = 1 + i * 16;
        sc.0 = f64::from_le_bytes(data[off..off + 8].try_into().unwrap());
        sc.1 = u64::from_le_bytes(data[off + 8..off + 16].try_into().unwrap()) as usize;
    }
    let store_bytes = if data[0] == 1 {
        &data[header..]
    } else {
        let rest = &data[header..];
        if rest.len() < 4 {
            return false;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        match rest[4..].get(..len) {
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
        let clock = table.store().disk.clock_ms();
        UncertainDb {
            table,
            calibration: Mutex::new(CalibrationState {
                model,
                store: CalibrationStore::new(),
            }),
            metrics: Mutex::new(MetricsRegistry::new()),
            maintenance: Mutex::new(MaintenanceState {
                policy: MaintenancePolicy::default(),
                last_clock_ms: clock,
                last_queries: 0,
            }),
        }
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
        self.table.load(tuples)
    }

    /// Insert a row, assigning the next tuple id.
    pub fn insert(&mut self, exist: f64, fields: Vec<Field>) -> StorageResult<TupleId> {
        self.table.insert(exist, fields)
    }

    /// Insert a fully-formed tuple (caller manages ids).
    pub fn insert_tuple(&mut self, t: &Tuple) -> StorageResult<()> {
        self.table.insert_tuple(t)
    }

    /// Delete a tuple.
    pub fn delete(&mut self, t: &Tuple) -> StorageResult<()> {
        self.table.delete(t)
    }

    /// Flush buffered changes (fractured layout only; no-op otherwise).
    pub fn flush(&mut self) -> StorageResult<()> {
        self.table.flush()
    }

    /// Merge fractures (fractured layout only; no-op otherwise).
    pub fn merge(&mut self) -> StorageResult<()> {
        self.table.merge()
    }

    /// Replace `old` with `new` as one logical (singly-logged) operation.
    pub fn update(&mut self, old: &Tuple, new: &Tuple) -> StorageResult<()> {
        self.table.update(old, new)
    }

    // --- Background maintenance -------------------------------------------

    /// The scheduling policy [`maintenance_tick`](Self::maintenance_tick)
    /// applies.
    pub fn maintenance_policy(&self) -> MaintenancePolicy {
        self.maintenance.lock().policy
    }

    /// Replace the maintenance policy (horizon, per-step budget).
    pub fn set_maintenance_policy(&self, policy: MaintenancePolicy) {
        self.maintenance.lock().policy = policy;
    }

    /// One cost-driven maintenance tick: observe the session's query
    /// rate, ask the [`MaintenancePolicy`] whether an incremental
    /// compaction step pays for itself within the horizon, and commit at
    /// most one [`UncertainTable::apply_merge_step`]. Returns `None` when the
    /// layout is not fractured or no step is profitable right now.
    ///
    /// Every policy input comes from session state: component sizes from
    /// the live fracture chain, the per-component descend price through
    /// the **calibrated** `FracturedMerge` scale, the query rate from the
    /// metrics registry over the simulated clock, and the fractured-query
    /// fraction from the per-kind counters. The step's device time is
    /// attributed like a query's and recorded under the maintenance
    /// counters, with a renderable `"Maintenance"` trace.
    pub fn maintenance_tick(&mut self) -> StorageResult<Option<MaintenanceReport>> {
        let Some(f) = self.table.as_fractured() else {
            return Ok(None);
        };
        let component_bytes = f.component_bytes();
        let height = f.main().heap_stats().height;
        let store = self.table.store().clone();
        let coeffs = DeviceCoeffs::from_disk(store.disk.config());
        let clock = store.disk.clock_ms();
        let (total_queries, fractured_queries) = {
            let m = self.metrics.lock();
            (m.total_queries(), m.kind_queries(PathKind::FracturedMerge))
        };
        // Calibrated recurring per-component descent price (`H·T_descend`
        // through the session's FracturedMerge scale). The policy values
        // an eliminated component at this plus its interleave-seek tax —
        // not the full `Cost_init + H·T_descend` cold price, which
        // amortizes away across the sustained stream the horizon
        // multiplies (see `MaintenancePolicy::component_overhead_ms`).
        let model = self.cost_model();
        let descend_ms = model
            .price(
                PathKind::FracturedMerge,
                0.0,
                model.open_descend(height) - model.open_descend(0),
            )
            .est_ms();
        let (qps, decision) = {
            let mut st = self.maintenance.lock();
            let dq = total_queries.saturating_sub(st.last_queries);
            let dt = clock - st.last_clock_ms;
            // Windowed rate when the window saw traffic; lifetime average
            // otherwise (so a drain loop after a query burst keeps the
            // rate that justified it instead of reading an empty window).
            let qps = if dq > 0 && dt > 0.0 {
                st.last_queries = total_queries;
                st.last_clock_ms = clock;
                dq as f64 * 1_000.0 / dt
            } else if clock > 0.0 {
                total_queries as f64 * 1_000.0 / clock
            } else {
                0.0
            };
            let fractured_fraction = if total_queries > 0 {
                fractured_queries as f64 / total_queries as f64
            } else {
                1.0
            };
            let decision = st.policy.decide(
                &component_bytes,
                &coeffs,
                descend_ms,
                qps,
                fractured_fraction,
            );
            (qps, decision)
        };
        let Some(decision) = decision else {
            return Ok(None);
        };
        // Commit exactly the candidate the policy priced and approved.
        let qid = QueryId::next();
        let eliminated = {
            let _guard = store.pool.attributed(qid);
            self.table.apply_merge_step(decision.plan.step)?
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
                        "MaintenanceTick qps={qps:.2} components={}",
                        component_bytes.len()
                    ),
                    0,
                ),
                TraceSpan {
                    label: format!("MergeStep(components={components})"),
                    depth: 1,
                    device_ms: Some(device_ms),
                    est_ms: Some(decision.plan.est_cost_ms),
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
            observed_qps: qps,
            savings_per_query_ms: decision.savings_per_query_ms,
            trace,
        }))
    }

    /// Drain profitable maintenance: run
    /// [`maintenance_tick`](Self::maintenance_tick) until the policy declines, then seal the
    /// work with a checkpoint when the table is durable (which also
    /// rotates the WAL to a fresh generation and retires the old one).
    pub fn maintain(&mut self) -> StorageResult<MaintenanceSummary> {
        let mut summary = MaintenanceSummary::default();
        // The chain can only shrink, so this terminates; the cap is a
        // backstop against a pathological policy.
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
        self.metrics.lock().record_query(
            cost.kind,
            plan.est_ms(),
            observed,
            out.len() as u64,
            out.io.as_ref(),
        );
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
    /// as [`query`](Self::query) would have recorded it.
    pub(crate) fn note_external_execution(
        &self,
        cost: &crate::cost::PathCost,
        est_ms: f64,
        observed_ms: f64,
        rows: u64,
        io: Option<&upi_storage::PoolCounters>,
    ) {
        self.calibration.lock().store.record(
            cost.kind,
            cost.fixed_ms,
            cost.dominant_ms,
            observed_ms,
        );
        self.metrics
            .lock()
            .record_query(cost.kind, est_ms, observed_ms, rows, io);
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

    #[test]
    fn maintenance_tick_compacts_under_traffic_and_declines_idle() {
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
        let fractures = d.table().as_fractured().unwrap().n_fractures();
        assert!(fractures >= 3);

        // Zero horizon: no step can ever pay for itself.
        d.set_maintenance_policy(MaintenancePolicy {
            horizon_ms: 0.0,
            ..MaintenancePolicy::default()
        });
        assert!(d.maintenance_tick().unwrap().is_none());
        assert_eq!(
            d.table().as_fractured().unwrap().n_fractures(),
            fractures,
            "a declined tick must not touch the chain"
        );

        // Sustained queries + a generous horizon: the drain converges the
        // chain and the metrics registry records the attributed work.
        d.table().store().go_cold();
        for _ in 0..20 {
            d.ptq(3, 0.2).unwrap();
        }
        d.set_maintenance_policy(MaintenancePolicy {
            horizon_ms: 1e9,
            step_budget_ms: f64::INFINITY,
            ..MaintenancePolicy::default()
        });
        let report = d.maintenance_tick().unwrap().expect("profitable step");
        assert!(report.components >= 2);
        assert!(report.device_ms > 0.0);
        assert!(report.observed_qps > 0.0);
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
