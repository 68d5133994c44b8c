//! Sharded scatter-gather PTQ: one logical table over N session shards.
//!
//! [`ShardedDb`] partitions a logical uncertain table across N
//! independent [`UncertainDb`] sessions by tuple id (see
//! [`upi::ShardLayout`]). Each shard is a complete vertical slice — its
//! own `Store` (SimDisk + buffer pool), WAL, statistics, and
//! self-calibrating cost model — so planning is **per shard**: the same
//! logical query may run a cutoff merge on one shard and a plain heap
//! run on another, priced by each shard's own observed scales.
//!
//! Execution is scatter-gather in **bulk-synchronous rounds on the
//! caller's thread**. The shards' simulated devices are independent
//! spindles, so the device model already prices a scatter as parallel
//! (its latency is the max over the per-shard windows); host threads add
//! nothing to that model and would cost a spawn per query. Shards learn
//! about each other only at round boundaries, so every page a shard
//! reads is a function of the data alone: the same query on the same
//! state reads the same pages, run after run.
//!
//! Top-k point queries take the fast path. In round 0 every live shard
//! plans, and a shard whose chosen plan is a clustered point probe
//! (`UpiHeap`, `FracturedProbe`) opens its chain's confidence-ordered
//! point merge (`upi::Chain::point_run`) as a raw cursor. In every round
//! each unfinished shard takes the floor published for that round
//! (`raise_conf_floor`) and pulls up to ⌈k / live shards⌉ rows; at the
//! barrier the facade notes the round's rows, in shard order, into one
//! [`TopKWatermark`], and its k-th best confidence is
//! the next round's floor. A shard finishes with k rows, when its cursor
//! runs dry, or when no row at or above the floor remains on it — its
//! source I/O stops there. Shards whose chosen plan is not
//! confidence-ordered execute the whole query in round 0 and join the
//! merge as a pre-sorted batch. Every other query shape runs the same scatter
//! for one round with no floor: each shard executes the whole query, and
//! the facade gathers (re-sorts, re-aggregates, truncates).
//!
//! **Pruning.** The facade keeps no pruning state: a shard's bound for a
//! primary value is its table's own
//! ([`UncertainTable::confidence_bound`](upi::UncertainTable::confidence_bound)
//! — the chain's component bounds and buffered inserts), read without a
//! page. An
//! `Eq`-on-primary scatter skips *opening* shards whose bound is
//! strictly below `qt`: no plan, no descent, zero pages. From round 1
//! on, a top-k shard whose bound is strictly below the published floor
//! is retired before its next pull. Skips are counted on the facade
//! ([`shards_skipped`](ShardedDb::shards_skipped)) and on each skipped
//! shard's metrics registry.
//!
//! Observability keeps the partition identity: the whole scatter runs
//! under **one** attribution id, pinned once on the caller's thread, and
//! each shard's device charges land in that id's slot of the shard's own
//! pool. The per-shard windows sum to exactly the query's total device
//! time (`QueryOutput::device`), each shard's `(estimated, observed)`
//! pair feeds *that shard's* calibration store with its own clock, and
//! the merged trace records the round count on its root and, on one
//! child span per shard, why that shard finished. The query's
//! wall-clock-shaped latency is the **max** over the shard windows —
//! reported as `QueryOutput::latency_ms`, with the sum preserved in
//! `device` for calibration.

use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};

use upi::{ChainPointRun, PtqResult, RecoveryInfo, ShardLayout, TableLayout, TopKWatermark};
use upi_storage::error::Result as StorageResult;
use upi_storage::{BufferPool, IoStats, Lsn, PoolCounters, QueryId, Store};
use upi_uncertain::{Field, Schema, Tuple, TupleId};

use crate::error::QueryError;
use crate::exec::QueryOutput;
use crate::obs::{QueryTrace, TraceSpan};
use crate::plan::{AccessPath, PhysicalPlan};
use crate::query::{Predicate, PtqQuery};
use crate::session::UncertainDb;

/// The gather merge's total, explicit order: confidence descending,
/// then ascending tuple id, then ascending shard index. Tuple ids are
/// globally unique (id routing), so the shard key never actually
/// decides — it exists so the order is *stated* to be total and stable,
/// and `total_cmp` keeps the comparison panic-free even on NaN.
fn merge_cmp(a: &(usize, PtqResult), b: &(usize, PtqResult)) -> std::cmp::Ordering {
    b.1.confidence
        .total_cmp(&a.1.confidence)
        .then_with(|| a.1.tuple.id.cmp(&b.1.tuple.id))
        .then_with(|| a.0.cmp(&b.0))
}

/// One shard's part in a scatter, from round 0 to the gather.
#[derive(Default)]
struct ShardRun<'a> {
    /// The fast path's plan; `None` for a skipped shard and for a whole
    /// scatter, where the shard session plans for itself.
    plan: Option<PhysicalPlan>,
    /// Span label: the path label, then why the shard finished.
    label: String,
    /// The confidence-ordered cursor, while the shard streams.
    cursor: Option<ChainPointRun<'a>>,
    /// Rows collected so far, canonically ordered; the first `noted` are
    /// in the watermark.
    rows: Vec<PtqResult>,
    noted: usize,
    /// The shard session's own output (rows moved out) when the shard
    /// executed the whole query: its inner attribution window is
    /// `device` (the outer slot holds nothing of it: planning reads no
    /// page).
    whole: Option<QueryOutput>,
    done: bool,
}

impl<'a> ShardRun<'a> {
    /// Stop the shard, closing its cursor, and say why on its span.
    fn finish(&mut self, why: impl Display) {
        self.label = if self.label.is_empty() {
            why.to_string()
        } else {
            format!("{} [{why}]", self.label)
        };
        self.cursor = None;
        self.done = true;
    }

    /// Round 0 for one live shard. The fast path plans and opens the
    /// shard's confidence-ordered cursor; a shard that cannot stream one,
    /// and every shard of a whole scatter, executes `q` outright.
    fn open(
        &mut self,
        s: &'a UncertainDb,
        q: &PtqQuery,
        topk: Option<(u64, usize)>,
        qid: QueryId,
    ) -> Result<(), QueryError> {
        if let Some((value, k)) = topk {
            let catalog = s.catalog().with_query_id(qid);
            let plan = q.plan(&catalog)?;
            let chosen = &plan.candidates[0];
            self.label = chosen.path.label();
            // A clustered point probe streams the shard table's own chain,
            // whatever its layout. Any other path is not confidence-ordered
            // (e.g. a full scan won on a tiny shard), so the whole shard
            // query executes below.
            let opened = match chosen.path {
                AccessPath::UpiHeap { .. } => {
                    let chain = s.table().chain();
                    Some(chain.point_run(value, q.qt, Some(k), &chosen.hints)?)
                }
                _ => None,
            };
            self.plan = Some(plan);
            if let Some(cursor) = opened {
                self.cursor = Some(cursor);
                return Ok(());
            }
        }
        // The shard session pushes its own inner attribution window and
        // records its own calibration sample.
        let mut out = s.query(q)?;
        if self.plan.is_none() {
            self.label = out
                .trace
                .as_ref()
                .map_or("?", |t| t.path.as_str())
                .to_string();
        }
        self.rows = std::mem::take(&mut out.rows);
        self.whole = Some(out);
        self.finish("exhausted");
        Ok(())
    }

    /// One round's pulls: push the published `floor` into the cursor and
    /// take up to `budget` rows. The shard finishes with k rows, or when
    /// its cursor has nothing left at or above the floor.
    fn pull(&mut self, budget: usize, k: usize, floor: f64) -> Result<(), QueryError> {
        let Some(cursor) = self.cursor.as_mut() else {
            return Ok(());
        };
        // Confidence ties survive; the floor only rises.
        cursor.raise_conf_floor(floor);
        let mut dry = false;
        for _ in 0..budget {
            match cursor.next() {
                Some(r) => self.rows.push(r?),
                None => {
                    dry = true;
                    break;
                }
            }
            if self.rows.len() >= k {
                break;
            }
        }
        if self.rows.len() >= k {
            self.finish("k rows");
        } else if dry && floor > f64::NEG_INFINITY {
            self.finish(format_args!("below floor {floor:.3}"));
        } else if dry {
            self.finish("exhausted");
        }
        Ok(())
    }
}

/// A sharded planner-first session: one logical uncertain table
/// partitioned by tuple id across N [`UncertainDb`] shards (see the
/// module docs for the execution model).
pub struct ShardedDb {
    shards: Vec<UncertainDb>,
    layout: ShardLayout,
    next_id: u64,
    /// Shard openings avoided by pruning, across all queries.
    skipped: AtomicU64,
}

impl ShardedDb {
    /// Create one empty shard per store. Shard `i` lives in `stores[i]`
    /// under the name `{name}.s{i}` with the same schema and physical
    /// layout; `layout` routes tuple ids to shards.
    pub fn create(
        stores: Vec<Store>,
        name: &str,
        schema: Schema,
        primary_attr: usize,
        table_layout: TableLayout,
        layout: ShardLayout,
    ) -> StorageResult<ShardedDb> {
        assert_eq!(
            stores.len(),
            layout.n_shards(),
            "one store per shard required"
        );
        let shards = stores
            .into_iter()
            .enumerate()
            .map(|(i, store)| {
                UncertainDb::create(
                    store,
                    &format!("{name}.s{i}"),
                    schema.clone(),
                    primary_attr,
                    table_layout.clone(),
                )
            })
            .collect::<StorageResult<Vec<_>>>()?;
        ShardedDb::from_shards(shards, layout)
    }

    /// Assemble a facade over existing shard sessions — the shards may
    /// have **heterogeneous physical layouts** (some UPIs, some
    /// fractured UPIs); each streams its own chain. The id horizon
    /// is re-seeded from the max over shard id horizons; no page is
    /// read, because each shard already carries its own bounds. Every
    /// other constructor ends here.
    pub fn from_shards(shards: Vec<UncertainDb>, layout: ShardLayout) -> StorageResult<ShardedDb> {
        assert_eq!(
            shards.len(),
            layout.n_shards(),
            "one shard session per routing slot required"
        );
        assert!(!shards.is_empty(), "at least one shard required");
        let primary = shards[0].table().primary_attr();
        assert!(
            shards.iter().all(|s| s.table().primary_attr() == primary),
            "shards must agree on the primary attribute"
        );
        let next_id = shards
            .iter()
            .map(|s| s.table().next_id())
            .max()
            .unwrap_or(0);
        Ok(ShardedDb {
            shards,
            layout,
            next_id,
            skipped: AtomicU64::new(0),
        })
    }

    /// The id-routing layout.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard sessions (per-shard metrics, cost models, tables).
    pub fn shards(&self) -> &[UncertainDb] {
        &self.shards
    }

    /// Total shard openings avoided by pruning, across all queries.
    pub fn shards_skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    fn primary_attr(&self) -> usize {
        self.shards[0].table().primary_attr()
    }

    // --- DML / maintenance (routed) ---------------------------------------

    /// Attach the same secondary index to every shard; returns the index
    /// position (identical on all shards).
    pub fn add_secondary(&mut self, attr: usize) -> StorageResult<usize> {
        let mut idx = 0;
        for s in &mut self.shards {
            idx = s.add_secondary(attr)?;
        }
        Ok(idx)
    }

    /// Bulk-load tuples, partitioned by the layout's id routing.
    pub fn load(&mut self, tuples: &[Tuple]) -> StorageResult<()> {
        let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); self.shards.len()];
        for t in tuples {
            let shard = self.layout.route(t.id.0);
            parts[shard].push(t.clone());
            self.next_id = self.next_id.max(t.id.0 + 1);
        }
        for (s, part) in self.shards.iter_mut().zip(&parts) {
            s.load(part)?;
        }
        Ok(())
    }

    /// Insert a row: the facade assigns the next global tuple id and
    /// routes the tuple to its shard.
    pub fn insert(&mut self, exist: f64, fields: Vec<Field>) -> StorageResult<TupleId> {
        let id = TupleId(self.next_id);
        let t = Tuple::new(id, exist, fields);
        self.insert_tuple(&t)?;
        Ok(id)
    }

    /// Insert a fully-formed tuple (caller manages ids).
    pub fn insert_tuple(&mut self, t: &Tuple) -> StorageResult<()> {
        self.next_id = self.next_id.max(t.id.0 + 1);
        self.shards[self.layout.route(t.id.0)].insert_tuple(t)
    }

    /// Delete a tuple from its shard. A buffered row's bound drops at
    /// once; a stored row's stays raised until its component is rebuilt
    /// ([`merge`](Self::merge), a maintenance fold, recovery).
    pub fn delete(&mut self, t: &Tuple) -> StorageResult<()> {
        self.shards[self.layout.route(t.id.0)].delete(t)
    }

    /// Replace `old` with `new` (same tuple id, hence same shard).
    pub fn update(&mut self, old: &Tuple, new: &Tuple) -> StorageResult<()> {
        assert_eq!(old.id, new.id, "update must keep the tuple id");
        self.shards[self.layout.route(old.id.0)].update(old, new)
    }

    /// Flush every shard's insert buffer (fractured layout only).
    pub fn flush(&mut self) -> StorageResult<()> {
        for s in &mut self.shards {
            s.flush()?;
        }
        Ok(())
    }

    /// Merge every shard's fractures (fractured layout only). The merged
    /// main is built from the live rows, so its bound — and with it the
    /// shard's — drops the deleted rows' slack.
    pub fn merge(&mut self) -> StorageResult<()> {
        for s in &mut self.shards {
            s.merge()?;
        }
        Ok(())
    }

    /// One maintenance tick per shard. Each shard session decides
    /// independently with its **own** rent accounts — the queries that
    /// opened a hot shard pay for its compaction while a cold one
    /// declines — so the returned
    /// reports are per-shard (`None` where the shard's policy declined).
    /// A fold rebuilds its output component from the live rows, so the
    /// shard's bound can only tighten.
    pub fn maintenance_tick(
        &mut self,
    ) -> StorageResult<Vec<Option<crate::session::MaintenanceReport>>> {
        self.shards
            .iter_mut()
            .map(|s| s.maintenance_tick())
            .collect()
    }

    /// Drain paid-for maintenance on every shard (see
    /// [`UncertainDb::maintain`]); returns one summary per shard.
    pub fn maintain(&mut self) -> StorageResult<Vec<crate::session::MaintenanceSummary>> {
        self.shards.iter_mut().map(|s| s.maintain()).collect()
    }

    // --- Durability (per shard) -------------------------------------------

    /// Attach a WAL to every shard (each shard checkpoints its own
    /// calibration payload). Returns one LSN per shard.
    pub fn enable_durability(&mut self) -> StorageResult<Vec<Lsn>> {
        self.shards
            .iter_mut()
            .map(|s| s.enable_durability())
            .collect()
    }

    /// Checkpoint every shard.
    pub fn checkpoint(&mut self) -> StorageResult<Vec<Lsn>> {
        self.shards.iter_mut().map(|s| s.checkpoint()).collect()
    }

    /// Force every shard's WAL group-commit buffer durable.
    pub fn sync_wal(&mut self) -> StorageResult<Vec<Lsn>> {
        self.shards.iter_mut().map(|s| s.sync_wal()).collect()
    }

    /// Recover every shard (`{name}.s{i}` from `stores[i]`) and
    /// reassemble the facade.
    ///
    /// The global id sequence resumes from the **max over shard id
    /// horizons** (`UncertainTable::next_id`), not from the max live
    /// tuple id: a recovered shard whose largest-id rows were deleted
    /// still reserves those ids, and on a hash layout a reused id would
    /// route back to the same shard and collide with its WAL history.
    /// Each recovered table rebuilds its bounds with its structures.
    pub fn recover(
        stores: Vec<Store>,
        name: &str,
        layout: ShardLayout,
    ) -> StorageResult<(ShardedDb, Vec<RecoveryInfo>)> {
        assert_eq!(stores.len(), layout.n_shards());
        let mut shards = Vec::with_capacity(stores.len());
        let mut infos = Vec::with_capacity(stores.len());
        for (i, store) in stores.into_iter().enumerate() {
            let (db, info) = UncertainDb::recover(store, &format!("{name}.s{i}"))?;
            shards.push(db);
            infos.push(info);
        }
        Ok((ShardedDb::from_shards(shards, layout)?, infos))
    }

    /// All live tuples across shards, ascending by tuple id.
    pub fn live_tuples(&self) -> StorageResult<Vec<Tuple>> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.table().live_tuples()?);
        }
        out.sort_by_key(|t| t.id);
        Ok(out)
    }

    /// Refit every shard's cost model from its own observed samples.
    pub fn recalibrate(&self) -> Vec<Vec<crate::cost::RefitOutcome>> {
        self.shards.iter().map(|s| s.recalibrate()).collect()
    }

    // --- Queries -----------------------------------------------------------

    /// Plan and execute a query across all shards (see the module docs
    /// for the two execution modes). Output is byte-identical to the
    /// same query on an unsharded table holding the union of the
    /// shards' tuples.
    pub fn query(&self, q: &PtqQuery) -> Result<QueryOutput, QueryError> {
        let topk = match (&q.predicate, q.top_k) {
            (Predicate::Eq { attr, value }, Some(k))
                if *attr == self.primary_attr() && q.group_count.is_none() && k > 0 =>
            {
                Some((*value, k))
            }
            _ => None,
        };
        let qid = QueryId::next();
        let result = self.scatter(q, topk, qid);
        if result.is_err() {
            // Drain the attribution slots the failed scatter left behind.
            for s in &self.shards {
                s.table().store().pool.take_attributed(qid);
            }
        }
        result
    }

    /// Point PTQ on the primary attribute.
    pub fn ptq(&self, value: u64, qt: f64) -> Result<Vec<PtqResult>, QueryError> {
        Ok(self
            .query(&PtqQuery::eq(self.primary_attr(), value).with_qt(qt))?
            .rows)
    }

    /// Range PTQ on the primary attribute (inclusive bounds).
    pub fn ptq_range(&self, lo: u64, hi: u64, qt: f64) -> Result<Vec<PtqResult>, QueryError> {
        Ok(self
            .query(&PtqQuery::range(self.primary_attr(), lo, hi).with_qt(qt))?
            .rows)
    }

    /// PTQ through secondary index `idx` (scattered to every shard's
    /// own planner: one shard may go tailored, another plain).
    pub fn ptq_secondary(
        &self,
        idx: usize,
        value: u64,
        qt: f64,
    ) -> Result<Vec<PtqResult>, QueryError> {
        let sec_attrs = self.shards[0].table().sec_attrs();
        assert!(
            idx < sec_attrs.len(),
            "secondary index {idx} out of range ({} attached)",
            sec_attrs.len()
        );
        Ok(self
            .query(&PtqQuery::eq(sec_attrs[idx], value).with_qt(qt))?
            .rows)
    }

    /// Top-k most confident rows for a primary value — the scatter-
    /// gather fast path under the round floor.
    pub fn top_k(&self, value: u64, k: usize) -> Result<Vec<PtqResult>, QueryError> {
        Ok(self
            .query(&PtqQuery::eq(self.primary_attr(), value).with_top_k(k))?
            .rows)
    }

    // --- Scatter-gather execution -----------------------------------------

    /// Per-shard pruning bounds for `q`: each shard table's
    /// [`confidence_bound`](upi::UncertainTable::confidence_bound) for
    /// the probed value, or `None` when `q` is not an `Eq` on the primary
    /// attribute (the bound covers nothing else). Both
    /// query shapes skip by these against `qt` — qualifying means
    /// confidence >= qt, so only a *strictly* lower bound may skip — and
    /// the fast path retires by them against each round's floor.
    fn prune_bounds(&self, q: &PtqQuery) -> Option<Vec<f64>> {
        match &q.predicate {
            Predicate::Eq { attr, value } if *attr == self.primary_attr() => Some(
                self.shards
                    .iter()
                    .map(|s| s.table().confidence_bound(*value))
                    .collect(),
            ),
            _ => None,
        }
    }

    /// One scatter for both query shapes (module docs): static pruning,
    /// bulk-synchronous rounds on this thread until every shard has
    /// finished, then one gather. `topk = Some((value, k))` selects the
    /// fast path; `None` runs one round in which every live shard
    /// executes `q` whole.
    fn scatter(
        &self,
        q: &PtqQuery,
        topk: Option<(u64, usize)>,
        qid: QueryId,
    ) -> Result<QueryOutput, QueryError> {
        let n = self.shards.len();
        let pools: Vec<&BufferPool> = self
            .shards
            .iter()
            .map(|s| s.table().store().pool.as_ref())
            .collect();
        let before: Vec<PoolCounters> = pools.iter().map(|p| p.counters()).collect();
        let bounds = self.prune_bounds(q);
        let bound_below = |i: usize, threshold: f64| {
            bounds
                .as_ref()
                .map(|b| b[i])
                .filter(|&bound| bound < threshold)
        };
        // Static pruning picks the live shards before any is opened: a
        // skipped shard is never planned and reads no page.
        let mut runs: Vec<ShardRun> = Vec::with_capacity(n);
        for (i, s) in self.shards.iter().enumerate() {
            let mut run = ShardRun::default();
            if let Some(bound) = bound_below(i, q.qt) {
                run.finish(format_args!("skipped (bound {bound:.3} < qt {:.3})", q.qt));
                self.skipped.fetch_add(1, Ordering::Relaxed);
                s.note_shard_skip();
            }
            runs.push(run);
        }
        let live = runs.iter().filter(|r| !r.done).count();

        // One attribution window for the whole scatter: every shard runs
        // on this thread, and each one's device charges land in `qid`'s
        // slot of its own pool.
        let guard = pools[0].attributed(qid);
        let mut wm = topk.map(|(_, k)| TopKWatermark::new(k));
        let mut floor = f64::NEG_INFINITY;
        let mut rounds = 0u32;
        while runs.iter().any(|r| !r.done) {
            for (i, (s, run)) in self.shards.iter().zip(&mut runs).enumerate() {
                if run.done {
                    continue;
                }
                if rounds == 0 {
                    run.open(s, q, topk, qid)?;
                } else if let Some(bound) = bound_below(i, floor) {
                    run.finish(format_args!(
                        "retired (bound {bound:.3} < floor {floor:.3})"
                    ));
                    continue;
                }
                if let Some((_, k)) = topk {
                    run.pull(k.div_ceil(live), k, floor)?;
                }
            }
            rounds += 1;
            // The barrier: note the round's rows in shard order; the k-th
            // best confidence so far is the next round's floor.
            if let Some(wm) = &mut wm {
                for run in &mut runs {
                    for r in &run.rows[run.noted..] {
                        wm.note(r.confidence);
                    }
                    run.noted = run.rows.len();
                }
                floor = wm.floor();
            }
        }
        drop(guard);

        // Gather: one merge under the explicit total order. A row a floor
        // suppressed is provably outside the top k: k noted-and-collected
        // rows sit at or above that floor, and the row strictly below it.
        let mut tagged: Vec<(usize, PtqResult)> = Vec::new();
        let mut groups: Option<std::collections::BTreeMap<u64, u64>> = None;
        for (i, run) in runs.iter_mut().enumerate() {
            tagged.extend(run.rows.drain(..).map(|r| (i, r)));
            if let Some(g) = run.whole.as_mut().and_then(|out| out.groups.take()) {
                let acc = groups.get_or_insert_with(Default::default);
                for (key, count) in g {
                    *acc.entry(key).or_insert(0) += count;
                }
            }
        }
        tagged.sort_by(merge_cmp);
        if let Some(k) = q.top_k {
            tagged.truncate(k);
        }
        let mut emitted = vec![0u64; n];
        let rows: Vec<PtqResult> = tagged
            .into_iter()
            .map(|(i, r)| {
                emitted[i] += 1;
                r
            })
            .collect();

        // Attribute, observe, and assemble: per-shard windows feed each
        // shard's calibration with its own clock; their sum is the
        // query's device view, their max its parallel latency.
        let mut io = PoolCounters::default();
        let mut device = IoStats::default();
        let mut latency_ms = 0.0f64;
        let mut degraded = None;
        let (path, root) = match topk {
            Some((_, k)) => (
                format!("ShardMerge({n} shards)"),
                format!("ShardMerge(k={k}, rounds={rounds})"),
            ),
            None => (
                format!("ShardScatter({n} shards)"),
                format!("ShardScatter({n} shards, rounds={rounds})"),
            ),
        };
        let mut spans = vec![TraceSpan::label_only(root, 0)];
        for (i, (s, run)) in self.shards.iter().zip(&runs).enumerate() {
            let mut attributed = pools[i].take_attributed(qid);
            let shard_io = pools[i].counters().since(&before[i]);
            let whole_device = run.whole.as_ref().and_then(|out| out.device.as_ref());
            let shard_device = match (whole_device, &run.plan) {
                // A whole execution attributed itself to its own inner
                // window; the outer slot holds nothing (planning reads
                // no page).
                (Some(d), _) => {
                    attributed += d;
                    attributed
                }
                (None, Some(plan)) => {
                    s.note_external_execution(
                        &plan.candidates[0].cost,
                        plan.est_ms(),
                        &attributed,
                        emitted[i],
                        Some(&shard_io),
                    );
                    attributed
                }
                // Skipped: an empty window — the shard was never opened.
                (None, None) => attributed,
            };
            let mut span = TraceSpan::label_only(format!("shard{i}: {}", run.label), 1);
            span.stats = Some(upi::CursorStats {
                rows: emitted[i],
                ..Default::default()
            });
            span.demand_pages = Some(shard_io.demand_pages());
            span.prefetch_pages = Some(shard_io.sequential_pages());
            span.device_ms = Some(shard_device.total_ms());
            span.est_ms = run.plan.as_ref().map(|p| p.est_ms());
            spans.push(span);
            io += &shard_io;
            latency_ms = latency_ms.max(shard_device.total_ms());
            device += &shard_device;
            if degraded.is_none() {
                degraded = pools[i].degraded();
            }
        }
        spans[0].device_ms = Some(device.total_ms());
        spans[0].end_ms = device.total_ms();
        spans[0].stats = Some(upi::CursorStats {
            rows: rows.len() as u64,
            ..Default::default()
        });
        Ok(QueryOutput {
            rows,
            groups: groups.map(|g| g.into_iter().collect()),
            io: Some(io),
            device: Some(device),
            latency_ms: Some(latency_ms),
            trace: Some(QueryTrace {
                query_id: qid.0,
                path,
                spans,
            }),
            degraded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi::{FracturedConfig, MaintenancePolicy, UpiConfig};
    use upi_storage::codec::{dequantize_prob, quantize_prob};
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, DiscretePmf, FieldKind};

    fn stores(n: usize) -> Vec<Store> {
        (0..n)
            .map(|_| Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20))
            .collect()
    }

    fn schema() -> Schema {
        Schema::new(vec![
            ("name", FieldKind::Str),
            ("institution", FieldKind::Discrete),
            ("country", FieldKind::Discrete),
            ("region", FieldKind::U64),
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
            Field::Certain(Datum::U64(country)),
        ]
    }

    /// Build the same logical table sharded and unsharded. Nothing is
    /// flushed at the end: auto-flush boundaries differ between one table
    /// and N shards, and a buffered row scores on the grid its flushed
    /// copy would, so answers still compare byte-for-byte.
    fn filled(n_shards: usize, table_layout: TableLayout, rows_n: u64) -> (ShardedDb, UncertainDb) {
        let mut sharded = ShardedDb::create(
            stores(n_shards),
            "t",
            schema(),
            1,
            table_layout.clone(),
            ShardLayout::HashTid(n_shards),
        )
        .unwrap();
        let mut single =
            UncertainDb::create(stores(1).remove(0), "t", schema(), 1, table_layout).unwrap();
        if single.table().as_fractured().is_none() {
            sharded.add_secondary(2).unwrap();
            single.add_secondary(2).unwrap();
        }
        for i in 0..rows_n {
            let f = row(i % 7, 0.35 + (i % 6) as f64 * 0.1, i % 3);
            sharded.insert(0.9, f.clone()).unwrap();
            single.insert(0.9, f).unwrap();
        }
        (sharded, single)
    }

    fn fingerprint(rows: &[PtqResult]) -> Vec<(u64, u64)> {
        rows.iter()
            .map(|r| (r.tuple.id.0, r.confidence.to_bits()))
            .collect()
    }

    #[test]
    fn all_query_shapes_match_the_unsharded_answer() {
        for layout in [
            TableLayout::Upi(UpiConfig::default()),
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 40,
            }),
        ] {
            let (sharded, single) = filled(3, layout, 180);
            for qt in [0.0, 0.3, 0.6] {
                assert_eq!(
                    fingerprint(&sharded.ptq(3, qt).unwrap()),
                    fingerprint(&single.ptq(3, qt).unwrap())
                );
            }
            assert_eq!(
                fingerprint(&sharded.ptq_range(1, 5, 0.3).unwrap()),
                fingerprint(&single.ptq_range(1, 5, 0.3).unwrap())
            );
            for k in [1, 4, 17, 500] {
                assert_eq!(
                    fingerprint(&sharded.top_k(3, k).unwrap()),
                    fingerprint(&single.top_k(3, k).unwrap()),
                    "top-{k}"
                );
            }
        }
    }

    #[test]
    fn secondary_and_grouped_queries_match() {
        let (sharded, single) = filled(4, TableLayout::Upi(UpiConfig::default()), 160);
        assert_eq!(
            fingerprint(&sharded.ptq_secondary(0, 1, 0.4).unwrap()),
            fingerprint(&single.ptq_secondary(0, 1, 0.4).unwrap())
        );
        let q = PtqQuery::eq(1, 3).with_qt(0.2).with_group_count(3);
        assert_eq!(
            sharded.query(&q).unwrap().groups,
            single.query(&q).unwrap().groups
        );
    }

    #[test]
    fn top_k_attribution_and_trace_cover_every_shard() {
        let (sharded, _) = filled(3, TableLayout::Upi(UpiConfig::default()), 150);
        let out = sharded.query(&PtqQuery::eq(1, 3).with_top_k(5)).unwrap();
        assert_eq!(out.rows.len(), 5);
        let trace = out.trace.unwrap();
        assert!(trace.path.starts_with("ShardMerge"));
        assert!(trace.spans[0].label.contains("rounds="), "{trace:?}");
        assert_eq!(trace.spans.len(), 1 + 3, "root + one span per shard");
        // qt = 0 skips nothing statically, and round 0 opens every live
        // shard: the skip set is exactly empty.
        assert_eq!(sharded.shards_skipped(), 0);
        assert!(trace.spans.iter().all(|s| !s.label.contains("skipped")));
        // Σ per-shard device windows = the reported total, and the
        // parallel latency is the max over the same windows.
        let children: Vec<f64> = trace.spans[1..]
            .iter()
            .map(|s| s.device_ms.unwrap())
            .collect();
        let total: f64 = children.iter().sum();
        assert!((total - out.device.unwrap().total_ms()).abs() < 1e-9);
        let max = children.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!((max - out.latency_ms.unwrap()).abs() < 1e-9);
        assert!(out.latency_ms.unwrap() <= total + 1e-9);
        // The fast path fed each shard's own metrics registry (the
        // calibration store may drop the sample as warm-cache, but the
        // registry records every observation).
        for s in sharded.shards() {
            assert_eq!(s.metrics().queries, 1);
        }
    }

    #[test]
    fn dml_routes_and_recovers_per_shard() {
        let mut sharded = ShardedDb::create(
            stores(2),
            "d",
            schema(),
            1,
            TableLayout::Upi(UpiConfig::default()),
            ShardLayout::RangeTid(vec![50]),
        )
        .unwrap();
        let preload: Vec<Tuple> = (0..40u64)
            .map(|i| Tuple::new(TupleId(i), 0.9, row(i % 5, 0.6, i % 2)))
            .collect();
        sharded.load(&preload).unwrap();
        for i in 40..80u64 {
            let id = sharded.insert(0.9, row(i % 5, 0.6, i % 2)).unwrap();
            assert_eq!(id.0, i, "the global id sequence continues past load");
        }
        let all = sharded.live_tuples().unwrap();
        assert_eq!(all.len(), 80);
        let victim = all[10].clone();
        sharded.delete(&victim).unwrap();
        assert_eq!(sharded.live_tuples().unwrap().len(), 79);
        assert_eq!(sharded.shards()[0].table().live_tuples().unwrap().len(), 49);
    }

    /// With heterogeneous shards (constructible via
    /// [`ShardedDb::from_shards`]) every shard, plain or fractured, opens
    /// its chain's point merge, and the answer stays byte-equal to the
    /// unsharded one, never panics.
    #[test]
    fn mixed_layout_shards_answer_top_k_without_panicking() {
        let layouts = [
            TableLayout::Upi(UpiConfig::default()),
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 25,
            }),
        ];
        let routing = ShardLayout::HashTid(2);
        let mut shard_dbs: Vec<UncertainDb> = layouts
            .iter()
            .enumerate()
            .map(|(i, l)| {
                UncertainDb::create(
                    stores(1).remove(0),
                    &format!("m.s{i}"),
                    schema(),
                    1,
                    l.clone(),
                )
                .unwrap()
            })
            .collect();
        let mut single =
            UncertainDb::create(stores(1).remove(0), "m", schema(), 1, layouts[0].clone()).unwrap();
        // Enough padded rows that a clustered probe beats a full scan on
        // every shard.
        for i in 0..3000u64 {
            let mut fields = row(i % 7, 0.35 + (i % 6) as f64 * 0.1, i % 3);
            fields[0] = Field::Certain(Datum::Str("x".repeat(300)));
            let t = Tuple::new(TupleId(i), 0.9, fields);
            shard_dbs[routing.route(i)].insert_tuple(&t).unwrap();
            single.insert_tuple(&t).unwrap();
        }
        for s in &mut shard_dbs {
            s.flush().unwrap();
        }
        single.flush().unwrap();
        let sharded = ShardedDb::from_shards(shard_dbs, routing).unwrap();
        // Round 0 opens every live shard, so each span names its path;
        // qt = 0 skips none.
        let out = sharded.query(&PtqQuery::eq(1, 3).with_top_k(5)).unwrap();
        assert_eq!(sharded.shards_skipped(), 0);
        let labels: Vec<&str> = out.trace.as_ref().unwrap().spans[1..]
            .iter()
            .map(|s| s.label.as_str())
            .collect();
        assert!(labels[0].starts_with("shard0: UpiHeap"), "{labels:?}");
        assert!(
            labels[1].starts_with("shard1: FracturedProbe"),
            "{labels:?}"
        );
        for k in [1, 5, 40] {
            assert_eq!(
                fingerprint(&sharded.top_k(3, k).unwrap()),
                fingerprint(&single.top_k(3, k).unwrap()),
                "top-{k} over mixed layouts"
            );
        }
        for qt in [0.0, 0.4] {
            assert_eq!(
                fingerprint(&sharded.ptq(3, qt).unwrap()),
                fingerprint(&single.ptq(3, qt).unwrap())
            );
        }
    }

    /// Pruning skips shards whose bound cannot reach qt, opens zero
    /// pages on them, and the answer stays identical to the unsharded
    /// twin's.
    #[test]
    fn pruning_skips_cold_shards_and_preserves_the_answer() {
        let routing = ShardLayout::RangeTid(vec![100]);
        let layout = TableLayout::Upi(UpiConfig::default());
        let mut sharded =
            ShardedDb::create(stores(2), "pr", schema(), 1, layout.clone(), routing).unwrap();
        let mut single =
            UncertainDb::create(stores(1).remove(0), "pr", schema(), 1, layout).unwrap();
        // Shard 0 (ids < 100): strong rows for value 3. Shard 1: only
        // sub-threshold rows for value 3 (conf ≈ 0.9*0.2), plus strong
        // rows for value 4 so the shard is not empty.
        let strong = (0..60u64).map(|i| Tuple::new(TupleId(i), 0.9, row(3, 0.8, i % 3)));
        let mixed = (100..160u64).map(|i| {
            let v = if i % 2 == 0 { 4 } else { 3 };
            let p = if v == 3 { 0.2 } else { 0.8 };
            Tuple::new(TupleId(i), 0.9, row(v, p, i % 3))
        });
        for t in strong.chain(mixed) {
            sharded.insert_tuple(&t).unwrap();
            single.insert_tuple(&t).unwrap();
        }
        assert!(sharded.shards()[1].table().confidence_bound(3) < 0.5);
        let q = PtqQuery::eq(1, 3).with_qt(0.5).with_top_k(5);

        let before_skips = sharded.shards_skipped();
        let reads_before = sharded.shards()[1].table().store().disk.stats();
        let pruned = sharded.query(&q).unwrap();
        assert_eq!(
            fingerprint(&pruned.rows),
            fingerprint(&single.query(&q).unwrap().rows)
        );
        assert!(
            sharded.shards_skipped() > before_skips,
            "the cold shard must be skipped"
        );
        assert_eq!(sharded.shards()[1].metrics().shards_skipped, 1);
        let delta = sharded.shards()[1]
            .table()
            .store()
            .disk
            .stats()
            .since(&reads_before);
        assert_eq!(delta.page_reads, 0, "a skipped shard opens zero pages");
        // The skip is visible in the trace.
        let trace = pruned.trace.unwrap();
        assert!(
            trace.spans.iter().any(|s| s.label.contains("skipped")),
            "{:?}",
            trace.spans.iter().map(|s| &s.label).collect::<Vec<_>>()
        );
        // The whole-query scatter prunes the same way.
        let whole = PtqQuery::eq(1, 3).with_qt(0.5);
        let before_skips = sharded.shards_skipped();
        assert_eq!(
            fingerprint(&sharded.query(&whole).unwrap().rows),
            fingerprint(&single.query(&whole).unwrap().rows)
        );
        assert_eq!(sharded.shards_skipped(), before_skips + 1);
    }

    /// A stored row's delete leaves its component's bound raised; `merge`
    /// is where it tightens again (the merged main is built from the live
    /// rows).
    #[test]
    fn merge_tightens_stats_so_a_cooled_shard_prunes_again() {
        let mut sharded = ShardedDb::create(
            stores(2),
            "cool",
            schema(),
            1,
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 0,
            }),
            ShardLayout::RangeTid(vec![100]),
        )
        .unwrap();
        // Shard 1 holds the only hot row for value 7; shard 0 only a cold one.
        sharded
            .load(&[Tuple::new(TupleId(1), 1.0, row(7, 0.2, 0))])
            .unwrap();
        let hot = Tuple::new(TupleId(200), 1.0, row(7, 0.95, 0));
        sharded.insert_tuple(&hot).unwrap();
        let bound = |sharded: &ShardedDb, i: usize| sharded.shards()[i].table().confidence_bound(7);
        assert!(bound(&sharded, 1) >= 0.95);

        // Flushed first: a buffered row's bound would drop at the delete.
        sharded.flush().unwrap();
        sharded.delete(&hot).unwrap();
        assert!(
            bound(&sharded, 1) >= 0.95,
            "a stored row's bound is raise-only"
        );

        sharded.merge().unwrap();
        assert!(
            bound(&sharded, 1) < 0.5,
            "bound stayed {} after merge",
            bound(&sharded, 1)
        );
        // The shard with a live row keeps its bound, and a scatter above
        // it now skips the cooled shard too.
        assert!(bound(&sharded, 0) >= 0.2);
        let before = sharded.shards_skipped();
        assert!(sharded.ptq(7, 0.5).unwrap().is_empty());
        assert_eq!(sharded.shards_skipped(), before + 2);
    }

    /// Two range-routed fractured shards with no auto-flush, loaded with
    /// cold rows for value 7: one on shard 0 (ids < 100), `shard1_rows`
    /// on shard 1, each in its shard's main component.
    fn cold_fractured_pair(name: &str, shard1_rows: u64) -> ShardedDb {
        let mut sharded = ShardedDb::create(
            stores(2),
            name,
            schema(),
            1,
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 0,
            }),
            ShardLayout::RangeTid(vec![100]),
        )
        .unwrap();
        let cold: Vec<Tuple> = std::iter::once(1)
            .chain(100..100 + shard1_rows)
            .map(|i| Tuple::new(TupleId(i), 1.0, row(7, 0.2, i % 3)))
            .collect();
        sharded.load(&cold).unwrap();
        sharded
    }

    /// A buffered row is bounded by its own confidence, held in RAM, so
    /// deleting it before any flush cools the shard at once.
    #[test]
    fn a_buffered_delete_cools_a_shard() {
        let mut sharded = cold_fractured_pair("bufdel", 0);
        let hot = Tuple::new(TupleId(200), 1.0, row(7, 0.95, 0));
        sharded.insert_tuple(&hot).unwrap();
        let q = PtqQuery::eq(1, 7).with_qt(0.5);
        let skipped = sharded.shards_skipped();
        let out = sharded.query(&q).unwrap();
        // Buffered rows score on the storage grid, as flushed ones do.
        let grid = dequantize_prob(quantize_prob(0.95));
        assert_eq!(fingerprint(&out.rows), vec![(200, grid.to_bits())]);
        assert_eq!(
            sharded.shards_skipped(),
            skipped + 1,
            "only the cold shard 0 is skipped while the hot row is buffered"
        );

        sharded.delete(&hot).unwrap();
        let skipped = sharded.shards_skipped();
        let reads = sharded.shards()[1].table().store().disk.stats();
        let out = sharded.query(&q).unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(sharded.shards_skipped(), skipped + 2, "shard 1 cooled");
        assert!(shard_labels(&out)[1].starts_with("shard1: skipped"));
        let delta = sharded.shards()[1]
            .table()
            .store()
            .disk
            .stats()
            .since(&reads);
        assert_eq!(delta.page_reads, 0, "a skipped shard opens zero pages");
    }

    /// A maintenance fold rebuilds the folded main from the live rows, so
    /// a stored hot row's delete stops holding the shard open once
    /// `maintain` folds it — no `merge()` needed.
    #[test]
    fn a_maintenance_fold_cools_a_shard_without_merge() {
        // Shard 1: cold rows for value 7 in main, one hot row flushed
        // into a fracture and then deleted.
        let mut sharded = cold_fractured_pair("fold", 40);
        let hot = Tuple::new(TupleId(200), 1.0, row(7, 0.95, 0));
        sharded.insert_tuple(&hot).unwrap();
        sharded.flush().unwrap();
        sharded.delete(&hot).unwrap();

        // Traffic that opens shard 1 (the stored hot row's bound holds it
        // open): its rent buys the fold, under a budget any fold fits.
        let q = PtqQuery::eq(1, 7).with_qt(0.5);
        for s in sharded.shards() {
            s.table().store().go_cold();
        }
        for _ in 0..20 {
            let skipped = sharded.shards_skipped();
            assert!(sharded.query(&q).unwrap().rows.is_empty());
            assert_eq!(sharded.shards_skipped(), skipped + 1, "shard 1 is open");
        }
        assert!(sharded.shards()[1].metrics().queries > 0);
        sharded.shards()[1].set_maintenance_policy(MaintenancePolicy {
            step_budget_ms: f64::INFINITY,
        });
        let summaries = sharded.maintain().unwrap();
        assert!(summaries[1].steps >= 1, "the fold must run");
        assert_eq!(
            sharded.shards()[1]
                .table()
                .as_fractured()
                .unwrap()
                .n_fractures(),
            0
        );

        let skipped = sharded.shards_skipped();
        let reads = sharded.shards()[1].table().store().disk.stats();
        let out = sharded.query(&q).unwrap();
        assert!(out.rows.is_empty());
        assert_eq!(sharded.shards_skipped(), skipped + 2, "shard 1 cooled");
        let delta = sharded.shards()[1]
            .table()
            .store()
            .disk
            .stats()
            .since(&reads);
        assert_eq!(delta.page_reads, 0);
        // The cold rows are still there below qt.
        assert_eq!(sharded.ptq(7, 0.1).unwrap().len(), 41);
    }

    /// A recovered facade must not hand out tuple ids it already used:
    /// the horizon comes from the shard tables' `next_id`, which covers
    /// deleted rows that a live-tuple scan would miss.
    #[test]
    fn recover_reseeds_the_id_horizon_past_deleted_rows() {
        let sts = stores(2);
        let mut sharded = ShardedDb::create(
            sts.clone(),
            "r",
            schema(),
            1,
            TableLayout::Upi(UpiConfig::default()),
            ShardLayout::HashTid(2),
        )
        .unwrap();
        sharded.enable_durability().unwrap();
        let mut last = TupleId(0);
        for i in 0..20u64 {
            last = sharded.insert(0.9, row(i % 5, 0.7, i % 2)).unwrap();
        }
        // Delete the highest-id row; a live-tuple rescan would now
        // under-seed the horizon and re-issue `last.0`.
        let victim = sharded
            .live_tuples()
            .unwrap()
            .into_iter()
            .find(|t| t.id == last)
            .unwrap();
        sharded.delete(&victim).unwrap();
        sharded.sync_wal().unwrap();
        drop(sharded);
        let (mut recovered, _) = ShardedDb::recover(sts, "r", ShardLayout::HashTid(2)).unwrap();
        let id = recovered.insert(0.9, row(1, 0.7, 0)).unwrap();
        assert!(
            id.0 > last.0,
            "post-recovery insert reused id {} (deleted horizon was {})",
            id.0,
            last.0
        );
    }

    fn shard_labels(out: &QueryOutput) -> Vec<String> {
        out.trace.as_ref().unwrap().spans[1..]
            .iter()
            .map(|s| s.label.clone())
            .collect()
    }

    /// Asking for more rows than qualify: no floor ever forms, so every
    /// shard runs dry and the answer is every qualifying row.
    #[test]
    fn top_k_beyond_the_qualifying_rows_drains_every_shard() {
        let (sharded, single) = filled(3, TableLayout::Upi(UpiConfig::default()), 150);
        let q = PtqQuery::eq(1, 3).with_top_k(500);
        let out = sharded.query(&q).unwrap();
        assert!(!out.rows.is_empty() && out.rows.len() < 500);
        assert_eq!(
            fingerprint(&out.rows),
            fingerprint(&single.query(&q).unwrap().rows)
        );
        for label in shard_labels(&out) {
            assert!(label.ends_with("[exhausted]"), "{label}");
        }
    }

    /// k = 1 over 8 shards: a budget of one row per shard per round.
    #[test]
    fn top_one_over_eight_shards_matches_the_single_table() {
        let (sharded, single) = filled(8, TableLayout::Upi(UpiConfig::default()), 400);
        for value in 0..7 {
            assert_eq!(
                fingerprint(&sharded.top_k(value, 1).unwrap()),
                fingerprint(&single.top_k(value, 1).unwrap()),
                "value {value}"
            );
        }
    }

    /// When every shard's bound sits below qt nothing is opened: no round
    /// runs, no page is read, and the answer is empty — for both shapes.
    #[test]
    fn a_scatter_with_every_shard_pruned_reads_nothing() {
        let (sharded, single) = filled(4, TableLayout::Upi(UpiConfig::default()), 160);
        // The strongest row of any value has confidence 0.9 * 0.85.
        let disks: Vec<IoStats> = sharded
            .shards()
            .iter()
            .map(|s| s.table().store().disk.stats())
            .collect();
        for q in [
            PtqQuery::eq(1, 3).with_qt(0.9).with_top_k(5),
            PtqQuery::eq(1, 3).with_qt(0.9),
        ] {
            let before = sharded.shards_skipped();
            let out = sharded.query(&q).unwrap();
            assert!(out.rows.is_empty());
            assert!(single.query(&q).unwrap().rows.is_empty());
            assert_eq!(sharded.shards_skipped(), before + 4);
            assert_eq!(out.device.unwrap().page_reads, 0);
            let labels = shard_labels(&out);
            for (i, label) in labels.iter().enumerate() {
                assert!(label.starts_with(&format!("shard{i}: skipped")), "{label}");
            }
            let root = &out.trace.as_ref().unwrap().spans[0].label;
            assert!(root.contains("rounds=0"), "{root}");
        }
        for (s, before) in sharded.shards().iter().zip(&disks) {
            assert_eq!(s.table().store().disk.stats().since(before).page_reads, 0);
        }
    }

    /// A confidence tie at the k-th place across two shards goes to the
    /// lower tuple id, whichever shard holds it — as on one table.
    #[test]
    fn a_kth_place_tie_across_shards_goes_to_the_lower_tuple_id() {
        let routing = ShardLayout::HashTid(2);
        let ids: Vec<Vec<u64>> = (0..2)
            .map(|shard| {
                (0u64..64)
                    .filter(|&id| routing.route(id) == shard)
                    .collect()
            })
            .collect();
        for lo_shard in [0, 1] {
            let lo = ids[lo_shard][0];
            let hi = *ids[1 - lo_shard].iter().find(|&&id| id > lo).unwrap();
            let layout = TableLayout::Upi(UpiConfig::default());
            let mut sharded = ShardedDb::create(
                stores(2),
                "tie",
                schema(),
                1,
                layout.clone(),
                routing.clone(),
            )
            .unwrap();
            let mut single =
                UncertainDb::create(stores(1).remove(0), "tie", schema(), 1, layout).unwrap();
            // One strong row per shard takes the first two places; `lo`
            // and `hi` tie for the third.
            let strong = [
                (*ids[0].last().unwrap(), 0.9),
                (*ids[1].last().unwrap(), 0.8),
            ];
            for (id, p) in [(lo, 0.5), (hi, 0.5)].into_iter().chain(strong) {
                let t = Tuple::new(TupleId(id), 1.0, row(5, p, 0));
                sharded.insert_tuple(&t).unwrap();
                single.insert_tuple(&t).unwrap();
            }
            let got = sharded.top_k(5, 3).unwrap();
            assert_eq!(fingerprint(&got), fingerprint(&single.top_k(5, 3).unwrap()));
            assert_eq!(got[2].tuple.id.0, lo, "the tie goes to the lower id");
        }
    }
}
