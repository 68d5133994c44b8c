//! Fractured UPIs — LSM-style maintenance (§4).
//!
//! "The insert buffer maintains changes to the UPI in main memory. When the
//! buffer becomes full, we sequentially output the changes … to a set of
//! files, called a Fracture. A fracture contains the same UPI, cutoff index
//! and secondary indexes as the main UPI except that it contains only the
//! data inserted or deleted since the previous flush" (§4.2).
//!
//! Implementation notes:
//!
//! * Every fracture is a self-contained [`DiscreteUpi`] plus a persisted
//!   delete set; its indexes point only into its own heap, so queries per
//!   fracture are independent (and the per-fracture cost is
//!   `Cost_init + H·T_seek`, the §6.2 model).
//! * Delete sets are persisted at flush (sequential write). RAM keeps one
//!   map from each fractured id to its newest fracture, so the check made
//!   "at the end of a lookup" for every query is one probe.
//! * A delete set suppresses tuples in **older** components only; tuple ids
//!   are never reused, so an id deleted and re-inserted later is revived by
//!   the newer component.
//! * [`FracturedUpi::merge`] is the §4.3 reorganization: sequentially read
//!   every component, drop deleted tuples, and bulk-write a fresh main UPI
//!   — cost ≈ `S_table (T_read + T_write)` (Table 8).

use std::collections::BTreeMap;

use upi_btree::BTree;
use upi_storage::codec::KeyReader;
use upi_storage::error::Result;
use upi_storage::Store;
use upi_uncertain::{IdMap, IdSet, Tuple, TupleId};

use crate::cost::DeviceCoeffs;
use crate::exec::{sort_results, CursorStats, PtqResult, Skip};
use crate::keys::stored_prob;
use crate::maintenance::{select_compaction, CompactionPlan, CompactionStep};
use crate::records::Records;
use crate::upi::{grid_confidence, DiscreteUpi, PointRun, RangeRun, SecondaryRun, UpiConfig};

/// Configuration of a Fractured UPI.
#[derive(Debug, Clone, Copy)]
pub struct FracturedConfig {
    /// Parameters for the main UPI and (by default) each fracture. §4.2
    /// notes each fracture may be tuned independently;
    /// [`FracturedUpi::flush_with`] accepts a per-fracture override.
    pub upi: UpiConfig,
    /// Auto-flush threshold: the insert buffer flushes itself once it holds
    /// this many operations (0 disables auto-flush; callers flush manually).
    pub buffer_ops: usize,
}

impl Default for FracturedConfig {
    fn default() -> Self {
        FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 10_000,
        }
    }
}

struct Fracture {
    upi: DiscreteUpi,
    /// Persisted delete set (key = tid, no payload).
    delete_tree: BTree,
}

impl Fracture {
    /// Sequentially read the persisted delete set's ids: a merge pays
    /// for reading every file it folds.
    fn read_delete_set(&self) -> Result<Vec<u64>> {
        let mut ids = Vec::new();
        let mut cur = self.delete_tree.first()?;
        while cur.valid() {
            ids.push(KeyReader::new(cur.key()).u64());
            cur.advance()?;
        }
        Ok(ids)
    }
}

/// An id's newest fracture (level `i + 1` for fracture `i`), and whether
/// that fracture stores a version of the id or deletes it.
#[derive(Clone, Copy)]
struct Newest {
    level: u32,
    stores: bool,
}

/// A UPI stored as a main index plus a chain of immutable fractures and an
/// in-memory insert buffer (Figure 1).
pub struct FracturedUpi {
    store: Store,
    cfg: FracturedConfig,
    attr: usize,
    sec_attrs: Vec<usize>,
    name: String,
    seq: usize,
    main: DiscreteUpi,
    /// Ids stored in the main UPI.
    main_ids: IdSet<u64>,
    fractures: Vec<Fracture>,
    /// Each id that a fracture stores or deletes, mapped to the newest
    /// such fracture: the only in-memory record of the fractures, what
    /// [`suppressed`](Self::suppressed) asks of them in one lookup. A
    /// flush adds its ids; a fold and a compaction re-level the rest.
    newest: IdMap<u64, Newest>,
    buf_inserts: BTreeMap<u64, Tuple>,
    buf_deletes: IdSet<u64>,
}

impl FracturedUpi {
    /// Create with a main UPI on field `attr` and secondary indexes on
    /// `sec_attrs`.
    pub fn create(
        store: Store,
        name: &str,
        attr: usize,
        sec_attrs: &[usize],
        cfg: FracturedConfig,
    ) -> Result<FracturedUpi> {
        let mut main = DiscreteUpi::create(store.clone(), &format!("{name}.main"), attr, cfg.upi)?;
        for &a in sec_attrs {
            main.add_secondary(a)?;
        }
        Ok(FracturedUpi {
            store,
            cfg,
            attr,
            sec_attrs: sec_attrs.to_vec(),
            name: name.to_string(),
            seq: 0,
            main,
            main_ids: IdSet::default(),
            fractures: Vec::new(),
            newest: IdMap::default(),
            buf_inserts: BTreeMap::new(),
            buf_deletes: IdSet::default(),
        })
    }

    /// Bulk-load the initial contents of the main UPI.
    pub fn load_initial<'a, I>(&mut self, tuples: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a Tuple>,
    {
        self.load_records(&Records::from_tuples(tuples))
    }

    /// [`load_initial`](Self::load_initial) from encoded tuples.
    pub(crate) fn load_records(&mut self, records: &Records) -> Result<()> {
        self.main_ids.extend(records.ids());
        self.main.load_records(records)
    }

    /// Buffer an insert (RAM only — no I/O is charged, matching the
    /// "negligible" in-memory buffer of §4.3).
    pub fn insert(&mut self, t: Tuple) -> Result<()> {
        self.buf_deletes.remove(&t.id.0);
        self.buf_inserts.insert(t.id.0, t);
        self.maybe_autoflush()
    }

    /// Buffer a delete by tuple id.
    ///
    /// Dropping a buffered insert is not sufficient on its own: the
    /// buffered version was itself shadowing any older on-disk version of
    /// the same id (update = delete + insert re-uses ids, §3.1), so the
    /// delete must still leave a marker behind whenever the newest
    /// component holding the id stores it — otherwise it resurrects.
    pub fn delete(&mut self, id: TupleId) -> Result<()> {
        let newest = self.newest.get(&id.0);
        let on_disk = newest.map_or_else(|| self.main_ids.contains(&id.0), |n| n.stores);
        if self.buf_inserts.remove(&id.0).is_none() || on_disk {
            self.buf_deletes.insert(id.0);
        }
        self.maybe_autoflush()
    }

    fn maybe_autoflush(&mut self) -> Result<()> {
        if self.cfg.buffer_ops > 0
            && self.buf_inserts.len() + self.buf_deletes.len() >= self.cfg.buffer_ops
        {
            self.flush()?;
        }
        Ok(())
    }

    /// Flush the insert buffer as a new fracture (sequential writes only).
    /// No-op on an empty buffer.
    pub fn flush(&mut self) -> Result<()> {
        self.flush_with(self.cfg.upi)
    }

    /// Flush with fracture-specific tuning parameters ("each fracture can
    /// have different tuning parameters", §4.2).
    pub fn flush_with(&mut self, upi_cfg: UpiConfig) -> Result<()> {
        if self.buf_inserts.is_empty() && self.buf_deletes.is_empty() {
            return Ok(());
        }
        let name = self.next_name('f');
        let inserts = Records::from_tuples(self.buf_inserts.values());
        let upi = self.build_upi(&name, upi_cfg, &inserts)?;
        let mut deleted: Vec<u64> = self.buf_deletes.iter().copied().collect();
        deleted.sort_unstable();
        let delete_tree = self.build_delete_tree(&name, upi_cfg.page_size, &deleted)?;
        self.fractures.push(Fracture { upi, delete_tree });
        let level = self.fractures.len() as u32;
        let deletes = self.buf_deletes.drain().map(|id| (id, false));
        let inserts = std::mem::take(&mut self.buf_inserts).into_keys();
        for (id, stores) in deletes.chain(inserts.map(|id| (id, true))) {
            self.newest.insert(id, Newest { level, stores });
        }
        Ok(())
    }

    /// The file-name stem of the next component: `{table}.{kind}{seq}`
    /// (`f` a fracture, `m` a main UPI).
    fn next_name(&mut self, kind: char) -> String {
        let seq = self.seq;
        self.seq += 1;
        format!("{}.{kind}{seq}", self.name)
    }

    /// Build one sealed component — a UPI on `attr` with every secondary
    /// attached — from `records` (in any order), as sequential writes.
    fn build_upi(&self, name: &str, cfg: UpiConfig, records: &Records) -> Result<DiscreteUpi> {
        let mut upi = DiscreteUpi::create(self.store.clone(), name, self.attr, cfg)?;
        for &a in &self.sec_attrs {
            upi.add_secondary(a)?;
        }
        upi.load_records(records)?;
        Ok(upi)
    }

    /// Persist a fracture's delete set (ascending ids; key = id, no
    /// payload) next to the component `name`.
    fn build_delete_tree(&self, name: &str, page_size: u32, sorted_ids: &[u64]) -> Result<BTree> {
        let mut tree = BTree::create(self.store.clone(), &format!("{name}.del"), page_size)?;
        let none: &[u8] = &[];
        tree.bulk_load(sorted_ids.iter().map(|tid| (tid.to_be_bytes(), none)))?;
        Ok(tree)
    }

    /// Sequentially read components `levels` (0 = main, `i + 1` =
    /// fracture `i`) and copy the record of what no newer component, nor
    /// the insert buffer, suppresses — each surviving tuple once (a
    /// suppressed id's older versions are exactly what is dropped), in
    /// scan order. The read half of `Cost_merge`.
    fn collect_live(&self, levels: std::ops::Range<usize>) -> Result<Records> {
        let mut live = Records::default();
        let slice = self.chain().components().enumerate().take(levels.end);
        for (level, upi) in slice.skip(levels.start) {
            upi.scan_records(&mut live, |tid| !self.suppressed(tid, level))?;
        }
        Ok(live)
    }

    /// True if `tid` found at component `level` is suppressed by a newer
    /// component: either a newer delete set (the paper's rule) or a newer
    /// *version* of the same tuple (update = delete + insert, §3.1; a newer
    /// copy shadows older ones). Levels: 0 = main, `i+1` = fracture `i`.
    /// One lookup for the fractures (the newest level holding `tid`),
    /// two for the insert buffer.
    fn suppressed(&self, tid: u64, level: usize) -> bool {
        self.newest
            .get(&tid)
            .is_some_and(|n| n.level as usize > level)
            || self.buf_deletes.contains(&tid)
            || self.buf_inserts.contains_key(&tid)
    }

    /// Insert-buffer rows a query matches, in canonical result order —
    /// buffered tuples are matched in RAM by every query path. `conf` is a
    /// tuple's confidence under the query's predicate.
    fn buffered_matches(&self, qt: f64, conf: impl Fn(&Tuple) -> f64) -> Vec<PtqResult> {
        let mut rows: Vec<PtqResult> = self
            .buf_inserts
            .values()
            .filter_map(|t| {
                let confidence = conf(t);
                (confidence >= qt && confidence > 0.0).then(|| PtqResult {
                    tuple: t.clone(),
                    confidence,
                })
            })
            .collect();
        sort_results(&mut rows);
        rows
    }

    /// Figure 1's SELECT path, shared by the batch bodies below: run
    /// `body` on the main UPI, then on each fracture oldest first — one
    /// component after the other — drop what a newer component
    /// suppresses, add the insert buffer's matches (`conf` as for
    /// [`buffered_matches`](Self::buffered_matches)), sort canonically.
    fn gather(
        &self,
        qt: f64,
        conf: impl Fn(&Tuple) -> f64,
        body: impl Fn(&DiscreteUpi) -> Result<Vec<PtqResult>>,
    ) -> Result<Vec<PtqResult>> {
        let mut out = Vec::new();
        for (level, upi) in self.chain().components().enumerate() {
            for r in body(upi)? {
                if !self.suppressed(r.tuple.id.0, level) {
                    out.push(r);
                }
            }
        }
        out.extend(self.buffered_matches(qt, conf));
        sort_results(&mut out);
        Ok(out)
    }

    /// PTQ across main + fractures + insert buffer (Figure 1's SELECT
    /// path), minus deleted tuples.
    ///
    /// This batch body exists beside [`Chain::point_run`] because it
    /// visits the components serially, as Figure 1 draws it, where the
    /// cursor interleaves them: the figure benches measure this access
    /// pattern and the cursor tests use it as their reference.
    pub fn ptq(&self, value: u64, qt: f64) -> Result<Vec<PtqResult>> {
        let conf = |t: &Tuple| buffered_confidence(t, self.attr, value, value);
        self.gather(qt, conf, |upi| upi.ptq(value, qt))
    }

    /// Range PTQ across every component (a tuple's alternatives all live
    /// in the component holding the tuple, so per-component confidences
    /// are complete and the union rule is the same as for point PTQs).
    pub fn ptq_range(&self, lo: u64, hi: u64, qt: f64) -> Result<Vec<PtqResult>> {
        let conf = |t: &Tuple| buffered_confidence(t, self.attr, lo, hi);
        self.gather(qt, conf, |upi| upi.ptq_range(lo, hi, qt))
    }

    /// Secondary-index PTQ across every component. `sec_idx` indexes
    /// `sec_attrs`.
    pub fn ptq_secondary(
        &self,
        sec_idx: usize,
        value: u64,
        qt: f64,
        tailored: bool,
    ) -> Result<Vec<PtqResult>> {
        let sec_attr = self.sec_attrs[sec_idx];
        let conf = |t: &Tuple| buffered_confidence(t, sec_attr, value, value);
        self.gather(qt, conf, |upi| {
            upi.ptq_secondary(sec_idx, value, qt, tailored)
        })
    }

    /// The read side every clustered query path streams over: main +
    /// fractures, with the delete sets and the insert buffer.
    pub fn chain(&self) -> Chain<'_> {
        Chain {
            main: &self.main,
            fractured: Some(self),
        }
    }

    /// Attach a secondary index on discrete field `attr` to **every**
    /// on-disk component — the main UPI and each existing fracture, each
    /// backfilled from its own heap with a sequential scan + sorted bulk
    /// load — and to every fracture flushed afterwards; insert-buffer
    /// rows are matched in RAM at query time, as always. Returns the
    /// secondary's position (the `sec_idx` of
    /// [`ptq_secondary`](Self::ptq_secondary)).
    ///
    /// This lifts the old creation-order restriction: secondaries no
    /// longer have to be declared at [`create`](Self::create) time.
    /// Per-component indexes stay self-contained (each points only into
    /// its own heap), so the fracture-parallel query paths are untouched.
    pub fn add_secondary(&mut self, attr: usize) -> Result<usize> {
        let idx = self.sec_attrs.len();
        self.main.add_secondary(attr)?;
        for f in &mut self.fractures {
            f.upi.add_secondary(attr)?;
        }
        self.sec_attrs.push(attr);
        Ok(idx)
    }

    /// Merge every fracture into a fresh main UPI (§4.3): sequentially read
    /// all components, drop deleted tuples, bulk-write the result, free the
    /// old files — the fold of the whole chain. The insert buffer is left
    /// untouched.
    pub fn merge(&mut self) -> Result<()> {
        self.fold_prefix(self.fractures.len())
    }

    /// Per-component on-disk sizes: main first, then fractures
    /// oldest-to-newest, each fracture including its persisted delete
    /// set — the input shape of
    /// [`select_compaction`].
    pub fn component_bytes(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.fractures.len() + 1);
        out.push(self.main.total_bytes());
        for f in &self.fractures {
            out.push(f.upi.total_bytes() + f.delete_tree.stats().bytes);
        }
        out
    }

    /// Select (read-only) the best compaction step affordable within
    /// `budget_ms` of device time — see [`select_compaction`].
    pub fn plan_compaction(&self, coeffs: &DeviceCoeffs, budget_ms: f64) -> Option<CompactionPlan> {
        select_compaction(&self.component_bytes(), coeffs, budget_ms)
    }

    /// One incremental merge step: pick the best compaction affordable
    /// within `budget_ms` and execute it. Returns the number of
    /// components eliminated (0 when nothing fits the budget). Queries
    /// between steps answer correctly against whatever layout the steps
    /// have reached — every step preserves the possible-worlds state.
    pub fn merge_step(&mut self, coeffs: &DeviceCoeffs, budget_ms: f64) -> Result<usize> {
        match self.plan_compaction(coeffs, budget_ms) {
            Some(plan) => self.apply_compaction(plan.step),
            None => Ok(0),
        }
    }

    /// Execute one compaction step, clamped to the current chain (a
    /// step addressing components that no longer exist merges what it
    /// can and reports it — the WAL-replay path needs exactly this
    /// tolerance, since recovery rebuilds a different component layout
    /// than the one the step was logged against). Returns the number of
    /// components eliminated.
    pub fn apply_compaction(&mut self, step: CompactionStep) -> Result<usize> {
        match step {
            CompactionStep::FoldPrefix { fractures } => {
                let k = fractures.min(self.fractures.len());
                if k == 0 {
                    return Ok(0);
                }
                self.fold_prefix(k)?;
                Ok(k)
            }
            CompactionStep::CompactRun { first, last } => {
                let last = last.min(self.fractures.len().saturating_sub(1));
                if first >= last {
                    return Ok(0);
                }
                self.compact_run(first, last)?;
                Ok(last - first)
            }
        }
    }

    /// Merge main + the `k` oldest fractures into a fresh main UPI.
    /// The folded fractures' delete markers die with the fold: they
    /// only suppressed rows inside the folded prefix, which the fold
    /// applies. Remaining fractures shift down one level; their delete
    /// sets still suppress the new main (level 0), unchanged.
    fn fold_prefix(&mut self, k: usize) -> Result<()> {
        debug_assert!(k <= self.fractures.len());
        // Sequential read of the folded components, full suppression
        // applied (a row any newer component suppresses is dead now),
        // then of each folded fracture's persisted delete set.
        let live = self.collect_live(0..k + 1)?;
        for f in &self.fractures[..k] {
            f.read_delete_set()?;
        }

        let name = self.next_name('m');
        let new_main = self.build_upi(&name, self.cfg.upi, &live)?;

        // Free the replaced files.
        self.main_ids = live.ids().collect();
        let old_main = std::mem::replace(&mut self.main, new_main);
        old_main.destroy()?;
        let folded: Vec<Fracture> = self.fractures.drain(..k).collect();
        let k = k as u32;
        self.newest.retain(|_, n| n.level > k);
        self.newest.values_mut().for_each(|n| n.level -= k);
        for f in folded {
            let file = f.delete_tree.file();
            f.upi.destroy()?;
            self.store.free_file_pages(file)?;
        }
        Ok(())
    }

    /// Merge the contiguous fracture run `first..=last` into one
    /// fracture at position `first`. Intra-run suppression is applied
    /// to the surviving tuples (a newer run member's delete or
    /// re-insert wins), but the run's delete markers are **kept** —
    /// unioned — because they still suppress components older than the
    /// run. Sound because a fracture's own delete set never suppresses
    /// its own ids (see [`suppressed`](Self::suppressed)'s strict
    /// level comparison).
    /// In [`newest`](Self::newest) the run's levels collapse onto one
    /// and an id keeps its `stores` flag — even a stored id the merge
    /// drops because the insert buffer shadows it: the buffer masks it
    /// until the next flush re-records it, and [`delete`](Self::delete)
    /// of the buffered version leaves a marker.
    fn compact_run(&mut self, first: usize, last: usize) -> Result<()> {
        debug_assert!(first < last && last < self.fractures.len());
        let live = self.collect_live(first + 1..last + 2)?;
        let mut deleted = Vec::new();
        for f in &self.fractures[first..=last] {
            deleted.extend(f.read_delete_set()?);
        }
        deleted.sort_unstable();
        deleted.dedup();

        let name = self.next_name('f');
        let upi = self.build_upi(&name, self.cfg.upi, &live)?;
        let delete_tree = self.build_delete_tree(&name, self.cfg.upi.page_size, &deleted)?;

        let merged = Fracture { upi, delete_tree };
        let old: Vec<Fracture> = self
            .fractures
            .splice(first..=last, std::iter::once(merged))
            .collect();
        // Levels first + 1 ..= last + 1 become first + 1; newer ones shift.
        let (first, last) = (first as u32 + 1, last as u32 + 1);
        for n in self.newest.values_mut() {
            n.level -= n.level.clamp(first, last) - first;
        }
        for f in old {
            let file = f.delete_tree.file();
            f.upi.destroy()?;
            self.store.free_file_pages(file)?;
        }
        Ok(())
    }

    /// The live possible-worlds content, in id order: every tuple a query
    /// can see, across main, fractures and the insert buffer, minus
    /// everything a newer delete set suppresses. Non-mutating (unlike
    /// [`merge`](Self::merge), which rebuilds the main component from the
    /// same enumeration) — this is what a checkpoint snapshots, and the
    /// blob's bytes follow this order.
    pub fn live_tuples(&self) -> Result<Vec<Tuple>> {
        self.live_records()?.to_tuples()
    }

    /// [`live_tuples`](Self::live_tuples) as records.
    pub(crate) fn live_records(&self) -> Result<Records> {
        let mut live = self.collect_live(0..self.fractures.len() + 1)?;
        self.buf_inserts.values().for_each(|t| live.push_tuple(t));
        live.sort_by_id();
        Ok(live)
    }

    /// Number of on-disk fractures (`N_frac` of the cost model).
    pub fn n_fractures(&self) -> usize {
        self.fractures.len()
    }

    /// Operations currently buffered in RAM.
    pub fn buffered_ops(&self) -> usize {
        self.buf_inserts.len() + self.buf_deletes.len()
    }

    /// The main UPI (for stats and cost-model inputs).
    pub fn main(&self) -> &DiscreteUpi {
        &self.main
    }

    /// The main UPI, mutably, so a test can damage a component in place.
    #[cfg(test)]
    pub(crate) fn main_mut(&mut self) -> &mut DiscreteUpi {
        &mut self.main
    }

    /// The main component's statistics as canonical bytes (the ones the
    /// cost models read; fractures carry only their own slice and are
    /// folded away by maintenance). Not persisted: see
    /// [`DiscreteUpi::stats_payload`].
    pub fn stats_payload(&self) -> Vec<u8> {
        self.main.stats_payload()
    }

    /// Live bytes across every on-disk component.
    pub fn total_bytes(&self) -> u64 {
        self.main.total_bytes()
            + self
                .fractures
                .iter()
                .map(|f| f.upi.total_bytes() + f.delete_tree.stats().bytes)
                .sum::<u64>()
    }

    /// Exact count of tuples visible to queries: the insert buffer's,
    /// plus each on-disk id whose newest component stores it, unsuppressed.
    pub fn n_live_tuples(&self) -> u64 {
        let main = self.main_ids.iter().filter(|&&id| !self.suppressed(id, 0));
        let visible =
            |(&id, n): (&u64, &Newest)| n.stores && !self.suppressed(id, n.level as usize);
        let fractured = self.newest.iter().filter(|&e| visible(e));
        (self.buf_inserts.len() + main.count() + fractured.count()) as u64
    }
}

/// A buffered row's confidence for `attr BETWEEN lo AND hi`, on the grid
/// its stored copy will score on once flushed (see [`grid_confidence`]).
fn buffered_confidence(t: &Tuple, attr: usize, lo: u64, hi: u64) -> f64 {
    let alts = t.discrete(attr).alternatives().iter().copied();
    grid_confidence(t.exist, alts, lo, hi)
}

/// The read side of a clustered table (Figure 1): its on-disk components
/// `[main] ++ fractures` — a component's position is its suppression
/// level — plus, for a fractured UPI, the write side: the delete sets and
/// the insert buffer. A plain [`DiscreteUpi`] is a chain of one component
/// with no write side ([`DiscreteUpi::chain`]). Every clustered query path
/// streams through this one shape.
#[derive(Clone, Copy)]
pub struct Chain<'a> {
    main: &'a DiscreteUpi,
    /// The fractured UPI owning the chain; `None` for a plain UPI.
    fractured: Option<&'a FracturedUpi>,
}

impl<'a> Chain<'a> {
    /// A plain UPI: one component, no write side.
    pub(crate) fn plain(upi: &'a DiscreteUpi) -> Chain<'a> {
        Chain {
            main: upi,
            fractured: None,
        }
    }

    /// The main component (statistics and cost-model inputs).
    pub fn main(self) -> &'a DiscreteUpi {
        self.main
    }

    /// The fractured UPI the chain belongs to — `None` for a plain UPI.
    pub fn fractured(self) -> Option<&'a FracturedUpi> {
        self.fractured
    }

    /// Every on-disk component in age order: main first, then fractures
    /// oldest-to-newest — the planner prices one open + descent per
    /// component (`N_frac + 1` of the §6.2 model).
    pub fn components(self) -> impl Iterator<Item = &'a DiscreteUpi> {
        let fractures = self.fractured.into_iter().flat_map(|f| &f.fractures);
        std::iter::once(self.main).chain(fractures.map(|f| &f.upi))
    }

    /// Number of on-disk components (`N_frac + 1`).
    pub fn n_components(self) -> usize {
        self.fractured.map_or(1, |f| f.n_fractures() + 1)
    }

    /// The component at suppression level `level` (0 = main).
    fn component(self, level: usize) -> &'a DiscreteUpi {
        match level {
            0 => self.main,
            _ => {
                &self
                    .fractured
                    .expect("a plain UPI has one component")
                    .fractures[level - 1]
                    .upi
            }
        }
    }

    /// True if `tid` found at component `level` is suppressed by the
    /// write side (never, for a plain UPI).
    fn suppressed(self, tid: u64, level: usize) -> bool {
        self.fractured.is_some_and(|f| f.suppressed(tid, level))
    }

    /// Upper bound on the confidence of any row for primary value `value`
    /// the chain holds, read without a page: the highest component
    /// [`ConfidenceBound`](crate::ConfidenceBound), and each buffered
    /// insert's confidence raised to the grid as a component bound raises
    /// it (the buffer is in RAM, so a buffered delete lowers this at
    /// once).
    pub(crate) fn bound(self, value: u64) -> f64 {
        let attr = self.main.attr();
        let buffered = self
            .fractured
            .into_iter()
            .flat_map(|f| f.buf_inserts.values());
        self.components()
            .map(|u| u.confidence_bound().bound(value))
            .chain(buffered.map(|t| {
                let c = t.confidence_eq(attr, value);
                c.max(stored_prob(c))
            }))
            .fold(0.0, f64::max)
    }

    /// The insert buffer's matches (none, for a plain UPI).
    fn buffered_matches(self, qt: f64, conf: impl Fn(&Tuple) -> f64) -> Vec<PtqResult> {
        self.fractured
            .map_or_else(Vec::new, |f| f.buffered_matches(qt, conf))
    }

    /// Streaming point PTQ: a k-way merge cursor over one [`PointRun`]
    /// per component plus the insert buffer, with suppression applied
    /// *before* any heap fetch (suppressed cutoff pointers are never
    /// dereferenced).
    ///
    /// Every open is justified by a bound: a component whose
    /// [`ConfidenceBound`](crate::ConfidenceBound) for `value` is 0 (it
    /// never stored a row in the value's bucket) or below `qt` is never
    /// opened, in either mode.
    ///
    /// With `limit = Some(k)` each component streams confidence-ordered,
    /// so the merge is `{confidence DESC, tid ASC}`-ordered and a top-k
    /// consumer stops pulling — and each component stops *reading* —
    /// after k surviving rows. Components open **lazily**: before each
    /// emit, the unopened component with the highest bound (lowest level
    /// on ties) is opened and its head pulled if that bound is at or
    /// above both the floor and the best head's confidence, until no
    /// such component remains. A row is therefore emitted only after
    /// every component that could beat or tie it has been opened, so the
    /// order and the tie rule are those of an eager merge, and a
    /// component whose bound falls below the floor is never opened. The
    /// merge keeps a running k-th-confidence **watermark** over the
    /// surviving rows seen so far (heads, emitted rows, and the insert
    /// buffer — each a distinct row of the merged output), combined with
    /// an external floor ([`ChainPointRun::raise_conf_floor`]): once a
    /// component's next cutoff candidate — or next **keyed heap entry** —
    /// falls below it, that component's scan stops outright; suppressed
    /// rows and below-watermark tails are skipped *before their tuples
    /// are decoded* (the heap key carries the confidence), so a long
    /// suppressed heap stretch costs no decodes and no extra leaf reads.
    /// This is sound because suppression only *removes* rows — it can
    /// never raise another row's confidence — so k rows at/above the
    /// watermark already prove the tail of every probability-descending
    /// component list irrelevant. Per-component limits, by contrast,
    /// remain unsound (a component's k-th row may be suppressed by a newer
    /// delete).
    ///
    /// Without a limit every admitted component is opened here, in level
    /// order (all descents first, then the landing leaves), and runs
    /// Algorithm 2 — its heap run, then its cutoff
    /// pointers in heap order — and the merged rows are not
    /// confidence-ordered.
    ///
    /// `run_pages` holds each component's estimated heap-run length in
    /// leaves, index-aligned with the components; a component's seek arms
    /// it as the pool's read-ahead hint when (and only if) the component
    /// is opened. Empty: no hints.
    pub fn point_run(
        self,
        value: u64,
        qt: f64,
        limit: Option<usize>,
        run_pages: &[usize],
    ) -> Result<ChainPointRun<'a>> {
        let bounds: Vec<f64> = self
            .components()
            .map(|u| u.confidence_bound().bound(value))
            .collect();
        let attr = self.main.attr();
        let buffered = self.buffered_matches(qt, |t| buffered_confidence(t, attr, value, value));
        // A lone component with nothing buffered has nothing to merge: no
        // heads, and its first k rows are the answer without a watermark.
        let heads = if bounds.len() == 1 && buffered.is_empty() {
            Vec::new()
        } else {
            bounds.iter().map(|_| None).collect()
        };
        let mut seen_topk = Vec::new();
        if let Some(k) = limit {
            // Buffered rows are all part of the merged output: they seed
            // the watermark before any on-disk component is read.
            for r in &buffered {
                note_seen(&mut seen_topk, k, r.confidence);
            }
        }
        let mut run = ChainPointRun {
            chain: self,
            value,
            qt,
            run_pages: run_pages.to_vec(),
            streams: bounds.iter().map(|_| None).collect(),
            bounds,
            heads,
            buffered: buffered.into_iter(),
            buf_head: None,
            limit,
            seen_topk,
            ext_floor: f64::NEG_INFINITY,
        };
        if limit.is_none() || run.heads.is_empty() {
            let admitted: Vec<usize> = (0..run.streams.len())
                .filter(|&level| run.admitted(level))
                .collect();
            if limit.is_none() && admitted.len() > 1 {
                // Every admitted component is opened now, so descend them
                // all before reading any landing leaf: the head sweeps the
                // index levels once, then the leaves, instead of
                // alternating between them component by component.
                for &level in &admitted {
                    run.chain.component(level).descend_to_run(value)?;
                }
            }
            for level in admitted {
                run.open(level)?;
            }
        }
        Ok(run)
    }

    /// Streaming range PTQ: per-component [`RangeRun`]s pulled
    /// **round-robin** (each is one seek + one sequential run; the buffer
    /// pool tracks every hinted run concurrently, so interleaving keeps
    /// each component's prefetched window hot instead of letting it age
    /// out while an earlier component drains), suppression applied as
    /// rows surface, insert-buffer matches last. Rows are unordered
    /// across components; sinks sort. `run_pages` arms each component's
    /// read-ahead as for [`point_run`](Self::point_run).
    pub fn range_run(
        self,
        lo: u64,
        hi: u64,
        qt: f64,
        run_pages: &[usize],
    ) -> Result<ChainRangeRun<'a>> {
        let streams = self
            .components()
            .enumerate()
            .map(|(level, u)| u.range_run(lo, hi, qt, run_pages.get(level).copied()))
            .collect::<Result<Vec<_>>>()?;
        let attr = self.main.attr();
        let buffered = self.buffered_matches(qt, |t| buffered_confidence(t, attr, lo, hi));
        let suppressed = vec![0; streams.len()];
        let rr = RoundRobin::new(streams.len());
        Ok(ChainRangeRun {
            chain: self,
            streams,
            rr,
            buffered: buffered.into_iter(),
            suppressed,
        })
    }

    /// Streaming secondary PTQ: per-component [`SecondaryRun`]s with
    /// suppression applied *before* pointer choice (suppressed tuples
    /// never reach the heap), pulled round-robin so every component's
    /// heap-order fetch stream advances together, insert-buffer matches
    /// last. `limit` bounds each component's post-suppression entry count
    /// — sound for top-k because the global top-k is a subset of the
    /// per-component top-k unions. `run_pages` holds each component's
    /// estimated entry-run length, armed as for
    /// [`point_run`](Self::point_run).
    pub fn secondary_run(
        self,
        sec_idx: usize,
        value: u64,
        qt: f64,
        tailored: bool,
        limit: Option<usize>,
        run_pages: &[usize],
    ) -> Result<ChainSecondaryRun<'a>> {
        let mut streams = Vec::with_capacity(self.n_components());
        for (level, upi) in self.components().enumerate() {
            let keep = |tid: u64| !self.suppressed(tid, level);
            let pages = run_pages.get(level).copied();
            streams.push(upi.secondary_run(sec_idx, value, qt, tailored, limit, &keep, pages)?);
        }
        let sec_attr = self.main.secondaries()[sec_idx].attr();
        let buffered =
            self.buffered_matches(qt, |t| buffered_confidence(t, sec_attr, value, value));
        let rr = RoundRobin::new(streams.len());
        Ok(ChainSecondaryRun {
            streams,
            rr,
            buffered: buffered.into_iter(),
        })
    }
}

/// Round-robin scheduler over N still-active streams: the interleaving
/// kernel shared by the fractured range/secondary merges (and, one level
/// up, the shard scatter-gather merge). Advancing after every pull keeps
/// all concurrently-hinted prefetch windows hot in the buffer pool
/// instead of draining one component while the others' windows age out.
pub(crate) struct RoundRobin {
    at: usize,
    live: Vec<bool>,
    n_live: usize,
}

impl RoundRobin {
    pub(crate) fn new(n: usize) -> RoundRobin {
        RoundRobin {
            at: 0,
            live: vec![true; n],
            n_live: n,
        }
    }

    /// The stream to pull from next, `None` once every stream retired.
    pub(crate) fn current(&mut self) -> Option<usize> {
        if self.n_live == 0 {
            return None;
        }
        while !self.live[self.at] {
            self.at = (self.at + 1) % self.live.len();
        }
        Some(self.at)
    }

    /// Move on to the next live stream (after a successful pull).
    pub(crate) fn advance(&mut self) {
        self.at = (self.at + 1) % self.live.len();
    }

    /// Retire an exhausted stream.
    pub(crate) fn retire(&mut self, i: usize) {
        if std::mem::replace(&mut self.live[i], false) {
            self.n_live -= 1;
        }
    }
}

/// Record a surviving row's confidence in the ascending running-top-k
/// set (the watermark feeder of [`Chain::point_run`] and of the
/// shard-level scatter-gather merge).
pub(crate) fn note_seen(topk: &mut Vec<f64>, k: usize, conf: f64) {
    let at = topk.partition_point(|&c| c < conf);
    topk.insert(at, conf);
    if topk.len() > k {
        topk.remove(0);
    }
}

/// The current k-th-confidence watermark: only meaningful once k
/// surviving rows have been seen (before that there is no bound).
pub(crate) fn watermark(topk: &[f64], k: usize) -> f64 {
    if k > 0 && topk.len() >= k {
        topk[0]
    } else {
        f64::NEG_INFINITY
    }
}

/// A running top-k confidence watermark — the early-exit kernel of the
/// chain's point merge ([`Chain::point_run`]), packaged so a
/// scatter-gather merge one level up (`upi_query`'s shard merge) can
/// share **one** global watermark across many independent cursors:
/// every surviving row's confidence is [`note`](Self::note)d, and any
/// cursor whose best remaining confidence falls below
/// [`floor`](Self::floor) can stop its source I/O — rows strictly below
/// the k-th best seen so far can never reach the top k.
#[derive(Debug, Clone)]
pub struct TopKWatermark {
    topk: Vec<f64>,
    k: usize,
}

impl TopKWatermark {
    /// Watermark over the `k` best confidences seen so far.
    pub fn new(k: usize) -> TopKWatermark {
        TopKWatermark {
            topk: Vec::new(),
            k,
        }
    }

    /// Record one surviving row's confidence.
    pub fn note(&mut self, conf: f64) {
        note_seen(&mut self.topk, self.k, conf);
    }

    /// The current k-th-best confidence — `NEG_INFINITY` until `k` rows
    /// have been seen (before that there is no bound). Only ever rises.
    pub fn floor(&self) -> f64 {
        watermark(&self.topk, self.k)
    }
}

/// K-way merge cursor over a chain's components (see
/// [`Chain::point_run`]).
pub struct ChainPointRun<'a> {
    chain: Chain<'a>,
    value: u64,
    qt: f64,
    /// Per-component estimated run lengths (read-ahead hints), armed at
    /// open; empty = no hints.
    run_pages: Vec<usize>,
    /// One stream per on-disk component, `None` until opened; index ==
    /// suppression level.
    streams: Vec<Option<PointRun<'a>>>,
    /// Each component's confidence bound for the value.
    bounds: Vec<f64>,
    /// One merge head per stream; empty when there is nothing to merge.
    heads: Vec<Option<PtqResult>>,
    buffered: std::vec::IntoIter<PtqResult>,
    buf_head: Option<PtqResult>,
    /// Top-k bound (`None` = unbounded merge).
    limit: Option<usize>,
    /// Ascending confidences of the k best surviving rows seen so far
    /// (heads + emitted + insert buffer); `[0]` is the watermark.
    seen_topk: Vec<f64>,
    /// External confidence floor (a *global* top-k watermark shared
    /// across sibling merges, e.g. other shards of a sharded table);
    /// combined with the internal watermark via `max`. Raise-only.
    ext_floor: f64,
}

impl ChainPointRun<'_> {
    /// Per-component instrumentation counters (index 0 = the main UPI,
    /// then one entry per fracture; suppression and decode work are
    /// pushed into each component cursor, so they land here). An
    /// unopened component did no work.
    pub fn component_stats(&self) -> Vec<CursorStats> {
        self.streams
            .iter()
            .map(|s| s.as_ref().map_or_else(CursorStats::default, |s| s.stats()))
            .collect()
    }

    /// Per component, the structure it left unopened and the bound that
    /// ruled it out: the whole component ([`Skip::NoRow`],
    /// [`Skip::Component`] against the confidence the merge needs now),
    /// or an opened component's cutoff list ([`Skip::CutoffList`]). A
    /// component still unopened only because the consumer stopped
    /// pulling has no note.
    pub fn component_skips(&self) -> Vec<Option<Skip>> {
        let floor = self.floor().max(self.qt);
        self.streams
            .iter()
            .zip(&self.bounds)
            .map(|(s, &bound)| match s {
                Some(s) => s.skipped(),
                None if bound == 0.0 => Some(Skip::NoRow),
                None => (bound < floor).then_some(Skip::Component { bound, floor }),
            })
            .collect()
    }

    /// Raise the external confidence floor: rows strictly below `floor`
    /// are dropped and component cursors stop their source I/O once
    /// nothing at/above it can remain. Used by a sharded scatter-gather
    /// merge to propagate the *global* top-k watermark into this shard's
    /// merge; only ever raises (a watermark cannot recede), and only a
    /// bounded (top-k) merge takes one.
    pub fn raise_conf_floor(&mut self, floor: f64) {
        debug_assert!(self.limit.is_some(), "a floor needs confidence order");
        if floor > self.ext_floor {
            self.ext_floor = floor;
        }
    }

    /// The confidence a row still needs: the internal top-k watermark
    /// combined with the external floor.
    fn floor(&self) -> f64 {
        match self.limit {
            Some(k) => watermark(&self.seen_topk, k),
            None => f64::NEG_INFINITY,
        }
        .max(self.ext_floor)
    }

    /// Whether component `level` can hold a qualifying row at all: some
    /// row was stored for the value's bucket, at a bound reaching `qt`.
    fn admitted(&self, level: usize) -> bool {
        let bound = self.bounds[level];
        bound > 0.0 && bound >= self.qt
    }

    /// Open component `level`'s cursor, arming its run hint.
    fn open(&mut self, level: usize) -> Result<()> {
        let upi = self.chain.component(level);
        let pages = self.run_pages.get(level).copied();
        let run = upi.point_run(self.value, self.qt, self.limit.is_some(), pages)?;
        self.streams[level] = Some(run);
        Ok(())
    }

    /// The next *surviving* (non-suppressed) row of component `level`.
    /// Suppression and the top-k watermark are pushed into the
    /// component's [`PointRun`], so suppressed cutoff pointers are skipped
    /// without a heap fetch and a component whose next candidate cannot
    /// reach the watermark stops scanning its cutoff list entirely.
    fn pull(&mut self, level: usize) -> Option<Result<PtqResult>> {
        let wm = self.floor();
        let chain = self.chain;
        let stream = self.streams[level].as_mut()?;
        let r = stream.next_where(wm, &|tid| !chain.suppressed(tid, level))?;
        if let (Ok(r), Some(k)) = (&r, self.limit) {
            note_seen(&mut self.seen_topk, k, r.confidence);
        }
        Some(r)
    }

    /// Refill every empty head of an opened stream, then the insert
    /// buffer's.
    fn fill_heads(&mut self) -> Result<()> {
        for level in 0..self.streams.len() {
            if self.heads[level].is_none() {
                if let Some(r) = self.pull(level) {
                    self.heads[level] = Some(r?);
                }
            }
        }
        if self.buf_head.is_none() {
            self.buf_head = self.buffered.next();
        }
        Ok(())
    }

    /// Top-k: open, one at a time, every unopened component whose bound
    /// could beat or tie the best current head (the insert buffer's
    /// included) and reaches the floor — highest bound first, lowest
    /// level on ties — and pull its head. A component whose bound is
    /// below the floor stays unopened for good (the floor only rises).
    fn open_contenders(&mut self) -> Result<()> {
        loop {
            let floor = self.floor();
            let mut pick: Option<usize> = None;
            for level in 0..self.streams.len() {
                let bound = self.bounds[level];
                if self.streams[level].is_some() || !self.admitted(level) || bound < floor {
                    continue;
                }
                if pick.is_none_or(|p| bound > self.bounds[p]) {
                    pick = Some(level);
                }
            }
            let Some(level) = pick else { return Ok(()) };
            let best = self.heads.iter().chain([&self.buf_head]).flatten();
            if best.map(|r| r.confidence).any(|c| c > self.bounds[level]) {
                return Ok(());
            }
            self.open(level)?;
            if let Some(r) = self.pull(level) {
                self.heads[level] = Some(r?);
            }
        }
    }
}

impl Iterator for ChainPointRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.heads.is_empty() {
            // A lone stream: its rows are the merge's, and only an
            // external floor can bound it.
            let chain = self.chain;
            let keep = |tid| !chain.suppressed(tid, 0);
            return self.streams[0].as_mut()?.next_where(self.ext_floor, &keep);
        }
        if let Err(e) = self.fill_heads() {
            return Some(Err(e));
        }
        if self.limit.is_some() {
            if let Err(e) = self.open_contenders() {
                return Some(Err(e));
            }
        }
        // Pick the winner: highest confidence, ties by lowest tid.
        let rank = |r: &PtqResult| (r.confidence, std::cmp::Reverse(r.tuple.id.0));
        let mut best: Option<usize> = None;
        for (i, h) in self.heads.iter().enumerate() {
            if let Some(r) = h {
                if best.is_none_or(|b| rank(r) > rank(self.heads[b].as_ref().unwrap())) {
                    best = Some(i);
                }
            }
        }
        let buffer_wins = match (&self.buf_head, best) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(r), Some(b)) => rank(r) > rank(self.heads[b].as_ref().unwrap()),
        };
        if buffer_wins {
            return Some(Ok(self.buf_head.take().unwrap()));
        }
        best.map(|b| Ok(self.heads[b].take().unwrap()))
    }
}

/// Round-robin-interleaved per-component range streams with suppression
/// (see [`Chain::range_run`]).
pub struct ChainRangeRun<'a> {
    chain: Chain<'a>,
    streams: Vec<RangeRun<'a>>,
    rr: RoundRobin,
    buffered: std::vec::IntoIter<PtqResult>,
    /// Rows dropped by suppression *after* surfacing from each component
    /// (range suppression is checked post-pull, unlike the point merge).
    suppressed: Vec<u64>,
}

impl ChainRangeRun<'_> {
    /// Per component, the cutoff phase its bound let it skip, if any
    /// ([`Skip::CutoffPhase`]).
    pub fn component_skips(&self) -> Vec<Option<Skip>> {
        self.streams.iter().map(|s| s.skipped()).collect()
    }

    /// Per-component instrumentation counters (index 0 = the main UPI,
    /// then one entry per fracture), including post-pull suppressions.
    pub fn component_stats(&self) -> Vec<CursorStats> {
        self.streams
            .iter()
            .zip(&self.suppressed)
            .map(|(s, &sup)| {
                let mut st = s.stats();
                st.suppressed += sup;
                st.rows -= sup; // suppressed rows never reached the consumer
                st
            })
            .collect()
    }
}

impl Iterator for ChainRangeRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(i) = self.rr.current() {
            match self.streams[i].next() {
                Some(Err(e)) => return Some(Err(e)),
                Some(Ok(r)) => {
                    self.rr.advance();
                    if !self.chain.suppressed(r.tuple.id.0, i) {
                        return Some(Ok(r));
                    }
                    self.suppressed[i] += 1;
                }
                None => self.rr.retire(i),
            }
        }
        self.buffered.next().map(Ok)
    }
}

/// Round-robin-interleaved per-component secondary probes (suppression
/// already applied at entry-choice time; see [`Chain::secondary_run`]).
pub struct ChainSecondaryRun<'a> {
    streams: Vec<SecondaryRun<'a>>,
    rr: RoundRobin,
    buffered: std::vec::IntoIter<PtqResult>,
}

impl ChainSecondaryRun<'_> {
    /// Per-component instrumentation counters (index 0 = the main UPI,
    /// then one entry per fracture; suppression was applied at
    /// entry-choice time, so it is already counted inside each stream).
    pub fn component_stats(&self) -> Vec<CursorStats> {
        self.streams.iter().map(|s| s.stats()).collect()
    }
}

impl Iterator for ChainSecondaryRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(i) = self.rr.current() {
            match self.streams[i].next() {
                Some(r) => {
                    self.rr.advance();
                    return Some(r);
                }
                None => self.rr.retire(i),
            }
        }
        self.buffered.next().map(Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, DiscretePmf, Field};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
    }

    fn author(id: u64, inst: u64, p: f64) -> Tuple {
        let spill = ((1.0 - p) / 2.0).max(0.01);
        Tuple::new(
            TupleId(id),
            0.95,
            vec![
                Field::Certain(Datum::Str(format!("author-{id}"))),
                Field::Discrete(DiscretePmf::new(vec![(inst, p), (inst + 100, spill)])),
                Field::Discrete(DiscretePmf::new(vec![(inst % 7, 1.0)])),
            ],
        )
    }

    fn fresh(buffer_ops: usize) -> FracturedUpi {
        FracturedUpi::create(
            store(),
            "frac",
            1,
            &[2],
            FracturedConfig {
                buffer_ops,
                ..FracturedConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn buffer_then_flush_preserves_answers() {
        let mut f = fresh(0);
        let initial: Vec<Tuple> = (0..200).map(|i| author(i, i % 10, 0.8)).collect();
        f.load_initial(&initial).unwrap();
        f.insert(author(1000, 3, 0.9)).unwrap();
        let before = f.ptq(3, 0.5).unwrap();
        assert!(before.iter().any(|r| r.tuple.id.0 == 1000));
        assert_eq!(f.n_fractures(), 0);
        f.flush().unwrap();
        assert_eq!(f.n_fractures(), 1);
        assert_eq!(f.buffered_ops(), 0);
        let after = f.ptq(3, 0.5).unwrap();
        assert_eq!(before.len(), after.len());
        assert!(after.iter().any(|r| r.tuple.id.0 == 1000));
    }

    #[test]
    fn deletes_suppress_older_copies_only() {
        let mut f = fresh(0);
        f.load_initial(&[author(1, 5, 0.8), author(2, 5, 0.8)])
            .unwrap();
        f.delete(TupleId(1)).unwrap();
        assert_eq!(f.ptq(5, 0.1).unwrap().len(), 1);
        f.flush().unwrap();
        assert_eq!(f.ptq(5, 0.1).unwrap().len(), 1);
        // Re-insert id 1 in a NEWER fracture: it must be visible again.
        f.insert(author(1, 5, 0.9)).unwrap();
        f.flush().unwrap();
        let res = f.ptq(5, 0.1).unwrap();
        assert_eq!(res.len(), 2);
        let revived = res.iter().find(|r| r.tuple.id.0 == 1).unwrap();
        assert!((revived.confidence - 0.9 * 0.95).abs() < 1e-6);
    }

    #[test]
    fn delete_of_buffered_insert_cancels_in_ram() {
        let mut f = fresh(0);
        f.load_initial(&[author(1, 5, 0.8)]).unwrap();
        f.insert(author(99, 5, 0.9)).unwrap();
        f.delete(TupleId(99)).unwrap();
        assert_eq!(f.buffered_ops(), 0, "insert+delete cancel in RAM");
        assert_eq!(f.ptq(5, 0.1).unwrap().len(), 1);
    }

    #[test]
    fn autoflush_triggers_at_capacity() {
        let mut f = fresh(10);
        f.load_initial(&[author(0, 1, 0.8)]).unwrap();
        for i in 1..=25 {
            f.insert(author(i, 1, 0.8)).unwrap();
        }
        assert!(f.n_fractures() >= 2, "two autoflushes at buffer_ops=10");
        assert_eq!(f.ptq(1, 0.1).unwrap().len(), 26);
    }

    #[test]
    fn merge_collapses_fractures_and_preserves_answers() {
        let mut f = fresh(0);
        let initial: Vec<Tuple> = (0..300).map(|i| author(i, i % 10, 0.8)).collect();
        f.load_initial(&initial).unwrap();
        for batch in 0..3u64 {
            for i in 0..50u64 {
                f.insert(author(1000 + batch * 50 + i, i % 10, 0.85))
                    .unwrap();
            }
            for i in 0..5u64 {
                f.delete(TupleId(batch * 5 + i)).unwrap();
            }
            f.flush().unwrap();
        }
        assert_eq!(f.n_fractures(), 3);
        let before: Vec<(u64, u64)> = f
            .ptq(4, 0.1)
            .unwrap()
            .iter()
            .map(|r| (r.tuple.id.0, (r.confidence * 1e9) as u64))
            .collect();
        let bytes_before = f.total_bytes();
        f.merge().unwrap();
        assert_eq!(f.n_fractures(), 0);
        let after: Vec<(u64, u64)> = f
            .ptq(4, 0.1)
            .unwrap()
            .iter()
            .map(|r| (r.tuple.id.0, (r.confidence * 1e9) as u64))
            .collect();
        assert_eq!(before, after, "merge must not change query answers");
        // Merged DB is no bigger than the fractured one (deletes applied).
        assert!(f.total_bytes() <= bytes_before);
    }

    #[test]
    fn merge_cost_is_about_read_plus_write_of_the_db() {
        // Table 8's claim: merging ≈ sequentially reading + writing the DB.
        // File-open charges (Cost_init) are excluded: they are fixed
        // per-component costs that vanish at real scale but dominate a
        // unit-test-sized database.
        let st = store();
        let mut f =
            FracturedUpi::create(st.clone(), "m", 1, &[], FracturedConfig::default()).unwrap();
        let initial: Vec<Tuple> = (0..20_000).map(|i| author(i, i % 20, 0.8)).collect();
        f.load_initial(&initial).unwrap();
        for i in 0..5_000u64 {
            f.insert(author(100_000 + i, i % 20, 0.8)).unwrap();
        }
        f.flush().unwrap();
        let db_bytes = f.total_bytes();
        st.go_cold();
        let before = st.disk.stats();
        f.merge().unwrap();
        st.pool.flush_all();
        let d = st.disk.stats().since(&before);
        let elapsed = d.total_ms() - d.init_ms;
        let cfg = st.disk.config();
        let expected = cfg.read_cost_ms(db_bytes) + cfg.write_cost_ms(db_bytes);
        // Within 3x (the new main's size differs from the old DB's; seeks
        // between interleaved files add a little).
        assert!(
            elapsed > expected * 0.3 && elapsed < expected * 3.0,
            "merge {elapsed:.0}ms vs sequential-read+write {expected:.0}ms"
        );
    }

    #[test]
    fn secondary_queries_span_components() {
        let mut f = fresh(0);
        f.load_initial(&[author(1, 7, 0.8)]).unwrap(); // country 0
        f.insert(author(2, 14, 0.8)).unwrap(); // country 0
        f.flush().unwrap();
        f.insert(author(3, 21, 0.8)).unwrap(); // country 0, buffered
        let res = f.ptq_secondary(0, 0, 0.1, true).unwrap();
        let mut ids: Vec<u64> = res.iter().map(|r| r.tuple.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn streaming_runs_match_batch_across_components() {
        // Main + one fracture + live insert buffer + deletes: every
        // streaming cursor must agree with its batch counterpart.
        let mut f = fresh(0);
        let initial: Vec<Tuple> = (0..120).map(|i| author(i, i % 6, 0.8)).collect();
        f.load_initial(&initial).unwrap();
        for i in 0..40u64 {
            f.insert(author(500 + i, i % 6, 0.85)).unwrap();
        }
        for i in 0..6u64 {
            f.delete(TupleId(i)).unwrap();
        }
        f.flush().unwrap();
        for i in 0..10u64 {
            f.insert(author(900 + i, i % 6, 0.9)).unwrap(); // stays buffered
        }
        f.delete(TupleId(7)).unwrap();

        let key = |r: &PtqResult| (r.tuple.id.0, (r.confidence * 1e9).round() as u64);
        for qt in [0.0, 0.1, 0.5] {
            // Point: a bounded merge is confidence-ordered and equal to batch.
            let batch = f.ptq(3, qt).unwrap();
            let streamed: Vec<PtqResult> = f
                .chain()
                .point_run(3, qt, Some(usize::MAX), &[])
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            assert_eq!(
                batch.iter().map(key).collect::<Vec<_>>(),
                streamed.iter().map(key).collect::<Vec<_>>(),
                "point qt={qt}"
            );
            for w in streamed.windows(2) {
                assert!(w[0].confidence >= w[1].confidence, "merge order broken");
            }
            // Range.
            let mut batch = f.ptq_range(1, 4, qt).unwrap();
            let mut streamed: Vec<PtqResult> = f
                .chain()
                .range_run(1, 4, qt, &[])
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            sort_results(&mut batch);
            sort_results(&mut streamed);
            assert_eq!(
                batch.iter().map(key).collect::<Vec<_>>(),
                streamed.iter().map(key).collect::<Vec<_>>(),
                "range qt={qt}"
            );
            // Secondary (tailored and plain).
            for tailored in [true, false] {
                let mut batch = f.ptq_secondary(0, 2, qt, tailored).unwrap();
                let mut streamed: Vec<PtqResult> = f
                    .chain()
                    .secondary_run(0, 2, qt, tailored, None, &[])
                    .unwrap()
                    .collect::<Result<_>>()
                    .unwrap();
                sort_results(&mut batch);
                sort_results(&mut streamed);
                assert_eq!(
                    batch.iter().map(key).collect::<Vec<_>>(),
                    streamed.iter().map(key).collect::<Vec<_>>(),
                    "secondary qt={qt} tailored={tailored}"
                );
            }
        }
    }

    #[test]
    fn n_live_tuples_tracks_changes() {
        let mut f = fresh(0);
        f.load_initial(&(0..100).map(|i| author(i, 1, 0.8)).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(f.n_live_tuples(), 100);
        f.insert(author(200, 1, 0.8)).unwrap();
        f.delete(TupleId(5)).unwrap();
        assert_eq!(f.n_live_tuples(), 100);
        f.flush().unwrap();
        assert_eq!(f.n_live_tuples(), 100);
        f.merge().unwrap();
        assert_eq!(f.n_live_tuples(), 100);
    }

    /// Deleting a *buffered* version of a tuple must not resurrect an
    /// older on-disk version of the same id. Regression: the buffered
    /// insert was shadowing the flushed original, and delete used to drop
    /// the buffer entry without leaving a marker behind.
    #[test]
    fn delete_of_buffered_update_suppresses_older_versions() {
        let mut f = fresh(0);
        f.insert(author(7, 1, 0.8)).unwrap();
        f.flush().unwrap(); // v1 lives in fracture 0

        // Update: delete v1 + insert v2, both while v2 stays buffered.
        f.delete(TupleId(7)).unwrap();
        f.insert(author(7, 2, 0.9)).unwrap();
        assert_eq!(f.n_live_tuples(), 1);

        // Delete the buffered v2 — id 7 must now be gone everywhere.
        f.delete(TupleId(7)).unwrap();
        assert_eq!(f.n_live_tuples(), 0);
        assert!(f.live_tuples().unwrap().is_empty());
        assert!(f.ptq(1, 0.0).unwrap().is_empty(), "v1 resurrected");
        assert!(f.ptq(2, 0.0).unwrap().is_empty(), "v2 survived its delete");

        // And the emptiness must survive a flush of the delete marker.
        f.flush().unwrap();
        assert!(f.ptq(1, 0.0).unwrap().is_empty());
        assert_eq!(f.n_live_tuples(), 0);

        // Same shape against a version living in *main* (not a fracture).
        let mut g = fresh(0);
        g.load_initial(&[author(3, 1, 0.8)]).unwrap();
        g.delete(TupleId(3)).unwrap();
        g.insert(author(3, 2, 0.9)).unwrap();
        g.delete(TupleId(3)).unwrap();
        assert!(
            g.ptq(1, 0.0).unwrap().is_empty(),
            "main version resurrected"
        );
        assert_eq!(g.n_live_tuples(), 0);
    }

    /// Build a fractured UPI with several fractures carrying inserts,
    /// deletes and updates, plus a live insert buffer — the layout every
    /// incremental-merge test steps over.
    fn deteriorated() -> FracturedUpi {
        let mut f = fresh(0);
        let initial: Vec<Tuple> = (0..1200).map(|i| author(i, i % 8, 0.8)).collect();
        f.load_initial(&initial).unwrap();
        for batch in 0..4u64 {
            for i in 0..30u64 {
                f.insert(author(1000 + batch * 30 + i, i % 8, 0.85))
                    .unwrap();
            }
            for i in 0..4u64 {
                f.delete(TupleId(batch * 4 + i)).unwrap();
            }
            // An update of a row from an older component: delete + insert.
            let vic = 100 + batch;
            f.delete(TupleId(vic)).unwrap();
            f.insert(author(vic, (vic % 8) + 1, 0.9)).unwrap();
            f.flush().unwrap();
        }
        // Live buffered tail: inserts and a delete of an on-disk row.
        for i in 0..7u64 {
            f.insert(author(2000 + i, i % 8, 0.9)).unwrap();
        }
        f.delete(TupleId(150)).unwrap();
        f
    }

    /// What the persisted chain says, read back from disk: per component
    /// (0 = main, `i + 1` = fracture `i`) the ids its heap stores, and per
    /// fracture the ids its delete tree holds.
    struct Persisted {
        stored: Vec<IdSet<u64>>,
        deleted: Vec<IdSet<u64>>,
    }

    impl Persisted {
        fn read(f: &FracturedUpi) -> Persisted {
            let stored = f
                .chain()
                .components()
                .map(|upi| {
                    let mut records = Records::default();
                    upi.scan_records(&mut records, |_| true).unwrap();
                    records.ids().collect()
                })
                .collect();
            let deleted = f
                .fractures
                .iter()
                .map(|fr| fr.read_delete_set().unwrap().into_iter().collect())
                .collect();
            Persisted { stored, deleted }
        }

        /// The fracture walk `suppressed` answers in one lookup: a newer
        /// fracture's heap or delete tree, or the insert buffer.
        fn suppressed(&self, f: &FracturedUpi, tid: u64, level: usize) -> bool {
            // Fracture `i` is level `i + 1`: the newer ones are `i >= level`.
            let newer =
                |i: usize| self.stored[i + 1].contains(&tid) || self.deleted[i].contains(&tid);
            (level..self.deleted.len()).any(newer)
                || f.buf_deletes.contains(&tid)
                || f.buf_inserts.contains_key(&tid)
        }

        /// Rows visible to a query: each component's unsuppressed ids,
        /// plus the insert buffer.
        fn n_live(&self, f: &FracturedUpi) -> u64 {
            let visible = self.stored.iter().enumerate().flat_map(|(level, ids)| {
                ids.iter()
                    .filter(move |&&tid| !self.suppressed(f, tid, level))
            });
            (visible.count() + f.buf_inserts.len()) as u64
        }
    }

    #[test]
    fn suppression_lookup_equals_the_fracture_walk_on_random_chains() {
        use rand::{Rng, SeedableRng};
        for seed in 0..6u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut f = fresh(0);
            let ids = 160u64;
            let initial: Vec<Tuple> = (0..ids / 2).map(|i| author(i, i % 8, 0.8)).collect();
            f.load_initial(&initial).unwrap();
            for _ in 0..24 {
                for _ in 0..rng.gen_range(0..12) {
                    let id = rng.gen_range(0..ids);
                    if rng.gen_bool(0.6) {
                        f.insert(author(id, id % 8, 0.85)).unwrap();
                    } else {
                        f.delete(TupleId(id)).unwrap();
                    }
                }
                match rng.gen_range(0..6) {
                    0 => {
                        let n = f.n_fractures();
                        f.apply_compaction(CompactionStep::FoldPrefix {
                            fractures: rng.gen_range(0..=n),
                        })
                        .unwrap();
                    }
                    1 => {
                        let first = rng.gen_range(0..=f.n_fractures());
                        let last = first + rng.gen_range(1..4usize);
                        f.apply_compaction(CompactionStep::CompactRun { first, last })
                            .unwrap();
                    }
                    _ => f.flush().unwrap(),
                }
                let persisted = Persisted::read(&f);
                for tid in 0..ids {
                    for level in 0..=f.n_fractures() + 1 {
                        assert_eq!(
                            f.suppressed(tid, level),
                            persisted.suppressed(&f, tid, level),
                            "seed {seed}, tuple {tid}, level {level}"
                        );
                    }
                }
                assert_eq!(f.n_live_tuples(), persisted.n_live(&f), "seed {seed}");
            }
        }
    }

    /// A delete leaves a marker iff an on-disk version is visible under
    /// the buffered one: not for an id whose newest fracture deletes it,
    /// though main still stores an older version.
    #[test]
    fn deleting_a_reinserted_id_leaves_a_marker_only_over_a_visible_version() {
        let mut f = fresh(0);
        f.load_initial(&[author(1, 3, 0.8), author(2, 3, 0.8)])
            .unwrap();
        f.delete(TupleId(1)).unwrap();
        f.flush().unwrap(); // fracture 0 deletes id 1; main still stores it
        f.insert(author(1, 4, 0.9)).unwrap();
        f.delete(TupleId(1)).unwrap();
        assert_eq!(f.buffered_ops(), 0, "no visible version: no marker");
        // Id 2's main version is visible under its buffered update.
        f.delete(TupleId(2)).unwrap();
        f.insert(author(2, 4, 0.9)).unwrap();
        f.delete(TupleId(2)).unwrap();
        assert_eq!(f.buffered_ops(), 1, "a visible version keeps its marker");
        for _ in 0..2 {
            assert_eq!(f.n_live_tuples(), 0);
            assert!(f.live_tuples().unwrap().is_empty());
            assert!(
                f.ptq(3, 0.0).unwrap().is_empty(),
                "main version resurrected"
            );
            f.flush().unwrap();
        }
    }

    fn all_answers(f: &FracturedUpi) -> Vec<(u64, u64)> {
        let key = |r: &PtqResult| (r.tuple.id.0, (r.confidence * 1e9).round() as u64);
        let mut out = Vec::new();
        for v in 0..9u64 {
            out.extend(f.ptq(v, 0.1).unwrap().iter().map(key));
            out.extend(
                f.ptq_secondary(0, v % 7, 0.2, true)
                    .unwrap()
                    .iter()
                    .map(key),
            );
        }
        out.extend(f.ptq_range(2, 6, 0.0).unwrap().iter().map(key));
        out
    }

    #[test]
    fn merge_steps_preserve_answers_and_converge_to_one_component() {
        let mut f = deteriorated();
        assert_eq!(f.n_fractures(), 4);
        let coeffs = DeviceCoeffs::from_disk(f.store.disk.config());
        let before = all_answers(&f);
        let live_before = f.n_live_tuples();
        let mut steps = 0;
        loop {
            let eliminated = f.merge_step(&coeffs, f64::INFINITY).unwrap();
            if eliminated == 0 {
                break;
            }
            steps += 1;
            assert_eq!(
                all_answers(&f),
                before,
                "answers drifted after step {steps}"
            );
            assert_eq!(f.n_live_tuples(), live_before);
            assert!(steps <= 8, "incremental merge failed to converge");
        }
        assert_eq!(f.n_fractures(), 0, "converged chain is a single component");
        assert!(
            f.buffered_ops() > 0,
            "merge steps leave the RAM buffer alone"
        );
    }

    #[test]
    fn bounded_budget_compacts_fracture_runs_without_touching_main() {
        let mut f = deteriorated();
        let coeffs = DeviceCoeffs::from_disk(f.store.disk.config());
        let sizes = f.component_bytes();
        assert_eq!(sizes.len(), 5);
        // Budget covering all four fractures but not main: the step must
        // be a run compaction, shrinking the chain while main survives.
        let frac_bytes: u64 = sizes[1..].iter().sum();
        let budget = crate::maintenance::merge_slice_cost_ms(&coeffs, frac_bytes) + 1e-9;
        assert!(crate::maintenance::merge_slice_cost_ms(&coeffs, sizes[0]) > budget);
        let before = all_answers(&f);
        let eliminated = f.merge_step(&coeffs, budget).unwrap();
        assert_eq!(eliminated, 3, "all four fractures compact into one");
        assert_eq!(f.n_fractures(), 1);
        assert_eq!(all_answers(&f), before);
        // Zero budget: nothing fits, the chain is untouched.
        assert_eq!(f.merge_step(&coeffs, 0.0).unwrap(), 0);
        assert_eq!(f.n_fractures(), 1);
    }

    #[test]
    fn compacted_run_keeps_suppressing_older_components() {
        // A delete marker for a main-resident row lives in fracture 1;
        // compacting fractures 0..=1 must keep that marker, and a row
        // deleted-then-reinserted across the run must keep exactly its
        // newest version.
        let mut f = fresh(0);
        f.load_initial(&[author(1, 3, 0.8), author(2, 3, 0.8)])
            .unwrap();
        f.insert(author(10, 3, 0.7)).unwrap();
        f.flush().unwrap(); // fracture 0: id 10 v1
        f.delete(TupleId(1)).unwrap(); // suppresses main
        f.delete(TupleId(10)).unwrap();
        f.insert(author(10, 4, 0.9)).unwrap(); // id 10 v2
        f.flush().unwrap(); // fracture 1
        assert_eq!(f.n_fractures(), 2);

        let coeffs = DeviceCoeffs::from_disk(f.store.disk.config());
        let eliminated = f
            .apply_compaction(CompactionStep::CompactRun { first: 0, last: 1 })
            .unwrap();
        assert_eq!(eliminated, 1);
        assert_eq!(f.n_fractures(), 1);
        let _ = coeffs;
        assert!(
            f.ptq(3, 0.0).unwrap().iter().all(|r| r.tuple.id.0 != 1),
            "delete marker for the main-resident row was dropped"
        );
        assert!(
            f.ptq(3, 0.0).unwrap().iter().all(|r| r.tuple.id.0 != 10),
            "stale v1 of the updated row survived the run compaction"
        );
        let v2 = f.ptq(4, 0.0).unwrap();
        assert_eq!(v2.len(), 1);
        assert_eq!(v2[0].tuple.id.0, 10);
        assert_eq!(f.n_live_tuples(), 2, "id 2 in main + id 10 v2");
    }
}
