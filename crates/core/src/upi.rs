//! The discrete UPI: clustered heap + cutoff index + secondary indexes
//! (§§2–3, Algorithms 1–3).

use std::collections::HashSet;

use upi_btree::{BTree, Cursor, TreeStats};
use upi_storage::codec::{dequantize_prob, quantize_prob};
use upi_storage::error::{Result, StorageError};
use upi_storage::Store;
use upi_uncertain::tuple::encode_tuple;
use upi_uncertain::{AttrStats, IdMap, IdSet, Tuple, TupleView};

use crate::cutoff::{CutoffIndex, CutoffPointer};
use crate::exec::{CursorStats, PtqResult};
use crate::fractured::Chain;
use crate::keys;
use crate::records::{corrupt_record, fetch_tuple, Records};
use crate::secondary::{SecBuild, SecondaryIndex};

/// Tuning parameters of a UPI (per-fracture tunable, §4.2).
#[derive(Debug, Clone, Copy)]
pub struct UpiConfig {
    /// The cutoff threshold `C`: alternatives with folded probability below
    /// it are stored in the cutoff index instead of the heap (§3.1).
    pub cutoff: f64,
    /// Page size of the heap / cutoff / secondary B+Trees.
    pub page_size: u32,
    /// Maximum pointers per secondary-index entry (§3.2's tuning option).
    pub max_secondary_pointers: usize,
}

impl Default for UpiConfig {
    fn default() -> Self {
        UpiConfig {
            cutoff: 0.1,
            page_size: 8192,
            max_secondary_pointers: 10,
        }
    }
}

/// Folded `(value, confidence)` alternatives of one tuple.
type Alts = Vec<(u64, f64)>;

/// A `(value, prob DESC, tid)` key as a bulk build sorts it.
type EntryKey = [u8; keys::ENTRY_KEY_LEN];

/// A primary (clustered) index on a discrete uncertain attribute.
///
/// The heap file is a B+Tree keyed `{value ASC, confidence DESC, tid}`
/// whose values are whole encoded tuples, duplicated once per non-cutoff
/// alternative (Table 2). Below-cutoff alternatives live in the
/// [`CutoffIndex`]; secondary indexes carry multi-pointer entries.
pub struct DiscreteUpi {
    cfg: UpiConfig,
    attr: usize,
    name: String,
    store: Store,
    heap: BTree,
    cutoff: CutoffIndex,
    secondaries: Vec<SecondaryIndex>,
    stats: AttrStats,
    n_tuples: u64,
}

impl DiscreteUpi {
    /// Create an empty UPI named `name` on discrete field `attr`.
    pub fn create(store: Store, name: &str, attr: usize, cfg: UpiConfig) -> Result<DiscreteUpi> {
        let heap = BTree::create(store.clone(), &format!("{name}.heap"), cfg.page_size)?;
        let cutoff = CutoffIndex::create(store.clone(), &format!("{name}.cutoff"), cfg.page_size)?;
        Ok(DiscreteUpi {
            cfg,
            attr,
            name: name.to_string(),
            store,
            heap,
            cutoff,
            secondaries: Vec::new(),
            stats: AttrStats::new(),
            n_tuples: 0,
        })
    }

    /// Attach a secondary index on discrete field `attr`. Returns its
    /// position for [`ptq_secondary`](Self::ptq_secondary).
    ///
    /// On an empty UPI this is free; on a loaded one the index is
    /// **backfilled** with one sequential distinct scan of the heap
    /// followed by a sorted bulk load — the same sequential-write path a
    /// fracture flush uses — so secondaries are no longer restricted to
    /// the load order (fractured tables grow them across every component,
    /// see `FracturedUpi::add_secondary`).
    pub fn add_secondary(&mut self, attr: usize) -> Result<usize> {
        let idx = self.secondaries.len();
        let mut sec = SecondaryIndex::create(
            self.store.clone(),
            &format!("{}.sec{}", self.name, idx),
            attr,
            self.cfg.page_size,
            self.cfg.max_secondary_pointers,
        )?;
        if self.n_tuples > 0 {
            let (mut build, mut heap_alts) = (SecBuild::default(), Alts::new());
            let mut scan = self.distinct_scan()?;
            while let Some(done) = scan.next_with(|t| {
                heap_alts.clear();
                let alts = Self::folded(self.attr, t).enumerate();
                heap_alts.extend(
                    alts.filter(|&(i, (_, p))| self.stays_in_heap(i, p))
                        .map(|a| a.1),
                );
                sec.prepare_entries(t, &heap_alts, &mut build);
            }) {
                done?;
            }
            sec.bulk_load(build)?;
        }
        self.secondaries.push(sec);
        Ok(idx)
    }

    /// The primary uncertain attribute's field index.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// Configuration in force.
    pub fn config(&self) -> &UpiConfig {
        &self.cfg
    }

    /// Folded `(value, confidence)` alternatives of a record, descending.
    fn folded<'t>(attr: usize, t: &TupleView<'t>) -> impl Iterator<Item = (u64, f64)> + 't {
        let exist = t.exist();
        t.alternatives(attr).map(move |(v, p)| (v, p * exist))
    }

    /// Algorithm 1's rule: the `i`-th folded alternative stays in the heap
    /// iff it is the first one or its probability is `≥ C`.
    fn stays_in_heap(&self, i: usize, p: f64) -> bool {
        i == 0 || p >= self.cfg.cutoff
    }

    /// Algorithm 1's partition of a tuple's folded alternatives into the
    /// heap's and the cutoff index's; together they are the folded
    /// alternatives in descending order.
    fn partition(&self, t: &Tuple) -> (Alts, Alts) {
        let (mut heap, mut cut) = (Alts::new(), Alts::new());
        for (i, &(v, p)) in t.discrete(self.attr).alternatives().iter().enumerate() {
            let p = p * t.exist;
            if self.stays_in_heap(i, p) {
                heap.push((v, p));
            } else {
                cut.push((v, p));
            }
        }
        (heap, cut)
    }

    /// Insert a tuple (Algorithm 1).
    pub fn insert(&mut self, t: &Tuple) -> Result<()> {
        let (heap_alts, cut_alts) = self.partition(t);
        let bytes = encode_tuple(t);
        for &(v, p) in &heap_alts {
            self.heap.insert(&keys::entry_key(v, p, t.id.0), &bytes)?;
        }
        let (fv, fp) = heap_alts[0];
        for &(v, p) in &cut_alts {
            self.cutoff.insert(v, p, t.id.0, fv, fp)?;
        }
        for sec in &mut self.secondaries {
            sec.insert_for(t, &heap_alts)?;
        }
        for (i, &(v, p)) in heap_alts.iter().chain(&cut_alts).enumerate() {
            self.stats.add(v, p, i == 0);
        }
        self.n_tuples += 1;
        Ok(())
    }

    /// Delete a tuple ("deleting entries from the heap file or cutoff index
    /// depends on the probability"). The caller supplies the tuple, as a
    /// real system would have fetched it to execute the `DELETE`.
    pub fn delete(&mut self, t: &Tuple) -> Result<()> {
        let (heap_alts, cut_alts) = self.partition(t);
        for &(v, p) in &heap_alts {
            self.heap.delete(&keys::entry_key(v, p, t.id.0))?;
        }
        for &(v, p) in &cut_alts {
            self.cutoff.delete(v, p, t.id.0)?;
        }
        for sec in &mut self.secondaries {
            sec.delete_for(t)?;
        }
        for (i, &(v, p)) in heap_alts.iter().chain(&cut_alts).enumerate() {
            self.stats.remove(v, p, i == 0);
        }
        self.n_tuples -= 1;
        Ok(())
    }

    /// Bulk-load tuples into an empty UPI (sequential writes for every
    /// component file — the fracture-flush path of §4.2): each tuple is
    /// encoded once, then built as [`load_records`](Self::load_records)
    /// builds.
    pub fn bulk_load<'a, I>(&mut self, tuples: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a Tuple>,
    {
        self.load_records(&Records::from_tuples(tuples))
    }

    /// Bulk-load encoded tuples into an empty UPI — what a fold, a
    /// compaction and a recovery hand over, without a `Tuple` in between.
    ///
    /// **Input order is irrelevant**: every file is built from its own
    /// sorted entry run (keys end in the tuple id, so the order is total),
    /// and the statistics are counts. Shuffling the records changes no
    /// page and no statistic — which is what lets a fold hand over its
    /// live set in whatever order the component scans produced it.
    ///
    /// The heap file's duplicated copies, the cutoff pointers and the
    /// secondary entries are fixed-width sort records referring into the
    /// records, and the B+Trees copy from there straight into their page
    /// images.
    pub(crate) fn load_records(&mut self, records: &Records) -> Result<()> {
        assert!(self.n_tuples == 0, "bulk_load requires an empty UPI");
        let mut heap_entries: Vec<(EntryKey, &[u8])> = Vec::with_capacity(records.len());
        let mut cut_entries: Vec<(EntryKey, [u8; keys::POINTER_LEN])> = Vec::new();
        let mut sec_builds: Vec<SecBuild> = self
            .secondaries
            .iter()
            .map(|_| SecBuild::default())
            .collect();
        let mut heap_alts: Alts = Vec::new();
        for t in records.views() {
            let t = t?;
            // `partition`, entry by entry: the first alternative always
            // stays in the heap, so it is every cutoff entry's target.
            heap_alts.clear();
            for (i, (v, p)) in Self::folded(self.attr, &t).enumerate() {
                let key = keys::entry_key_array(v, p, t.id().0);
                if self.stays_in_heap(i, p) {
                    heap_alts.push((v, p));
                    heap_entries.push((key, t.bytes()));
                } else {
                    let (fv, fp) = heap_alts[0];
                    cut_entries.push((key, keys::pointer_bytes(fv, fp)));
                }
                self.stats.add(v, p, i == 0);
            }
            for (sec, build) in self.secondaries.iter().zip(&mut sec_builds) {
                sec.prepare_entries(&t, &heap_alts, build);
            }
            self.n_tuples += 1;
        }
        heap_entries.sort_unstable_by_key(|e| e.0);
        cut_entries.sort_unstable_by_key(|e| e.0);
        self.heap
            .bulk_load(heap_entries.iter().map(|(key, bytes)| (key, *bytes)))?;
        self.cutoff
            .bulk_load(cut_entries.iter().map(|(k, ptr)| (k, ptr)))?;
        for (sec, build) in self.secondaries.iter_mut().zip(sec_builds) {
            sec.bulk_load(build)?;
        }
        Ok(())
    }

    /// Streaming cursor over the heap run of `value` with confidence
    /// `≥ qt`: one index seek, then sequential leaf-chain reads, yielding
    /// results in descending-confidence order without materializing the
    /// run — the first half of every point cursor ([`PointRun`]).
    pub fn heap_run(&self, value: u64, qt: f64) -> Result<HeapRun<'_>> {
        let cur = self.heap.seek(&keys::value_prefix(value))?;
        Ok(HeapRun {
            cur,
            value,
            qt,
            stats: CursorStats::default(),
        })
    }

    /// Streaming scan of the whole heap yielding each distinct tuple once
    /// (its first-alternative copy, which Algorithm 1 guarantees to be
    /// heap-resident) — the full-scan fallback access path.
    pub fn distinct_scan(&self) -> Result<DistinctScan<'_>> {
        let cur = self.heap.first()?;
        Ok(DistinctScan {
            cur,
            attr: self.attr,
            stats: CursorStats::default(),
        })
    }

    /// The heap leaf page where the clustered run for `value` begins —
    /// i.e. the first page [`heap_run`](Self::heap_run) (or a
    /// [`range_run`](Self::range_run) starting at `value`) will read.
    /// Only internal pages are touched (the later seek re-reads them
    /// warm), so the leaf's own read stays cold for the buffer pool's
    /// hinted read-ahead to arm on.
    pub fn run_start_page(&self, value: u64) -> Result<upi_storage::PageId> {
        self.heap.leaf_page_for(&keys::value_prefix(value))
    }

    /// The heap's first leaf page — where a full sequential scan starts.
    pub fn first_leaf_page(&self) -> Result<upi_storage::PageId> {
        self.heap.leaf_page_for(&[])
    }

    /// Fetch the heap copy stored under primary key `(value, prob, tid)`.
    pub fn fetch_by_pointer(&self, value: u64, prob: f64, tid: u64) -> Result<Option<Tuple>> {
        fetch_tuple(
            &self.heap,
            &keys::entry_key_array(value, prob, tid),
            "upi heap",
        )
    }

    /// Dereference an `index` entry of `value` for `tid` that points at
    /// the heap copy under `(v, p, tid)`. A missing copy means the index
    /// and the heap disagree: [`StorageError::Corrupted`], not a miss.
    fn deref(&self, index: &str, value: u64, tid: u64, (v, p): (u64, f64)) -> Result<Tuple> {
        self.fetch_by_pointer(v, p, tid)?.ok_or_else(|| {
            StorageError::Corrupted(format!(
                "upi {index} entry of value {value}, tuple {tid}: no heap copy under ({v}, {p})"
            ))
        })
    }

    /// This UPI as a clustered chain of one component with no write side
    /// — what every clustered query path reads.
    pub fn chain(&self) -> Chain<'_> {
        Chain::plain(self)
    }

    /// Streaming cursor for a point PTQ `(value, qt)`: the heap run, then
    /// the qualifying cutoff pointers, in one of two orders.
    ///
    /// * `ordered`: a lazy merge of the heap run with the cutoff list, so
    ///   results come out in `{confidence DESC, tid ASC}` order and a
    ///   top-k consumer can stop pulling — and therefore stop *reading* —
    ///   after k rows. The cutoff list is only opened once the run's head
    ///   falls below the cutoff threshold `C` (every cutoff entry is below
    ///   `C`, so until then the heap run wins outright, §3.1).
    /// * otherwise Algorithm 2: drain the heap run, then read the cutoff
    ///   pointers (only when `qt < C`) and dereference them in heap
    ///   (physical) order — which is what makes §6.3's sigmoid saturate at
    ///   `Cost_scan`. Rows are not confidence-ordered.
    pub fn point_run(&self, value: u64, qt: f64, ordered: bool) -> Result<PointRun<'_>> {
        Ok(PointRun {
            upi: self,
            run: Some(self.heap_run(value, qt)?),
            run_head: None,
            value,
            qt,
            ordered,
            consulted: false,
            pointers: None,
            ptr_head: None,
            pending: Vec::new().into_iter(),
            stats: CursorStats::default(),
        })
    }

    /// Streaming range cursor:
    /// `SELECT * WHERE attr BETWEEN lo AND hi, confidence ≥ qt` as one
    /// pass over the clustered heap plus the cutoff index, yielding each
    /// qualifying tuple exactly once *as soon as it is first
    /// encountered* (its total in-range confidence is computed from the
    /// record's PMF on the spot — alternatives sum under possible-world
    /// semantics, and the tuple carries them all). Rows stream in value
    /// order, not confidence order; sinks that need ranking sort at the
    /// end, but I/O is a single seek + sequential run either way.
    pub fn range_run(&self, lo: u64, hi: u64, qt: f64) -> Result<RangeRun<'_>> {
        assert!(lo <= hi, "inverted range");
        Ok(RangeRun {
            upi: self,
            cur: Some(self.heap.seek(&keys::value_prefix(lo))?),
            lo,
            hi,
            qt,
            seen: IdSet::default(),
            pending: None,
            stats: CursorStats::default(),
        })
    }

    /// Streaming secondary-index probe (Algorithm 3 when `tailored`):
    /// scans the compact entry run, chooses one heap pointer per entry,
    /// then dereferences lazily in heap (bitmap) order. With
    /// `limit = Some(k)` only the k most-confident entries are read and
    /// fetched — the secondary entry run is `{confidence DESC}`-ordered,
    /// so a top-k query's result set is decided by its first k entries.
    ///
    /// `keep` is a tuple-id filter applied *before* pointer choice and
    /// heap fetches — a fractured chain drops suppressed tuples this way
    /// without paying their heap I/O. `limit` counts entries that pass it.
    pub fn secondary_run(
        &self,
        sec_idx: usize,
        value: u64,
        qt: f64,
        tailored: bool,
        limit: Option<usize>,
        keep: &dyn Fn(u64) -> bool,
    ) -> Result<SecondaryRun<'_>> {
        let mut entries = Vec::new();
        let mut suppressed = 0u64;
        for e in self.secondaries[sec_idx].scan_run(value, qt)? {
            let e = e?;
            if !keep(e.tid) {
                suppressed += 1;
                continue;
            }
            entries.push(e);
            if limit.is_some_and(|k| entries.len() >= k) {
                break;
            }
        }
        // (pointer value, pointer prob, tid, result confidence)
        let mut chosen: Vec<(u64, f64, u64, f64)> = Vec::with_capacity(entries.len());
        if tailored {
            let mut seen: HashSet<u64> = HashSet::new();
            for e in &entries {
                if e.pointers.len() == 1 {
                    seen.insert(e.pointers[0].0);
                }
            }
            for e in &entries {
                let ptr = e
                    .pointers
                    .iter()
                    .find(|p| seen.contains(&p.0))
                    .copied()
                    .unwrap_or(e.pointers[0]);
                seen.insert(ptr.0);
                chosen.push((ptr.0, ptr.1, e.tid, e.prob));
            }
        } else {
            for e in &entries {
                let ptr = e.pointers[0];
                chosen.push((ptr.0, ptr.1, e.tid, e.prob));
            }
        }
        // Bitmap-scan style: dereference in heap key order.
        chosen.sort_unstable_by_key(|&(v, p, tid, _)| heap_key(v, p, tid));
        Ok(SecondaryRun {
            upi: self,
            value,
            chosen: chosen.into_iter(),
            stats: CursorStats {
                suppressed,
                ..CursorStats::default()
            },
        })
    }

    /// Probabilistic threshold query (Algorithm 2):
    /// `SELECT * WHERE attr = value, confidence ≥ qt`.
    ///
    /// Reads the heap run for `value` (sequential); when `qt < C` it
    /// additionally scans the cutoff index and dereferences each pointer,
    /// visiting targets in heap order — the heap-order
    /// [`point_run`](Self::point_run), collected in canonical order. The
    /// figure benches measure this body.
    pub fn ptq(&self, value: u64, qt: f64) -> Result<Vec<PtqResult>> {
        let mut results: Vec<PtqResult> =
            self.point_run(value, qt, false)?.collect::<Result<_>>()?;
        crate::exec::sort_results(&mut results);
        Ok(results)
    }

    /// Range PTQ: `SELECT * WHERE attr BETWEEN lo AND hi, confidence ≥ qt`
    /// (inclusive bounds).
    ///
    /// Under possible-world semantics a tuple's confidence for a range
    /// predicate is `existence × Σ_{v ∈ [lo,hi]} P(v)` — alternatives
    /// *sum*, so per-alternative probability pruning is unsound and the
    /// scan reads every entry in the range: one index seek plus one
    /// sequential run over the clustered heap (the UPI's analytic-query
    /// strength), plus the below-cutoff alternatives from the cutoff
    /// index. This is the batch collection of [`range_run`](Self::range_run).
    pub fn ptq_range(&self, lo: u64, hi: u64, qt: f64) -> Result<Vec<PtqResult>> {
        let mut out: Vec<PtqResult> = self.range_run(lo, hi, qt)?.collect::<Result<_>>()?;
        crate::exec::sort_results(&mut out);
        Ok(out)
    }

    /// PTQ through secondary index `sec_idx` (Queries 3 and 5 of the
    /// paper): `SELECT * WHERE sec_attr = value, confidence ≥ qt`.
    ///
    /// With `tailored = true` this is Algorithm 3 — Tailored Secondary
    /// Index Access: entries with a single pointer fix the set of heap
    /// regions first; multi-pointer entries then prefer a pointer into an
    /// already-visited region. With `tailored = false` every entry uses its
    /// first (highest-probability) pointer, i.e. a conventional secondary
    /// index over the UPI.
    pub fn ptq_secondary(
        &self,
        sec_idx: usize,
        value: u64,
        qt: f64,
        tailored: bool,
    ) -> Result<Vec<PtqResult>> {
        let mut out: Vec<PtqResult> = self
            .secondary_run(sec_idx, value, qt, tailored, None, &|_| true)?
            .collect::<Result<_>>()?;
        crate::exec::sort_results(&mut out);
        Ok(out)
    }

    /// Enumerate every distinct tuple by scanning the heap sequentially,
    /// keeping only each tuple's first-alternative copy (which Algorithm 1
    /// guarantees to be present), and copy the record of each one whose id
    /// passes `keep` to `out`. This is the merge path's full read (§4.3).
    pub(crate) fn scan_records(&self, out: &mut Records, keep: impl Fn(u64) -> bool) -> Result<()> {
        let mut scan = self.distinct_scan()?;
        while let Some(done) = scan.next_with(|t| {
            if keep(t.id().0) {
                out.push(t);
            }
        }) {
            done?;
        }
        Ok(())
    }

    /// Number of distinct tuples.
    pub fn n_tuples(&self) -> u64 {
        self.n_tuples
    }

    /// Heap tree statistics (feeds the cost models' `H`, `N_leaf`,
    /// `S_table`).
    pub fn heap_stats(&self) -> TreeStats {
        self.heap.stats()
    }

    /// The cutoff index.
    pub fn cutoff_index(&self) -> &CutoffIndex {
        &self.cutoff
    }

    /// Attached secondary indexes.
    pub fn secondaries(&self) -> &[SecondaryIndex] {
        &self.secondaries
    }

    /// Histogram statistics of the primary attribute (folded
    /// probabilities), for selectivity estimation (§6.1).
    pub fn attr_stats(&self) -> &AttrStats {
        &self.stats
    }

    /// Serialize the primary-attribute statistics plus every secondary's
    /// statistics (selectivity + pointer regions) for the checkpoint
    /// payload.
    pub fn stats_payload(&self) -> Vec<u8> {
        let stats = self.stats.to_bytes();
        let mut out = Vec::with_capacity(8 + stats.len());
        out.extend_from_slice(&(stats.len() as u32).to_le_bytes());
        out.extend(stats);
        out.extend_from_slice(&(self.secondaries.len() as u32).to_le_bytes());
        for sec in &self.secondaries {
            let p = sec.stats_payload();
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend(p);
        }
        out
    }

    /// Inverse of [`stats_payload`](Self::stats_payload): replace the
    /// primary statistics and each attached secondary's. `false` (state
    /// untouched) on malformation or a secondary-count mismatch.
    pub fn restore_stats_payload(&mut self, data: &[u8]) -> bool {
        let Some((stats_bytes, rest)) = crate::secondary::take_prefixed(data) else {
            return false;
        };
        let Some(stats) = AttrStats::from_bytes(stats_bytes) else {
            return false;
        };
        let Some(count_bytes) = rest.get(..4) else {
            return false;
        };
        let n = u32::from_le_bytes(count_bytes.try_into().unwrap()) as usize;
        if n != self.secondaries.len() {
            return false;
        }
        let mut rest = &rest[4..];
        let mut sec_payloads = Vec::with_capacity(n);
        for _ in 0..n {
            let Some((p, r)) = crate::secondary::take_prefixed(rest) else {
                return false;
            };
            sec_payloads.push(p);
            rest = r;
        }
        if !rest.is_empty() {
            return false;
        }
        // Two-phase: validate every blob before mutating anything, so a
        // torn payload never leaves half-replaced statistics.
        let mut replaced = Vec::with_capacity(n);
        for p in &sec_payloads {
            let Some(pair) = crate::secondary::decode_stats_payload(p) else {
                return false;
            };
            replaced.push(pair);
        }
        self.stats = stats;
        for (sec, (s, r)) in self.secondaries.iter_mut().zip(replaced) {
            sec.set_stats(s, r);
        }
        true
    }

    /// Total live bytes across heap + cutoff + secondaries.
    pub fn total_bytes(&self) -> u64 {
        self.heap.stats().bytes
            + self.cutoff.bytes()
            + self.secondaries.iter().map(|s| s.bytes()).sum::<u64>()
    }

    /// Free every page of every component file (used after a merge
    /// replaces this UPI). Metadata-only: dropping an index does not
    /// transfer data, but freeing keeps `total_live_bytes` — the "DB size"
    /// column of Table 8 — honest.
    pub fn destroy(self) -> Result<()> {
        let mut files = vec![self.heap.file(), self.cutoff.file()];
        files.extend(self.secondaries.iter().map(|s| s.file()));
        for f in files {
            self.store.free_file_pages(f)?;
        }
        // Drop any cached frames of the freed pages; flush errors on freed
        // pages are ignored by the pool.
        self.store.pool.clear();
        Ok(())
    }
}

/// The heap file's key order for the copy under `(v, p, tid)` — pointer
/// fetches visit their targets in this physical order.
fn heap_key(v: u64, p: f64, tid: u64) -> (u64, u32, u64) {
    (v, u32::MAX - quantize_prob(p), tid)
}

/// The heap entry under `cur`, checked; damaged bytes are a
/// [`StorageError::Corrupted`] naming the leaf, not a panic.
fn entry_view<'c>(cur: &'c Cursor<'_>) -> Result<TupleView<'c>> {
    TupleView::parse(cur.value()).map_err(|why| corrupt_record("upi heap", cur.page(), why))
}

/// Quantized-grid possible-world confidence of `t` for `attr BETWEEN lo
/// AND hi`, exactly as the index keys would sum it.
fn range_confidence(t: &TupleView<'_>, attr: usize, lo: u64, hi: u64) -> f64 {
    let quantized = |(_, p): (u64, f64)| dequantize_prob(quantize_prob(p * t.exist()));
    let alts = t.alternatives(attr);
    alts.filter(|&(v, _)| (lo..=hi).contains(&v))
        .map(quantized)
        .sum()
}

/// Streaming iterator over one value's heap run (see
/// [`DiscreteUpi::heap_run`]). Yields entries in `{prob DESC, tid}` order
/// and stops at the first entry of a different value or below the
/// threshold.
pub struct HeapRun<'a> {
    cur: Cursor<'a>,
    value: u64,
    qt: f64,
    stats: CursorStats,
}

impl HeapRun<'_> {
    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }

    /// [`Iterator::next`] with a confidence watermark and a tuple-id
    /// filter, both applied to the **keyed** entry before the tuple bytes
    /// are decoded: the key carries `(value, prob, tid)`, so a row failing
    /// `keep` (e.g. a fracture-suppressed tuple) is skipped without
    /// decoding its payload, and the first entry below `min_conf` ends the
    /// run without reading further leaves — the run is probability-
    /// descending, so a long suppressed (or below-watermark) tail costs
    /// zero decodes and no extra page I/O. Callers must only ever *raise*
    /// `min_conf` across calls.
    pub fn next_where(
        &mut self,
        min_conf: f64,
        keep: &dyn Fn(u64) -> bool,
    ) -> Option<Result<PtqResult>> {
        loop {
            if !self.cur.valid() {
                return None;
            }
            let (v, prob, tid) = keys::decode_entry_key(self.cur.key());
            if v != self.value || prob < self.qt || prob < min_conf {
                return None;
            }
            if !keep(tid) {
                // Suppressed: skip past it pre-decode.
                self.stats.suppressed += 1;
                if let Err(e) = self.cur.advance() {
                    return Some(Err(e));
                }
                continue;
            }
            let tuple = entry_view(&self.cur).map(|t| t.to_tuple());
            self.stats.decodes += 1;
            if let Err(e) = self.cur.advance() {
                return Some(Err(e));
            }
            return Some(tuple.map(|tuple| {
                self.stats.rows += 1;
                PtqResult {
                    tuple,
                    confidence: prob,
                }
            }));
        }
    }
}

impl Iterator for HeapRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_where(f64::NEG_INFINITY, &|_| true)
    }
}

/// Streaming full-heap scan yielding each distinct tuple once (see
/// [`DiscreteUpi::distinct_scan`]).
pub struct DistinctScan<'a> {
    cur: Cursor<'a>,
    attr: usize,
    stats: CursorStats,
}

impl DistinctScan<'_> {
    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }

    /// Hand the next distinct tuple's record to `f`. Only the
    /// first-alternative copy is kept, compared on the quantized grid the
    /// key uses; the (payload-heavy) duplicate copies are checked in
    /// place and skipped, nothing materialised.
    pub(crate) fn next_with<R>(
        &mut self,
        mut f: impl FnMut(&TupleView<'_>) -> R,
    ) -> Option<Result<R>> {
        while self.cur.valid() {
            let (v, prob, _tid) = keys::decode_entry_key(self.cur.key());
            let row = entry_view(&self.cur).map(|t| {
                let first = t.alternatives(self.attr).next();
                let grid = |(fv, fp): (u64, f64)| (fv, quantize_prob(fp * t.exist()));
                (first.map(grid) == Some((v, quantize_prob(prob)))).then(|| f(&t))
            });
            let row = row.transpose();
            self.stats.decodes += row.is_some() as u64;
            // Step past the entry first, so a damaged one is reported once.
            if let Err(e) = self.cur.advance() {
                return Some(Err(e));
            }
            if let Some(row) = row {
                self.stats.rows += row.is_ok() as u64;
                return Some(row);
            }
        }
        None
    }
}

impl Iterator for DistinctScan<'_> {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_with(|t| t.to_tuple())
    }
}

/// Point-PTQ cursor (see [`DiscreteUpi::point_run`]) over the heap run
/// and the cutoff list. Ordered, it is a lazy merge: the cutoff list is a
/// streaming cursor consulted one entry at a time, and cutoff targets are
/// dereferenced only as the merge emits them, so an early-terminated
/// consumer never pays for the tail — and a *bounded* consumer
/// ([`next_where`](PointRun::next_where)) can stop the cutoff scan as
/// soon as its next candidate falls below a confidence watermark. In heap
/// order it is Algorithm 2: the run is drained first, then the surviving
/// cutoff pointers are sorted into heap key order and fetched lazily.
pub struct PointRun<'a> {
    upi: &'a DiscreteUpi,
    run: Option<HeapRun<'a>>,
    run_head: Option<PtqResult>,
    value: u64,
    qt: f64,
    /// Confidence-ordered merge, or Algorithm 2's heap-order pass.
    ordered: bool,
    /// Whether the cutoff list has been consulted yet (it is only opened
    /// once the run's head falls below `C` or the run is exhausted).
    consulted: bool,
    /// Ordered: the streaming cutoff cursor; dropped once exhausted or
    /// below a caller-supplied watermark.
    pointers: Option<crate::cutoff::CutoffValueRun<'a>>,
    ptr_head: Option<CutoffPointer>,
    /// Heap order: the surviving cutoff pointers, in heap key order.
    pending: std::vec::IntoIter<CutoffPointer>,
    /// Merge-level counters; the live heap run keeps its own, folded in
    /// by [`stats`](Self::stats) (and harvested when the run ends).
    stats: CursorStats,
}

impl PointRun<'_> {
    /// Instrumentation counters accumulated so far, including the child
    /// heap run's decode/suppression work. `rows` counts rows *this*
    /// merge emitted (a pulled-but-buffered run head is not a row yet).
    pub fn stats(&self) -> CursorStats {
        match &self.run {
            Some(run) => self.stats.merged(Self::child_contrib(run)),
            None => self.stats,
        }
    }

    /// A child run's counters minus its `rows`: rows are counted at this
    /// operator's own emit points, not at the pull into `run_head`.
    fn child_contrib(run: &HeapRun<'_>) -> CursorStats {
        CursorStats {
            rows: 0,
            ..run.stats()
        }
    }

    /// Pull the next heap-run row passing `keep` into `run_head`. The
    /// filter and the watermark are pushed down into
    /// [`HeapRun::next_where`], so suppressed rows are skipped before
    /// their payload is decoded and a below-`min_conf` stretch ends the
    /// run without scanning it entry-by-entry (sound: the run descends in
    /// confidence and callers only ever raise the watermark).
    fn fill_run_head(&mut self, min_conf: f64, keep: &dyn Fn(u64) -> bool) -> Result<()> {
        while self.run_head.is_none() {
            let Some(run) = &mut self.run else { break };
            match run.next_where(min_conf, keep) {
                Some(r) => self.run_head = Some(r?),
                None => {
                    // Harvest the exhausted run's counters before dropping it.
                    self.stats = self.stats.merged(Self::child_contrib(run));
                    self.run = None;
                }
            }
        }
        Ok(())
    }

    /// Consult the cutoff list once. Every cutoff entry is below `C`, so
    /// when `qt ≥ C` none qualify and the index is never opened. Ordered,
    /// this opens the streaming cursor; in heap order it reads the whole
    /// list, drops what `keep` rejects before any fetch, and sorts the
    /// rest into heap (physical) key order.
    fn ensure_consulted(&mut self, keep: &dyn Fn(u64) -> bool) -> Result<()> {
        if self.consulted {
            return Ok(());
        }
        self.consulted = true;
        if self.qt >= self.upi.cfg.cutoff {
            return Ok(());
        }
        let pointers = self.upi.cutoff.scan_value_run(self.value, self.qt)?;
        if self.ordered {
            self.pointers = Some(pointers);
            return Ok(());
        }
        let mut pending = Vec::new();
        for cp in pointers {
            let cp = cp?;
            if keep(cp.tid) {
                pending.push(cp);
            } else {
                self.stats.suppressed += 1;
            }
        }
        pending.sort_unstable_by_key(|cp| heap_key(cp.first_value, cp.first_prob, cp.tid));
        self.pending = pending.into_iter();
        Ok(())
    }

    /// Pull the next cutoff pointer passing `keep` into `ptr_head`,
    /// without dereferencing it. Stops — permanently — at the first entry
    /// below `min_conf` (the list is probability-descending, so nothing
    /// further can qualify; `min_conf` callers guarantee the watermark
    /// never decreases).
    fn fill_ptr_head(&mut self, min_conf: f64, keep: &dyn Fn(u64) -> bool) -> Result<()> {
        while self.ptr_head.is_none() {
            let Some(ptrs) = &mut self.pointers else {
                break;
            };
            match ptrs.next() {
                None => self.pointers = None,
                Some(cp) => {
                    let cp = cp?;
                    if cp.prob < min_conf {
                        self.pointers = None; // watermark bound: stop the scan
                        break;
                    }
                    if keep(cp.tid) {
                        self.ptr_head = Some(cp);
                    } else {
                        self.stats.suppressed += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Dereference a cutoff pointer into its result row.
    fn fetch(&mut self, cp: CutoffPointer) -> Result<PtqResult> {
        self.stats.pointer_fetches += 1;
        let at = (cp.first_value, cp.first_prob);
        let tuple = self.upi.deref("cutoff", self.value, cp.tid, at)?;
        self.stats.rows += 1;
        Ok(PtqResult {
            tuple,
            confidence: cp.prob,
        })
    }

    /// [`Iterator::next`] with a confidence watermark and a tuple-id
    /// filter: rows whose id fails `keep` are skipped *before* any heap
    /// fetch (a fractured chain drops suppressed tuples this way without
    /// paying their I/O), and `None` is returned as soon as no remaining
    /// row can reach `min_conf` — both the heap run and the cutoff list
    /// stream in descending confidence, so the first below-watermark
    /// candidate proves the tail is out too. Callers must only ever
    /// *raise* `min_conf` across calls (a top-k watermark), and only an
    /// ordered cursor takes one.
    pub fn next_where(
        &mut self,
        min_conf: f64,
        keep: &dyn Fn(u64) -> bool,
    ) -> Option<Result<PtqResult>> {
        if !self.ordered {
            debug_assert_eq!(min_conf, f64::NEG_INFINITY, "heap order takes no watermark");
            return self.next_in_heap_order(keep);
        }
        if let Err(e) = self.fill_run_head(min_conf, keep) {
            return Some(Err(e));
        }
        // While the run head is at/above C, no cutoff entry can beat it:
        // emit without ever touching the cutoff index.
        if let Some(head) = &self.run_head {
            if head.confidence >= self.upi.cfg.cutoff {
                if head.confidence < min_conf {
                    return None; // run is descending: nothing can qualify
                }
                self.stats.rows += 1;
                return Some(Ok(self.run_head.take().unwrap()));
            }
        }
        if let Err(e) = self.ensure_consulted(keep) {
            return Some(Err(e));
        }
        if let Err(e) = self.fill_ptr_head(min_conf, keep) {
            return Some(Err(e));
        }
        // A head cached under an older (lower) watermark may have fallen
        // below the current one: drop it — and the rest of the
        // descending list with it — before paying its heap fetch.
        if self.ptr_head.is_some_and(|p| p.prob < min_conf) {
            self.ptr_head = None;
            self.pointers = None;
        }
        let take_ptr = match (&self.run_head, &self.ptr_head) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(r), Some(p)) => (p.prob, std::cmp::Reverse(p.tid))
                .partial_cmp(&(r.confidence, std::cmp::Reverse(r.tuple.id.0)))
                .unwrap()
                .is_gt(),
        };
        if !take_ptr {
            let r = self.run_head.take().unwrap();
            if r.confidence < min_conf {
                // The winner is already below the watermark (the cutoff
                // head, if any, is bounded too): the merge is done.
                self.run_head = Some(r);
                return None;
            }
            self.stats.rows += 1;
            return Some(Ok(r));
        }
        // The stale-head check above guarantees the pointer is at/above
        // `min_conf`.
        let cp = self.ptr_head.take().unwrap();
        Some(self.fetch(cp))
    }

    /// Algorithm 2, one row per call: the heap run until it is drained,
    /// then the cutoff pointers in heap order.
    fn next_in_heap_order(&mut self, keep: &dyn Fn(u64) -> bool) -> Option<Result<PtqResult>> {
        if let Some(run) = &mut self.run {
            match run.next_where(f64::NEG_INFINITY, keep) {
                Some(r) => {
                    self.stats.rows += r.is_ok() as u64;
                    return Some(r);
                }
                None => {
                    // Harvest the exhausted run's counters before dropping it.
                    self.stats = self.stats.merged(Self::child_contrib(run));
                    self.run = None;
                }
            }
        }
        if let Err(e) = self.ensure_consulted(keep) {
            return Some(Err(e));
        }
        let cp = self.pending.next()?;
        Some(self.fetch(cp))
    }
}

impl Iterator for PointRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_where(f64::NEG_INFINITY, &|_| true)
    }
}

/// Streaming range-PTQ cursor (see [`DiscreteUpi::range_run`]). Phase 1
/// streams the clustered heap run, emitting each tuple at its first
/// in-range copy with its full possible-world confidence computed from
/// the record's view; only a qualifying tuple is materialised. Phase 2
/// streams the cutoff index for tuples whose
/// in-range mass is entirely below-cutoff, fetching only qualifiers (in
/// heap order).
pub struct RangeRun<'a> {
    upi: &'a DiscreteUpi,
    cur: Option<Cursor<'a>>,
    lo: u64,
    hi: u64,
    qt: f64,
    seen: IdSet<u64>,
    /// Phase-2 fetch list, heap order; built when the heap run is
    /// exhausted. Each pointer carries the tuple's summed below-cutoff
    /// in-range confidence and the first in-range value it was found under.
    pending: Option<std::vec::IntoIter<(u64, CutoffPointer)>>,
    stats: CursorStats,
}

impl RangeRun<'_> {
    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }

    /// Build the phase-2 fetch list: accumulate cutoff mass per unseen
    /// tuple, keep qualifiers, order by heap key.
    fn build_pending(&mut self) -> Result<()> {
        let mut acc: IdMap<u64, (u64, CutoffPointer)> = IdMap::default();
        for r in self.upi.cutoff.scan_range_run(self.lo, self.hi)? {
            let (v, cp) = r?;
            if self.seen.contains(&cp.tid) {
                continue; // full PMF mass already counted in phase 1
            }
            let e = acc
                .entry(cp.tid)
                .or_insert((v, CutoffPointer { prob: 0.0, ..cp }));
            e.1.prob += cp.prob;
        }
        let mut pending: Vec<(u64, CutoffPointer)> = acc
            .into_values()
            .filter(|(_, cp)| cp.prob >= self.qt)
            .collect();
        pending.sort_unstable_by_key(|(_, cp)| heap_key(cp.first_value, cp.first_prob, cp.tid));
        self.pending = Some(pending.into_iter());
        Ok(())
    }
}

impl Iterator for RangeRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        let (attr, lo, hi, qt) = (self.upi.attr, self.lo, self.hi, self.qt);
        // Phase 1: the clustered run, scored on each tuple's first record
        // in range; only a qualifying one is materialised.
        while let Some(cur) = &mut self.cur {
            if !cur.valid() {
                self.cur = None;
                break;
            }
            let (v, _prob, tid) = keys::decode_entry_key(cur.key());
            if v > hi {
                self.cur = None;
                break;
            }
            let row = self.seen.insert(tid).then(|| -> Result<Option<PtqResult>> {
                let t = entry_view(cur)?;
                let confidence = range_confidence(&t, attr, lo, hi);
                let tuple = (confidence >= qt).then(|| t.to_tuple());
                Ok(tuple.map(|tuple| PtqResult { tuple, confidence }))
            });
            if let Err(e) = cur.advance() {
                return Some(Err(e));
            }
            if let Some(row) = row.and_then(Result::transpose) {
                self.stats.decodes += 1;
                self.stats.rows += row.is_ok() as u64;
                return Some(row);
            }
        }
        // Phase 2: tuples visible only through the cutoff index.
        if self.pending.is_none() {
            if let Err(e) = self.build_pending() {
                return Some(Err(e));
            }
        }
        let (value, cp) = self.pending.as_mut().unwrap().next()?;
        self.stats.pointer_fetches += 1;
        let at = (cp.first_value, cp.first_prob);
        Some(self.upi.deref("cutoff", value, cp.tid, at).map(|tuple| {
            self.stats.rows += 1;
            PtqResult {
                tuple,
                confidence: cp.prob,
            }
        }))
    }
}

/// Streaming secondary probe (see [`DiscreteUpi::secondary_run`]): the
/// pointer choices are fixed up front from the compact entry run; heap
/// tuples are fetched lazily, one per pull, in heap (bitmap) order.
pub struct SecondaryRun<'a> {
    upi: &'a DiscreteUpi,
    /// The secondary value probed.
    value: u64,
    /// `(pointer value, pointer prob, tid, confidence)`, heap key order.
    chosen: std::vec::IntoIter<(u64, f64, u64, f64)>,
    stats: CursorStats,
}

impl SecondaryRun<'_> {
    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }
}

impl Iterator for SecondaryRun<'_> {
    type Item = Result<PtqResult>;

    fn next(&mut self) -> Option<Self::Item> {
        let (v, p, tid, confidence) = self.chosen.next()?;
        self.stats.pointer_fetches += 1;
        Some(
            self.upi
                .deref("secondary", self.value, tid, (v, p))
                .map(|tuple| {
                    self.stats.rows += 1;
                    PtqResult { tuple, confidence }
                }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, DiscretePmf, Field, TupleId};

    const BROWN: u64 = 0;
    const MIT: u64 = 1;
    const UCB: u64 = 2;
    const UTOKYO: u64 = 3;
    const US: u64 = 0;
    const JAPAN: u64 = 1;

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20)
    }

    /// Table 4's Author table: name, institution, country.
    fn table4() -> Vec<Tuple> {
        let author = |id, exist, inst: Vec<(u64, f64)>, country: Vec<(u64, f64)>| {
            Tuple::new(
                TupleId(id),
                exist,
                vec![
                    Field::Certain(Datum::Str(format!("author-{id}"))),
                    Field::Discrete(DiscretePmf::new(inst)),
                    Field::Discrete(DiscretePmf::new(country)),
                ],
            )
        };
        vec![
            author(1, 0.9, vec![(BROWN, 0.8), (MIT, 0.2)], vec![(US, 1.0)]),
            author(2, 1.0, vec![(MIT, 0.95), (UCB, 0.05)], vec![(US, 1.0)]),
            author(
                3,
                0.8,
                vec![(BROWN, 0.6), (UTOKYO, 0.4)],
                vec![(US, 0.6), (JAPAN, 0.4)],
            ),
        ]
    }

    fn upi_with(c: f64) -> DiscreteUpi {
        let mut u = DiscreteUpi::create(
            store(),
            "authors",
            1,
            UpiConfig {
                cutoff: c,
                ..UpiConfig::default()
            },
        )
        .unwrap();
        u.add_secondary(2).unwrap();
        for t in &table4() {
            u.insert(t).unwrap();
        }
        u
    }

    #[test]
    fn table3_partition() {
        // C=10%: only Bob's UCB (5%) is cut off; 5 heap entries remain.
        let u = upi_with(0.1);
        assert_eq!(u.heap_stats().entries, 5);
        assert_eq!(u.cutoff_index().len(), 1);
        let ptrs = u.cutoff_index().scan(UCB, 0.0).unwrap();
        assert_eq!(ptrs.len(), 1);
        assert_eq!(ptrs[0].tid, 2);
        assert_eq!(ptrs[0].first_value, MIT, "points at Bob's MIT copy");
    }

    #[test]
    fn query1_matches_paper_with_and_without_cutoff_path() {
        let u = upi_with(0.1);
        // QT=0.5 ≥ C: heap only. MIT → Bob (95%).
        let res = u.ptq(MIT, 0.5).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].tuple.id, TupleId(2));
        // QT=0.1: Bob + Alice (18%).
        let res = u.ptq(MIT, 0.1).unwrap();
        assert_eq!(res.len(), 2);
        assert!((res[0].confidence - 0.95).abs() < 1e-6);
        assert!((res[1].confidence - 0.18).abs() < 1e-6);
        // QT=0.01 < C: the cutoff path must surface Bob's UCB copy.
        let res = u.ptq(UCB, 0.01).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].tuple.id, TupleId(2));
        assert!((res[0].confidence - 0.05).abs() < 1e-6);
        // Without the cutoff path (QT ≥ C) the UCB copy is invisible.
        assert!(u.ptq(UCB, 0.1).unwrap().is_empty());
    }

    #[test]
    fn high_cutoff_keeps_first_alternatives_queryable() {
        // C=0.99 pushes everything but first alternatives to the cutoff
        // index; every tuple must still be found via pointers.
        let u = upi_with(0.99);
        assert_eq!(u.heap_stats().entries, 3, "only first alternatives");
        let res = u.ptq(MIT, 0.01).unwrap();
        assert_eq!(res.len(), 2, "Alice via cutoff pointer, Bob direct");
        let ids: Vec<u64> = res.iter().map(|r| r.tuple.id.0).collect();
        assert!(ids.contains(&1) && ids.contains(&2));
    }

    #[test]
    fn secondary_tailored_equals_untailored_results() {
        let u = upi_with(0.1);
        // Query 3's shape: WHERE Country=US, QT=0.4.
        let mut tailored = u.ptq_secondary(0, US, 0.4, true).unwrap();
        let mut plain = u.ptq_secondary(0, US, 0.4, false).unwrap();
        let key = |r: &PtqResult| (r.tuple.id.0, (r.confidence * 1e6) as u64);
        tailored.sort_by_key(key);
        plain.sort_by_key(key);
        assert_eq!(tailored.len(), plain.len());
        for (a, b) in tailored.iter().zip(&plain) {
            assert_eq!(a.tuple.id, b.tuple.id);
            assert!((a.confidence - b.confidence).abs() < 1e-9);
        }
        // Paper's example: US with QT=0.8 returns Bob (100%) and Alice (90%).
        let res = u.ptq_secondary(0, US, 0.8, true).unwrap();
        let ids: Vec<u64> = res.iter().map(|r| r.tuple.id.0).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn delete_removes_every_copy() {
        let mut u = upi_with(0.1);
        let bob = table4().remove(1);
        u.delete(&bob).unwrap();
        assert!(u.ptq(MIT, 0.5).unwrap().is_empty());
        assert!(u.ptq(UCB, 0.01).unwrap().is_empty());
        assert_eq!(u.n_tuples(), 2);
        // Alice's MIT copy is still there.
        assert_eq!(u.ptq(MIT, 0.1).unwrap().len(), 1);
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let tuples = table4();
        let mut bulk = DiscreteUpi::create(store(), "b", 1, UpiConfig::default()).unwrap();
        bulk.add_secondary(2).unwrap();
        bulk.bulk_load(&tuples).unwrap();
        let incr = upi_with(0.1);
        for value in [BROWN, MIT, UCB, UTOKYO] {
            for qt in [0.01, 0.1, 0.5] {
                let a = bulk.ptq(value, qt).unwrap();
                let b = incr.ptq(value, qt).unwrap();
                assert_eq!(a.len(), b.len(), "value={value} qt={qt}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.tuple.id, y.tuple.id);
                }
            }
        }
        assert_eq!(bulk.heap_stats().entries, incr.heap_stats().entries);
        assert_eq!(bulk.cutoff_index().len(), incr.cutoff_index().len());
        // The primary statistics are the same counts whichever way they
        // were fed. A secondary's are counted per value either way, but
        // a bulk load reads each confidence back off the key's quantized
        // grid, so one sitting on a histogram bin edge (Carol's 0.32) may
        // land one bin lower than on insert.
        assert_eq!(bulk.attr_stats().to_bytes(), incr.attr_stats().to_bytes());
        let (bs, is) = (bulk.secondaries()[0].stats(), incr.secondaries()[0].stats());
        assert_eq!(bs.total(), is.total());
        for country in [US, JAPAN] {
            assert_eq!(bs.value_count(country), is.value_count(country));
        }
    }

    /// Seeded tuples with 1–4 primary alternatives over 600 values (the
    /// pointer histogram coarsens), a correlated secondary, and a payload.
    fn synthetic(n: u64, seed: u64) -> Vec<Tuple> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|id| {
                let k = rng.gen_range(1..=4usize);
                let base = rng.gen_range(0..600u64);
                let prim: Vec<(u64, f64)> = (0..k)
                    .map(|i| ((base + 37 * i as u64) % 600, 0.9 / (1 << (i + 1)) as f64))
                    .collect();
                Tuple::new(
                    TupleId(id),
                    rng.gen_range(0.3..=1.0),
                    vec![
                        Field::Certain(Datum::Str(format!(
                            "row-{id}-{}",
                            "p".repeat(id as usize % 90)
                        ))),
                        Field::Discrete(DiscretePmf::new(prim)),
                        Field::Discrete(DiscretePmf::new(vec![
                            (base / 50, 0.7),
                            (12 + base % 3, 0.2),
                        ])),
                    ],
                )
            })
            .collect()
    }

    /// Every live page of every file of `st`, by file name.
    fn file_images(st: &Store) -> Vec<(String, Vec<Vec<u8>>)> {
        st.disk
            .file_inventory()
            .into_iter()
            .map(|(fid, name, _)| {
                let pages = st.disk.file_pages(fid).unwrap();
                let images = pages
                    .into_iter()
                    .filter_map(|pid| st.disk.read_page(pid).ok())
                    .map(|page| page.to_vec())
                    .collect();
                (name, images)
            })
            .collect()
    }

    #[test]
    fn bulk_load_ignores_input_order() {
        use rand::{Rng, SeedableRng};
        let sorted = synthetic(4000, 0x0DE5);
        let mut shuffled = sorted.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        assert_ne!(sorted, shuffled);
        let load = |tuples: &[Tuple]| {
            let st = store();
            let mut u = DiscreteUpi::create(st.clone(), "u", 1, UpiConfig::default()).unwrap();
            u.add_secondary(2).unwrap();
            u.bulk_load(tuples).unwrap();
            (st, u)
        };
        let (sa, a) = load(&sorted);
        let (sb, b) = load(&shuffled);
        assert!(!a.cutoff_index().is_empty() && a.heap_stats().leaf_pages > 10);
        assert_eq!(a.stats_payload(), b.stats_payload());
        assert_eq!(sa.disk.stats(), sb.disk.stats());
        assert_eq!(sa.pool.counters(), sb.pool.counters());
        assert_eq!(file_images(&sa), file_images(&sb));
    }

    #[test]
    fn a_dangling_cutoff_pointer_is_corruption_not_a_panic() {
        use crate::fractured::{FracturedConfig, FracturedUpi};
        let cfg = FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        };
        let mut f = FracturedUpi::create(store(), "f", 1, &[2], cfg).unwrap();
        f.load_initial(&table4()).unwrap();
        // Bob's UCB alternative (5%) sits in the cutoff index, and his US
        // entry in the secondary, both pointing at his MIT heap copy:
        // delete that copy from under them.
        let cp = f.main().cutoff_index().scan(UCB, 0.0).unwrap()[0];
        let copy = keys::entry_key(cp.first_value, cp.first_prob, cp.tid);
        assert!(f.main_mut().heap.delete(&copy).unwrap());

        let is_corrupt = |value: u64, r: Result<Vec<PtqResult>>| match r {
            Err(StorageError::Corrupted(what)) => {
                assert!(what.contains(&format!("value {value}, tuple 2")), "{what}");
            }
            other => panic!("expected Corrupted, got {other:?}"),
        };
        is_corrupt(UCB, f.main().ptq(UCB, 0.0));
        // Every cursor, on a one-component chain and on the fractured one.
        for chain in [f.main().chain(), f.chain()] {
            for limit in [None, Some(3)] {
                is_corrupt(UCB, chain.point_run(UCB, 0.0, limit).unwrap().collect());
            }
            is_corrupt(UCB, chain.range_run(UCB, UCB, 0.0).unwrap().collect());
            for tailored in [true, false] {
                let run = chain.secondary_run(0, US, 0.0, tailored, None).unwrap();
                is_corrupt(US, run.collect());
            }
        }
    }

    #[test]
    fn damaged_heap_records_surface_as_corruption_naming_the_leaf() {
        let st = store();
        let mut u = DiscreteUpi::create(st.clone(), "u", 1, UpiConfig::default()).unwrap();
        u.bulk_load(&synthetic(300, 1)).unwrap();
        let leaf = u.first_leaf_page().unwrap();
        let good = st.pool.get(leaf).unwrap();
        // The first entry sits right after the 16-byte node header:
        // `klen u16 | vlen u16 | 20-byte key | tuple`. Its first field is
        // the string; claim more bytes for it than the record has.
        let (v, prob, tid) = keys::decode_entry_key(&good[20..40]);
        let tuple_at = 40;
        let mut bad = good.to_vec();
        assert_eq!(bad[tuple_at + 18], 2, "field 0 is a string");
        bad[tuple_at + 19..tuple_at + 23].copy_from_slice(&60_000u32.to_le_bytes());
        st.pool.put(leaf, bad.into());

        let is_corrupt = |r: Result<()>| match r {
            Err(StorageError::Corrupted(what)) => {
                assert!(
                    what.contains(&format!("{leaf:?}")),
                    "names the page: {what}"
                );
                assert!(what.contains("string needs 60000 bytes"), "{what}");
            }
            other => panic!("expected Corrupted, got {other:?}"),
        };
        is_corrupt(
            u.distinct_scan()
                .unwrap()
                .collect::<Result<Vec<_>>>()
                .map(drop),
        );
        is_corrupt(u.ptq(v, 0.0).map(drop));
        is_corrupt(u.fetch_by_pointer(v, prob, tid).map(drop));
        is_corrupt(u.ptq_range(0, 599, 0.0).map(drop));
        // The scan steps past the damaged entry: it is reported once.
        let mut scan = u.distinct_scan().unwrap();
        assert_eq!(scan.by_ref().filter(|t| t.is_err()).count(), 1);

        st.pool.put(leaf, good);
        assert_eq!(u.distinct_scan().unwrap().count(), 300);
    }

    #[test]
    fn scan_tuples_enumerates_each_once() {
        let u = upi_with(0.1);
        let scanned: Vec<Tuple> = u.distinct_scan().unwrap().collect::<Result<_>>().unwrap();
        let mut ids: Vec<u64> = scanned.iter().map(|t| t.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        // The same tuples as records, in scan order, `keep` filtering ids.
        let mut records = Records::default();
        u.scan_records(&mut records, |tid| tid != 2).unwrap();
        let kept: Vec<Tuple> = scanned.into_iter().filter(|t| t.id.0 != 2).collect();
        assert_eq!(records.to_tuples().unwrap(), kept);
    }

    #[test]
    fn stats_track_alternatives() {
        let u = upi_with(0.1);
        // 6 alternatives total across 3 tuples.
        assert_eq!(u.attr_stats().total(), 6);
        // MIT has two alternatives: 0.95 and 0.18.
        assert_eq!(u.attr_stats().value_count(MIT), 2);
        assert!(u.attr_stats().est_count_ge(MIT, 0.5) >= 0.9);
    }

    #[test]
    fn point_run_matches_ptq_in_confidence_order() {
        // Exercise both regimes: cutoff merge needed (C=0.99 pushes all
        // non-first alternatives into the cutoff index) and not needed.
        for c in [0.1, 0.99] {
            let u = upi_with(c);
            for value in [BROWN, MIT, UCB, UTOKYO] {
                for qt in [0.0, 0.01, 0.1, 0.5] {
                    let batch = u.ptq(value, qt).unwrap();
                    let streamed: Vec<PtqResult> = u
                        .point_run(value, qt, true)
                        .unwrap()
                        .collect::<Result<_>>()
                        .unwrap();
                    assert_eq!(batch.len(), streamed.len(), "C={c} v={value} qt={qt}");
                    for (a, b) in batch.iter().zip(&streamed) {
                        assert_eq!(a.tuple.id, b.tuple.id);
                        assert!((a.confidence - b.confidence).abs() < 1e-12);
                    }
                    // The merge must be confidence-ordered as it streams.
                    for w in streamed.windows(2) {
                        assert!(w[0].confidence >= w[1].confidence);
                    }
                }
            }
        }
    }

    #[test]
    fn range_run_matches_ptq_range() {
        let u = upi_with(0.1);
        for (lo, hi) in [(BROWN, MIT), (BROWN, UTOKYO), (UCB, UTOKYO), (MIT, MIT)] {
            for qt in [0.0, 0.1, 0.4] {
                let batch = u.ptq_range(lo, hi, qt).unwrap();
                let mut streamed: Vec<PtqResult> = u
                    .range_run(lo, hi, qt)
                    .unwrap()
                    .collect::<Result<_>>()
                    .unwrap();
                crate::exec::sort_results(&mut streamed);
                assert_eq!(batch.len(), streamed.len(), "[{lo},{hi}] qt={qt}");
                for (a, b) in batch.iter().zip(&streamed) {
                    assert_eq!(a.tuple.id, b.tuple.id);
                    assert!((a.confidence - b.confidence).abs() < 1e-12);
                }
            }
        }
        // Alternatives must sum: Carol (exist .8) at [US: .6, Japan: .4]
        // on the primary attr {BROWN: .6, UTOKYO: .4} → range over both
        // values has confidence .8 * 1.0 = .8.
        let all = u.ptq_range(BROWN, UTOKYO, 0.0).unwrap();
        let carol = all.iter().find(|r| r.tuple.id.0 == 3).unwrap();
        assert!((carol.confidence - 0.8).abs() < 1e-6);
    }

    #[test]
    fn secondary_run_limit_truncates_to_most_confident() {
        let u = upi_with(0.1);
        let full = u.ptq_secondary(0, US, 0.0, true).unwrap();
        assert!(full.len() >= 2);
        let mut limited: Vec<PtqResult> = u
            .secondary_run(0, US, 0.0, true, Some(2), &|_| true)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        crate::exec::sort_results(&mut limited);
        assert_eq!(limited.len(), 2);
        for (a, b) in full.iter().zip(&limited) {
            assert_eq!(a.tuple.id, b.tuple.id, "limit must keep the top entries");
            assert!((a.confidence - b.confidence).abs() < 1e-12);
        }
    }

    #[test]
    fn heap_scan_is_one_seek_then_sequential() {
        // The core UPI claim (§2): a PTQ needs one index seek followed by a
        // sequential scan. Build a larger UPI and measure.
        let st = store();
        let mut u = DiscreteUpi::create(st.clone(), "big", 1, UpiConfig::default()).unwrap();
        let tuples: Vec<Tuple> = (0..5000)
            .map(|i| {
                Tuple::new(
                    TupleId(i),
                    1.0,
                    vec![
                        Field::Certain(Datum::Str(format!("pad-{i}-{}", "x".repeat(64)))),
                        Field::Discrete(DiscretePmf::new(vec![(i % 5, 0.7), ((i % 5) + 5, 0.3)])),
                    ],
                )
            })
            .collect();
        u.bulk_load(&tuples).unwrap();
        st.go_cold();
        let before = st.disk.stats();
        let res = u.ptq(2, 0.5).unwrap();
        assert_eq!(res.len(), 1000);
        let d = st.disk.stats().since(&before);
        // Root-to-leaf descent plus the initial positioning: a handful of
        // seeks regardless of result size.
        assert!(d.seeks <= 6, "expected ~1 seek, saw {}", d.seeks);
    }
}
