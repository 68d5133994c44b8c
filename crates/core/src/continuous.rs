//! Continuous UPI (§5) and the secondary U-Tree baseline.
//!
//! "Our solution is to build a primary index on top of R-Tree variants like
//! PTIs and U-Trees. … we build a separate heap file structure that is
//! synchronized with the underlying R-Tree nodes … clustered by the
//! hierarchical location of corresponding nodes in the R-Tree. "It
//! consists of R-Tree nodes with small page sizes (e.g., 4 KB) and heap
//! pages with larger page size (e.g., 64 KB). Each leaf node of the R-Tree
//! is mapped to one heap page (or more than one when tuples for the leaf
//! node do not fit into one heap page)" — Figure 2.
//!
//! Three structures live here:
//!
//! * [`ContinuousUpi`] — the primary index: R-Tree + synchronized heap.
//! * [`SecondaryUTree`] — the baseline of Figure 7: the same R-Tree used as
//!   a *secondary* index, fetching each qualifying tuple from an
//!   unclustered heap by tuple id (one random seek per tuple).
//! * [`ContinuousSecondary`] — a PII-style B+Tree on a discrete attribute
//!   (road segment) whose pointers are *heap page locations* of the
//!   continuous UPI; spatial correlation between location and segment makes
//!   these pointers collapse onto few pages (Figure 8).

use std::collections::HashMap;

use bytes::Bytes;
use upi_btree::BTree;
use upi_rtree::{LeafEntry, Point, RTree, RTreeStats, SplitEvent};
use upi_storage::error::{Result, StorageError};
use upi_storage::{FileId, PageId, Store};
use upi_uncertain::tuple::{encode_tuple, TUPLE_HEADER_LEN};
use upi_uncertain::{AttrStats, ConstrainedGaussian, Tuple, TupleId, TupleView};

use crate::exec::{sort_results, PtqResult};
use crate::heap::UnclusteredHeap;
use crate::keys;
use crate::records::corrupt_record;

/// Page-size configuration for the continuous UPI (paper: 4 KB R-Tree
/// nodes, 64 KB heap pages).
#[derive(Debug, Clone, Copy)]
pub struct ContinuousConfig {
    /// R-Tree node page size.
    pub node_page: u32,
    /// Heap page size.
    pub heap_page: u32,
}

impl Default for ContinuousConfig {
    fn default() -> Self {
        ContinuousConfig {
            node_page: 4096,
            heap_page: 65536,
        }
    }
}

/// Build an R-Tree leaf entry from a tuple's location distribution.
fn leaf_entry(t: &Tuple, loc_attr: usize) -> LeafEntry {
    let g = t.point(loc_attr);
    let (min_x, min_y, max_x, max_y) = g.mbr();
    LeafEntry {
        rect: upi_rtree::Rect::new(min_x, min_y, max_x, max_y),
        tid: t.id.0,
        aux: [g.cx, g.cy, g.sigma, g.bound],
    }
}

/// Steps 1–2 of a circle PTQ, shared by the primary and the secondary
/// index: descend the R-Tree, and price every candidate from the
/// distribution parameters its leaf entry carries — no heap access.
///
/// Returns `(tid, p)` with `p = prob_in_circle` for the candidates with
/// `p ≥ qt`. Dropping the rest is sound because a tuple's confidence is
/// `exist × p` and `exist ≤ 1`; `p` has the bits the heap tuple's own
/// Gaussian would give, since `aux` stores that Gaussian's four fields.
fn circle_candidates(
    rtree: &RTree,
    qx: f64,
    qy: f64,
    radius: f64,
    qt: f64,
) -> Result<Vec<(u64, f64)>> {
    let mut out = Vec::new();
    rtree.for_each_in_circle(Point::new(qx, qy), radius, |_, e| {
        let [cx, cy, sigma, bound] = e.aux;
        let g = ConstrainedGaussian {
            cx,
            cy,
            sigma,
            bound,
        };
        // The quantile-circle bound first: two `exp`s against the kernel's
        // few hundred.
        if g.can_reach(qx, qy, radius, qt) {
            let p = g.prob_in_circle(qx, qy, radius);
            if p >= qt {
                out.push((e.tid, p));
            }
        }
    })?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Heap page codec: [count u16][(len u32, tuple bytes)*]
// ---------------------------------------------------------------------------

const HEAP_HEADER_LEN: usize = 2;
const RECORD_PREFIX_LEN: usize = 4;

/// A heap page holding encoded tuples `records`, in order.
fn encode_heap_page(records: &[&[u8]], page_size: usize) -> Bytes {
    let mut buf = vec![0u8; page_size];
    buf[0..2].copy_from_slice(&(records.len() as u16).to_le_bytes());
    let mut at = HEAP_HEADER_LEN;
    for r in records {
        buf[at..at + 4].copy_from_slice(&(r.len() as u32).to_le_bytes());
        at += RECORD_PREFIX_LEN;
        buf[at..at + r.len()].copy_from_slice(r);
        at += r.len();
    }
    assert!(at <= page_size, "heap page overflow");
    Bytes::from(buf)
}

/// `(tid, p)` pairs a scan looks for on one heap page; `p` is what the
/// caller priced the tuple at before fetching it.
type Wanted = Vec<(u64, f64)>;

/// Wanted tuples left over after their mapped pages were scanned: the
/// in-RAM tid→page map sent a lookup to a page that does not hold the
/// tuple, so the index and its heap disagree.
fn none_missing(missing: &[(u64, f64)]) -> Result<()> {
    match missing.first() {
        None => Ok(()),
        Some((tid, _)) => Err(StorageError::Corrupted(format!(
            "continuous UPI: tuple {tid} is not on the heap page it is mapped to"
        ))),
    }
}

/// One `[len][tuple]` record of a heap page, read in place: `tid` is the
/// id leading the tuple's fixed header, `tuple` the still-encoded tuple —
/// checked by [`view`](Self::view) only once a scan wants it.
struct HeapRecord<'a> {
    pid: PageId,
    tid: u64,
    tuple: &'a [u8],
}

impl<'a> HeapRecord<'a> {
    /// The tuple, checked; damage is `Corrupted` naming the page.
    fn view(&self) -> Result<TupleView<'a>> {
        TupleView::parse(self.tuple).map_err(|why| corrupt_record("heap", self.pid, why))
    }
}

/// In-place scanner over the records of one heap page — the only parser of
/// heap pages. A malformed page ends the scan with
/// [`StorageError::Corrupted`] naming the page.
struct HeapRecords<'a> {
    pid: PageId,
    data: &'a [u8],
    at: usize,
    left: usize,
}

fn corrupt_heap_page(pid: PageId, what: String) -> StorageError {
    StorageError::Corrupted(format!("heap page {pid:?}: {what}"))
}

fn heap_records(pid: PageId, data: &[u8]) -> Result<HeapRecords<'_>> {
    let count = data.get(..HEAP_HEADER_LEN).ok_or_else(|| {
        corrupt_heap_page(
            pid,
            format!("{} bytes, shorter than the header", data.len()),
        )
    })?;
    Ok(HeapRecords {
        pid,
        data,
        at: HEAP_HEADER_LEN,
        left: u16::from_le_bytes([count[0], count[1]]) as usize,
    })
}

impl<'a> HeapRecords<'a> {
    fn read_record(&mut self) -> Result<HeapRecord<'a>> {
        let at = self.at;
        let rest = &self.data[at..];
        let tuple = rest
            .get(..RECORD_PREFIX_LEN)
            .map(|len| u32::from_le_bytes(len.try_into().expect("4-byte slice")) as usize)
            .and_then(|len| rest[RECORD_PREFIX_LEN..].get(..len))
            .ok_or_else(|| {
                corrupt_heap_page(self.pid, format!("record at offset {at} overruns the page"))
            })?;
        let header = tuple.get(..TUPLE_HEADER_LEN).ok_or_else(|| {
            corrupt_heap_page(
                self.pid,
                format!(
                    "record of {} bytes at offset {at} is shorter than its \
                     {TUPLE_HEADER_LEN}-byte header",
                    tuple.len()
                ),
            )
        })?;
        self.at = at + RECORD_PREFIX_LEN + tuple.len();
        Ok(HeapRecord {
            pid: self.pid,
            tid: u64::from_le_bytes(header[..8].try_into().expect("8 bytes")),
            tuple,
        })
    }
}

impl<'a> Iterator for HeapRecords<'a> {
    type Item = Result<HeapRecord<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let rec = self.read_record();
        self.left = if rec.is_ok() { self.left - 1 } else { 0 };
        Some(rec)
    }
}

/// Every tuple of a heap page, checked — for a page about to be rewritten
/// (append, leaf split), which copies the records; queries scan
/// [`heap_records`] instead.
fn page_records(pid: PageId, data: &[u8]) -> Result<Vec<TupleView<'_>>> {
    heap_records(pid, data)?.map(|rec| rec?.view()).collect()
}

// ---------------------------------------------------------------------------
// ContinuousUpi
// ---------------------------------------------------------------------------

/// The continuous UPI: an R-Tree over constrained-Gaussian locations with a
/// heap file clustered in the tree's depth-first leaf order.
pub struct ContinuousUpi {
    store: Store,
    cfg: ContinuousConfig,
    loc_attr: usize,
    rtree: RTree,
    heap_file: FileId,
    /// R-Tree leaf page → chain of heap pages (first + overflow).
    leaf_chain: HashMap<PageId, Vec<PageId>>,
    /// Tuple id → heap page currently holding it (maintained on splits;
    /// this is the in-RAM piece of the leaf↔heap synchronization).
    tid_page: HashMap<u64, PageId>,
    n_tuples: u64,
}

impl ContinuousUpi {
    /// Create an empty continuous UPI on point field `loc_attr`.
    pub fn create(
        store: Store,
        name: &str,
        loc_attr: usize,
        cfg: ContinuousConfig,
    ) -> Result<ContinuousUpi> {
        let rtree = RTree::create(store.clone(), &format!("{name}.rtree"), cfg.node_page)?;
        let heap_file = store
            .disk
            .create_file(&format!("{name}.cheap"), cfg.heap_page);
        Ok(ContinuousUpi {
            store,
            cfg,
            loc_attr,
            rtree,
            heap_file,
            leaf_chain: HashMap::new(),
            tid_page: HashMap::new(),
            n_tuples: 0,
        })
    }

    /// Bulk-load tuples: STR-build the R-Tree, then lay heap pages out in
    /// depth-first leaf order (Figure 2's hierarchical clustering).
    pub fn bulk_load(&mut self, tuples: &[Tuple]) -> Result<()> {
        assert!(self.n_tuples == 0, "bulk_load requires an empty index");
        let by_tid: HashMap<u64, &Tuple> = tuples.iter().map(|t| (t.id.0, t)).collect();
        let entries: Vec<LeafEntry> = tuples
            .iter()
            .map(|t| leaf_entry(t, self.loc_attr))
            .collect();
        self.rtree.bulk_load(entries)?;

        for leaf in self.rtree.leaf_order()? {
            let leaf_tuples: Vec<Vec<u8>> = self
                .rtree
                .leaf_entries(leaf)?
                .iter()
                .map(|e| encode_tuple(by_tid[&e.tid]))
                .collect();
            let records: Vec<&[u8]> = leaf_tuples.iter().map(Vec::as_slice).collect();
            let chain = self.write_chain(&records)?;
            self.index_chain(&chain)?;
            self.leaf_chain.insert(leaf, chain);
        }
        self.n_tuples = tuples.len() as u64;
        self.store.pool.flush_all();
        Ok(())
    }

    /// Write encoded tuples into a fresh chain of heap pages (greedy
    /// packing).
    fn write_chain(&mut self, records: &[&[u8]]) -> Result<Vec<PageId>> {
        let page_size = self.cfg.heap_page as usize;
        let mut chain = Vec::new();
        // The page being filled holds `records[start..i]` in `used` bytes.
        let mut start = 0;
        let mut used = HEAP_HEADER_LEN;
        for (i, r) in records.iter().enumerate() {
            let need = RECORD_PREFIX_LEN + r.len();
            if used + need > page_size && i > start {
                chain.push(self.write_heap_page(&records[start..i])?);
                start = i;
                used = HEAP_HEADER_LEN;
            }
            used += need;
        }
        chain.push(self.write_heap_page(&records[start..])?);
        Ok(chain)
    }

    fn write_heap_page(&mut self, records: &[&[u8]]) -> Result<PageId> {
        let pid = self.store.disk.alloc_page(self.heap_file)?;
        self.store
            .pool
            .put(pid, encode_heap_page(records, self.cfg.heap_page as usize));
        Ok(pid)
    }

    /// Record tid→page for every tuple in a chain (reads through the pool,
    /// which still holds the just-written frames).
    fn index_chain(&mut self, chain: &[PageId]) -> Result<()> {
        for &pid in chain {
            let page = self.store.pool.get(pid)?;
            for rec in heap_records(pid, &page)? {
                self.tid_page.insert(rec?.tid, pid);
            }
        }
        Ok(())
    }

    /// Insert one tuple: R-Tree insert (splitting heap pages alongside leaf
    /// splits, §5) then append to the destination leaf's chain.
    pub fn insert(&mut self, t: &Tuple) -> Result<()> {
        let mut events: Vec<SplitEvent> = Vec::new();
        let dest_leaf = self
            .rtree
            .insert(leaf_entry(t, self.loc_attr), &mut events)?;

        for ev in &events {
            self.split_chain(ev)?;
        }

        // Append the tuple to its leaf's chain (allocating an overflow page
        // when full — Figure 2's "overflow page").
        let page_size = self.cfg.heap_page as usize;
        let enc = encode_tuple(t);
        let chain = self.leaf_chain.entry(dest_leaf).or_default();
        let mut placed = false;
        if let Some(&last) = chain.last() {
            let page = self.store.pool.get(last)?;
            let mut records: Vec<&[u8]> = page_records(last, &page)?
                .iter()
                .map(|r| r.bytes())
                .collect();
            records.push(&enc);
            let used: usize = records.iter().map(|r| RECORD_PREFIX_LEN + r.len()).sum();
            if HEAP_HEADER_LEN + used <= page_size {
                self.store
                    .pool
                    .put(last, encode_heap_page(&records, page_size));
                self.tid_page.insert(t.id.0, last);
                placed = true;
            }
        }
        if !placed {
            let pid = self.write_heap_page(&[&enc])?;
            self.leaf_chain
                .get_mut(&dest_leaf)
                .expect("chain just ensured")
                .push(pid);
            self.tid_page.insert(t.id.0, pid);
        }
        self.n_tuples += 1;
        Ok(())
    }

    /// Mirror an R-Tree leaf split onto the heap: tuples of the moved
    /// entries migrate to a fresh chain for the new leaf.
    fn split_chain(&mut self, ev: &SplitEvent) -> Result<()> {
        let old_chain = self.leaf_chain.remove(&ev.old_leaf).unwrap_or_default();
        let mut pages = Vec::with_capacity(old_chain.len());
        for &pid in &old_chain {
            pages.push((pid, self.store.pool.get(pid)?));
            self.store.pool.discard(pid);
            self.store.free_page(pid)?;
        }
        let moved: std::collections::HashSet<u64> = ev.moved.iter().copied().collect();
        let (mut stay, mut go): (Vec<&[u8]>, Vec<&[u8]>) = Default::default();
        for (pid, page) in &pages {
            for r in page_records(*pid, page)? {
                if moved.contains(&r.id().0) {
                    go.push(r.bytes());
                } else {
                    stay.push(r.bytes());
                }
            }
        }
        let stay_chain = self.write_chain(&stay)?;
        let go_chain = self.write_chain(&go)?;
        self.index_chain(&stay_chain)?;
        self.index_chain(&go_chain)?;
        self.leaf_chain.insert(ev.old_leaf, stay_chain);
        self.leaf_chain.insert(ev.new_leaf, go_chain);
        Ok(())
    }

    /// Query 4: `SELECT * WHERE Distance(location, q) ≤ radius` with
    /// confidence threshold `qt`.
    ///
    /// 1. **Descend** the R-Tree (4 KB node pages, read in place).
    /// 2. **Prune and price from the leaf `aux`**: every candidate's circle
    ///    probability `p` is computed from the distribution parameters in
    ///    its leaf entry, and only candidates with `p ≥ qt` go on
    ///    (`circle_candidates`) — a border tuple that cannot qualify never
    ///    pulls its heap page in.
    /// 3. **Fetch the surviving pages** in physical order — contiguous
    ///    thanks to the hierarchical clustering — scanning their records in
    ///    place for the wanted tuple ids.
    /// 4. **Decode qualifying rows**: `exist` is read from the record
    ///    header, and a tuple is decoded only when `exist × p ≥ qt`.
    pub fn query_circle(&self, qx: f64, qy: f64, radius: f64, qt: f64) -> Result<Vec<PtqResult>> {
        let mut wanted: HashMap<PageId, Wanted> = HashMap::new();
        for (tid, p) in circle_candidates(&self.rtree, qx, qy, radius, qt)? {
            let page = self.tid_page.get(&tid).ok_or_else(|| {
                StorageError::Corrupted(format!(
                    "continuous UPI: r-tree entry for tuple {tid} has no heap page"
                ))
            })?;
            wanted.entry(*page).or_default().push((tid, p));
        }
        let mut out = Vec::new();
        let missing = self.scan_wanted(wanted, |rec, p| {
            let t = rec.view()?;
            let confidence = t.exist() * p;
            if confidence >= qt {
                let tuple = t.to_tuple();
                out.push(PtqResult { tuple, confidence });
            }
            Ok(())
        })?;
        none_missing(&missing)?;
        sort_results(&mut out);
        Ok(out)
    }

    /// Visit the pages of `wanted` in physical order and call `hit(record,
    /// p)` for each wanted `(tid, p)` found on its page, scanning the page's
    /// records in place. Returns the wanted entries that were **not** on
    /// their page.
    fn scan_wanted(
        &self,
        wanted: HashMap<PageId, Wanted>,
        mut hit: impl FnMut(&HeapRecord<'_>, f64) -> Result<()>,
    ) -> Result<Wanted> {
        // One offset lookup per distinct page, before the sort: the disk's
        // page table sits behind a lock, which a sort comparator would
        // take O(n log n) times.
        let mut pages: Vec<(u64, PageId, Wanted)> = wanted
            .into_iter()
            .map(|(pid, want)| {
                let offset = self.store.disk.page_offset(pid).unwrap_or(u64::MAX);
                (offset, pid, want)
            })
            .collect();
        pages.sort_unstable_by_key(|&(offset, pid, _)| (offset, pid));
        let mut missing = Vec::new();
        for (_, pid, mut want) in pages {
            let page = self.store.pool.get(pid)?;
            for rec in heap_records(pid, &page)? {
                let rec = rec?;
                if let Some(i) = want.iter().position(|&(tid, _)| tid == rec.tid) {
                    hit(&rec, want.swap_remove(i).1)?;
                    if want.is_empty() {
                        break;
                    }
                }
            }
            missing.append(&mut want);
        }
        Ok(missing)
    }

    /// The heap page currently holding tuple `tid`.
    pub fn page_of(&self, tid: TupleId) -> Option<PageId> {
        self.tid_page.get(&tid.0).copied()
    }

    /// Number of tuples.
    pub fn n_tuples(&self) -> u64 {
        self.n_tuples
    }

    /// The indexed point field.
    pub fn attr(&self) -> usize {
        self.loc_attr
    }

    /// Bounding rectangle of every indexed location (`None` when empty) —
    /// the spatial domain for the planner's circle selectivity estimate.
    pub fn bounds(&self) -> Option<upi_rtree::Rect> {
        self.rtree.bounds()
    }

    /// R-Tree statistics.
    pub fn rtree_stats(&self) -> RTreeStats {
        self.rtree.stats()
    }

    /// Live bytes (R-Tree nodes + heap pages).
    pub fn total_bytes(&self) -> u64 {
        let rtree_bytes = (self.rtree.stats().leaf_pages + self.rtree.stats().internal_pages)
            as u64
            * self.cfg.node_page as u64;
        let heap_bytes = self.store.disk.file_bytes(self.heap_file).unwrap_or(0);
        rtree_bytes + heap_bytes
    }
}

// ---------------------------------------------------------------------------
// SecondaryUTree
// ---------------------------------------------------------------------------

/// The Figure 7 baseline: the same probabilistic R-Tree used as a
/// *secondary* index — qualifying tuples are fetched one by one from an
/// unclustered heap.
pub struct SecondaryUTree {
    rtree: RTree,
    loc_attr: usize,
}

impl SecondaryUTree {
    /// Create on point field `loc_attr` with `node_page`-byte nodes.
    pub fn create(
        store: Store,
        name: &str,
        loc_attr: usize,
        node_page: u32,
    ) -> Result<SecondaryUTree> {
        Ok(SecondaryUTree {
            rtree: RTree::create(store, &format!("{name}.utree"), node_page)?,
            loc_attr,
        })
    }

    /// STR bulk load.
    pub fn bulk_load(&mut self, tuples: &[Tuple]) -> Result<()> {
        let entries: Vec<LeafEntry> = tuples
            .iter()
            .map(|t| leaf_entry(t, self.loc_attr))
            .collect();
        self.rtree.bulk_load(entries)
    }

    /// Insert one tuple's entry.
    pub fn insert(&mut self, t: &Tuple) -> Result<()> {
        let mut events = Vec::new();
        self.rtree
            .insert(leaf_entry(t, self.loc_attr), &mut events)?;
        Ok(())
    }

    /// Query 4 through the secondary index: candidates from the R-Tree,
    /// pruned and priced from their leaf entries exactly as the primary
    /// index does, then one unclustered-heap fetch per survivor (sorted by
    /// tid — the bitmap-scan discipline — but still one random hop each).
    pub fn query_circle(
        &self,
        heap: &UnclusteredHeap,
        qx: f64,
        qy: f64,
        radius: f64,
        qt: f64,
    ) -> Result<Vec<PtqResult>> {
        let mut candidates = circle_candidates(&self.rtree, qx, qy, radius, qt)?;
        candidates.sort_unstable_by_key(|&(tid, _)| tid);
        let mut out = Vec::new();
        for (tid, p) in candidates {
            if let Some(t) = heap.get(TupleId(tid))? {
                let confidence = t.exist * p;
                if confidence >= qt {
                    out.push(PtqResult {
                        tuple: t,
                        confidence,
                    });
                }
            }
        }
        sort_results(&mut out);
        Ok(out)
    }

    /// R-Tree statistics.
    pub fn stats(&self) -> RTreeStats {
        self.rtree.stats()
    }

    /// The indexed point field.
    pub fn attr(&self) -> usize {
        self.loc_attr
    }

    /// Bounding rectangle of every indexed location (`None` when empty).
    pub fn bounds(&self) -> Option<upi_rtree::Rect> {
        self.rtree.bounds()
    }
}

// ---------------------------------------------------------------------------
// ContinuousSecondary
// ---------------------------------------------------------------------------

/// A PII-style secondary index on a discrete attribute of a continuous-UPI
/// table (Query 5: road segment). Entries are `(segment, confidence DESC,
/// tid)`; the payload is the heap **page** holding the tuple, so the index
/// exploits the UPI's replicated spatial clustering: one road segment's
/// tuples collapse onto a handful of heap pages.
pub struct ContinuousSecondary {
    attr: usize,
    tree: BTree,
    stats: AttrStats,
}

impl ContinuousSecondary {
    /// Create on discrete field `attr`.
    pub fn create(
        store: Store,
        name: &str,
        attr: usize,
        page_size: u32,
    ) -> Result<ContinuousSecondary> {
        Ok(ContinuousSecondary {
            attr,
            tree: BTree::create(store, name, page_size)?,
            stats: AttrStats::new(),
        })
    }

    /// Bulk-load entries for `tuples`, resolving heap pages through `upi`.
    pub fn bulk_load(&mut self, upi: &ContinuousUpi, tuples: &[Tuple]) -> Result<u64> {
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for t in tuples {
            let page = upi
                .page_of(t.id)
                .expect("tuple must be loaded into the continuous UPI first");
            for (i, &(v, p)) in t.discrete(self.attr).alternatives().iter().enumerate() {
                entries.push((
                    keys::entry_key(v, p * t.exist, t.id.0),
                    page.0.to_le_bytes().to_vec(),
                ));
                self.stats.add(v, p * t.exist, i == 0);
            }
        }
        entries.sort();
        self.tree.bulk_load(entries)
    }

    /// Query 5: `SELECT * WHERE segment = value, confidence ≥ qt` through
    /// the continuous UPI's heap.
    pub fn ptq(&self, upi: &ContinuousUpi, value: u64, qt: f64) -> Result<Vec<PtqResult>> {
        // Index scan, grouping the pointers by heap page.
        let mut wanted: HashMap<PageId, Wanted> = HashMap::new();
        let mut cur = self.tree.seek(&keys::value_prefix(value))?;
        while cur.valid() {
            let (v, prob, tid) = keys::decode_entry_key(cur.key());
            if v != value || prob < qt {
                break;
            }
            let page = PageId(u64::from_le_bytes(cur.value().try_into().unwrap()));
            wanted.entry(page).or_default().push((tid, prob));
            cur.advance()?;
        }
        let mut out = Vec::new();
        let mut emit = |rec: &HeapRecord<'_>, confidence: f64| {
            let tuple = rec.view()?.to_tuple();
            out.push(PtqResult { tuple, confidence });
            Ok(())
        };
        let stale = upi.scan_wanted(wanted, &mut emit)?;
        // Tuples that migrated during a later leaf split: the
        // synchronization map knows where they live now. Regrouped by that
        // page, each page is read and scanned once however many moved there.
        let mut moved: HashMap<PageId, Wanted> = HashMap::new();
        for (tid, prob) in stale {
            let page = upi.page_of(TupleId(tid)).ok_or_else(|| {
                StorageError::Corrupted(format!(
                    "continuous secondary: tuple {tid} is not in the continuous UPI"
                ))
            })?;
            moved.entry(page).or_default().push((tid, prob));
        }
        let lost = upi.scan_wanted(moved, &mut emit)?;
        none_missing(&lost)?;
        sort_results(&mut out);
        Ok(out)
    }

    /// Entry count.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Live bytes.
    pub fn bytes(&self) -> u64 {
        self.tree.stats().bytes
    }

    /// The indexed discrete field.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// Height of the backing tree (cost-model `H`).
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Histogram statistics of the indexed attribute (folded
    /// probabilities) — selectivity estimation for the planner.
    pub fn attr_stats(&self) -> &AttrStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, DiscretePmf, Field};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 16 << 20)
    }

    /// Deterministic observation at (x, y) on segment `seg`.
    fn obs(id: u64, x: f64, y: f64, seg: u64) -> Tuple {
        Tuple::new(
            TupleId(id),
            1.0,
            vec![
                Field::Point(ConstrainedGaussian::new(x, y, 10.0, 50.0)),
                Field::Discrete(DiscretePmf::new(vec![(seg, 0.8), (seg + 1000, 0.15)])),
                Field::Certain(Datum::F64(13.0)),
                Field::Certain(Datum::Str("p".repeat(100))),
            ],
        )
    }

    fn cloud(n: u64) -> Vec<Tuple> {
        let mut state = 0xC0FFEEu64;
        let mut unif = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let x = unif() * 5000.0;
                let y = unif() * 5000.0;
                let seg = ((x / 500.0) as u64) * 10 + (y / 500.0) as u64;
                obs(i, x, y, seg)
            })
            .collect()
    }

    fn linear_query(tuples: &[Tuple], qx: f64, qy: f64, r: f64, qt: f64) -> Vec<u64> {
        let mut out: Vec<u64> = tuples
            .iter()
            .filter(|t| t.exist * t.point(0).prob_in_circle(qx, qy, r) >= qt)
            .map(|t| t.id.0)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn bulk_query_matches_linear_scan() {
        let tuples = cloud(4000);
        let mut upi = ContinuousUpi::create(store(), "c", 0, ContinuousConfig::default()).unwrap();
        upi.bulk_load(&tuples).unwrap();
        for (qx, qy, r, qt) in [
            (2500.0, 2500.0, 300.0, 0.5),
            (1000.0, 4000.0, 150.0, 0.1),
            (0.0, 0.0, 500.0, 0.9),
        ] {
            let mut got: Vec<u64> = upi
                .query_circle(qx, qy, r, qt)
                .unwrap()
                .iter()
                .map(|r| r.tuple.id.0)
                .collect();
            got.sort_unstable();
            assert_eq!(
                got,
                linear_query(&tuples, qx, qy, r, qt),
                "q=({qx},{qy},{r},{qt})"
            );
        }
    }

    #[test]
    fn secondary_utree_matches_continuous_upi_results() {
        let st = store();
        let tuples = cloud(3000);
        let mut upi =
            ContinuousUpi::create(st.clone(), "c", 0, ContinuousConfig::default()).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let mut heap = UnclusteredHeap::create(st.clone(), "uheap", 8192).unwrap();
        heap.bulk_load(&tuples).unwrap();
        let mut ut = SecondaryUTree::create(st.clone(), "ut", 0, 4096).unwrap();
        ut.bulk_load(&tuples).unwrap();

        let a: Vec<u64> = upi
            .query_circle(2500.0, 2500.0, 400.0, 0.3)
            .unwrap()
            .iter()
            .map(|r| r.tuple.id.0)
            .collect();
        let b: Vec<u64> = ut
            .query_circle(&heap, 2500.0, 2500.0, 400.0, 0.3)
            .unwrap()
            .iter()
            .map(|r| r.tuple.id.0)
            .collect();
        let mut a = a;
        let mut b = b;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn continuous_upi_reads_fewer_seeks_than_utree() {
        // The Figure 7 mechanism at unit-test scale. File-open charges are
        // excluded (both sides open two files; the interesting quantity is
        // the transfer/seek pattern). Buffer-pool read-ahead is disabled:
        // at this tiny scale the U-Tree's tid-order candidate fetches land
        // on adjacent heap pages and read-ahead collapses them into a
        // near-sequential scan, masking the clustering-vs-seek mechanism
        // this test isolates (at benchmark scale candidates are sparse and
        // read-ahead never arms on that path).
        let st = Store::new(
            Arc::new(SimDisk::new(upi_storage::DiskConfig {
                readahead_pages: 0,
                ..upi_storage::DiskConfig::default()
            })),
            8 << 20,
        );
        let tuples = cloud(12_000);
        let mut upi =
            ContinuousUpi::create(st.clone(), "c", 0, ContinuousConfig::default()).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let mut heap = UnclusteredHeap::create(st.clone(), "uheap", 8192).unwrap();
        heap.bulk_load(&tuples).unwrap();
        let mut ut = SecondaryUTree::create(st.clone(), "ut", 0, 4096).unwrap();
        ut.bulk_load(&tuples).unwrap();

        let io_ms = |st: &Store, f: &dyn Fn()| {
            st.go_cold();
            let before = st.disk.stats();
            f();
            let d = st.disk.stats().since(&before);
            d.total_ms() - d.init_ms
        };
        let upi_ms = io_ms(&st, &|| {
            upi.query_circle(2500.0, 2500.0, 600.0, 0.3).unwrap();
        });
        let ut_ms = io_ms(&st, &|| {
            ut.query_circle(&heap, 2500.0, 2500.0, 600.0, 0.3).unwrap();
        });
        // At unit-test scale the win is small (the unclustered heap is only
        // a few MB); the order-of-magnitude factor of Figure 7 is exercised
        // at benchmark scale. Here we only require a strict win.
        assert!(
            upi_ms < ut_ms,
            "continuous UPI ({upi_ms:.0}ms) must beat secondary U-Tree ({ut_ms:.0}ms)"
        );
    }

    #[test]
    fn incremental_insert_with_splits_preserves_queries() {
        let tuples = cloud(1500);
        let mut upi = ContinuousUpi::create(
            store(),
            "c",
            0,
            ContinuousConfig {
                node_page: 4096,
                heap_page: 8192, // small pages force overflow + split handling
            },
        )
        .unwrap();
        upi.bulk_load(&tuples[..500]).unwrap();
        for t in &tuples[500..] {
            upi.insert(t).unwrap();
        }
        assert_eq!(upi.n_tuples(), 1500);
        for (qx, qy, r, qt) in [(2500.0, 2500.0, 400.0, 0.4), (500.0, 500.0, 300.0, 0.2)] {
            let mut got: Vec<u64> = upi
                .query_circle(qx, qy, r, qt)
                .unwrap()
                .iter()
                .map(|r| r.tuple.id.0)
                .collect();
            got.sort_unstable();
            assert_eq!(got, linear_query(&tuples, qx, qy, r, qt));
        }
    }

    #[test]
    fn continuous_secondary_ptq_matches_direct_filter() {
        let st = store();
        let tuples = cloud(3000);
        let mut upi =
            ContinuousUpi::create(st.clone(), "c", 0, ContinuousConfig::default()).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let mut sec = ContinuousSecondary::create(st.clone(), "seg", 1, 8192).unwrap();
        sec.bulk_load(&upi, &tuples).unwrap();

        let seg = 55u64;
        let qt = 0.5;
        let mut got: Vec<u64> = sec
            .ptq(&upi, seg, qt)
            .unwrap()
            .iter()
            .map(|r| r.tuple.id.0)
            .collect();
        got.sort_unstable();
        let mut want: Vec<u64> = tuples
            .iter()
            .filter(|t| t.exist * t.discrete(1).prob_of(seg) >= qt)
            .map(|t| t.id.0)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty(), "busy segment must match something");
    }

    /// A heap page holding `tuples`, and how many of its bytes they use.
    fn heap_page(tuples: &[Tuple], page_size: usize) -> (Bytes, usize) {
        let enc: Vec<Vec<u8>> = tuples.iter().map(encode_tuple).collect();
        let records: Vec<&[u8]> = enc.iter().map(Vec::as_slice).collect();
        let used: usize = records.iter().map(|r| RECORD_PREFIX_LEN + r.len()).sum();
        (
            encode_heap_page(&records, page_size),
            HEAP_HEADER_LEN + used,
        )
    }

    #[test]
    fn heap_page_codec_roundtrip() {
        let tuples = cloud(10);
        let (page, _) = heap_page(&tuples, 65536);
        let back = page_records(PageId(0), &page).unwrap();
        assert_eq!(
            back.iter().map(|r| r.to_tuple()).collect::<Vec<_>>(),
            tuples
        );
    }

    /// Buffer-pool `get` calls (hits + misses) made while `f` runs.
    fn pool_gets(st: &Store, f: &dyn Fn()) -> u64 {
        let before = st.pool.counters();
        f();
        let d = st.pool.counters().since(&before);
        d.hits + d.misses
    }

    fn expect_corrupted<T: std::fmt::Debug>(r: Result<T>, names: &str) {
        match r {
            Err(StorageError::Corrupted(what)) => {
                assert!(what.contains(names), "{what:?} must name {names}")
            }
            other => panic!("expected Corrupted, got {other:?}"),
        }
    }

    #[test]
    fn heap_record_scanner_reads_headers_in_place_and_reports_corruption() {
        let tuples = uncertain_cloud(10);
        let (page, used) = heap_page(&tuples, 8192);
        let pid = PageId(31);
        let headers: Vec<(u64, f64)> = heap_records(pid, &page)
            .unwrap()
            .map(|r| r.and_then(|r| Ok((r.tid, r.view()?.exist()))))
            .collect::<Result<_>>()
            .unwrap();
        let want: Vec<(u64, f64)> = tuples.iter().map(|t| (t.id.0, t.exist)).collect();
        assert_eq!(headers, want);

        let scan = |page: &[u8]| -> Result<usize> {
            let mut n = 0;
            for rec in heap_records(pid, page)? {
                rec?;
                n += 1;
            }
            Ok(n)
        };
        // Shorter than the count header.
        expect_corrupted(scan(&page[..1]), "31");
        // First record's length runs past the end of the page.
        let mut bad = page.to_vec();
        bad[2..6].copy_from_slice(&(8192u32).to_le_bytes());
        expect_corrupted(scan(&bad), "overruns");
        bad[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        expect_corrupted(scan(&bad), "31");
        // A record too short to hold a tuple header.
        let mut bad = page.to_vec();
        bad[2..6].copy_from_slice(&17u32.to_le_bytes());
        expect_corrupted(scan(&bad), "header");
        // More records declared than the page holds: the scan runs into the
        // zero fill (length-0 records) or off the end — never a panic.
        let mut bad = page.to_vec();
        bad[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
        expect_corrupted(scan(&bad), "31");
        let tight = &page[..used];
        assert_eq!(scan(tight).unwrap(), 10);
        let mut bad = tight.to_vec();
        bad[0..2].copy_from_slice(&11u16.to_le_bytes());
        expect_corrupted(scan(&bad), "overruns");
        // The scan stops at the first error.
        let mut records = heap_records(pid, &bad).unwrap();
        assert_eq!(records.by_ref().filter(|r| r.is_ok()).count(), 10);
        assert!(records.next().is_none());
    }

    #[test]
    fn corrupt_pages_surface_as_errors_from_query_circle() {
        let tuples = cloud(3000);
        let (qx, qy, r, qt) = (2500.0, 2500.0, 400.0, 0.3);
        let build = || {
            let mut upi =
                ContinuousUpi::create(store(), "c", 0, ContinuousConfig::default()).unwrap();
            upi.bulk_load(&tuples).unwrap();
            assert!(!upi.query_circle(qx, qy, r, qt).unwrap().is_empty());
            upi
        };
        // A leaf the query descends into: bad tag, then truncated.
        let upi = build();
        let mut leaf = None;
        upi.rtree
            .for_each_in_circle(Point::new(qx, qy), r, |pid, _| leaf = Some(pid))
            .unwrap();
        let leaf = leaf.unwrap();
        let good = upi.store.pool.get(leaf).unwrap();
        let mut bad = good.to_vec();
        bad[0] = 9;
        upi.store.pool.put(leaf, Bytes::from(bad));
        expect_corrupted(upi.query_circle(qx, qy, r, qt), &format!("{leaf:?}"));
        upi.store.pool.put(leaf, good.slice(0..100));
        expect_corrupted(upi.query_circle(qx, qy, r, qt), &format!("{leaf:?}"));

        // A heap page the query fetches: first record overruns the page.
        let upi = build();
        let hit = upi.query_circle(qx, qy, r, qt).unwrap()[0].tuple.id;
        let pid = upi.page_of(hit).unwrap();
        let mut bad = upi.store.pool.get(pid).unwrap().to_vec();
        bad[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        upi.store.pool.put(pid, Bytes::from(bad));
        expect_corrupted(upi.query_circle(qx, qy, r, qt), &format!("{pid:?}"));

        // An R-Tree entry whose tuple the synchronization map lost.
        let mut upi = build();
        upi.tid_page.remove(&hit.0);
        expect_corrupted(upi.query_circle(qx, qy, r, qt), &hit.0.to_string());
    }

    #[test]
    fn damaged_heap_records_surface_as_corruption_from_circle_and_segment_queries() {
        let st = store();
        let tuples = cloud(3000);
        let mut upi =
            ContinuousUpi::create(st.clone(), "c", 0, ContinuousConfig::default()).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let mut sec = ContinuousSecondary::create(st.clone(), "seg", 1, 8192).unwrap();
        sec.bulk_load(&upi, &tuples).unwrap();
        // The first record of a heap page: `count u16 | len u32`, then the
        // tuple — its 18-byte header, the point (tag and 32 bytes) and the
        // segment PMF's tag. Claim more alternatives than the record has.
        let pid = upi.page_of(tuples[1234].id).unwrap();
        let good = st.pool.get(pid).unwrap();
        let victim = &tuples[u64::from_le_bytes(good[6..14].try_into().unwrap()) as usize];
        let count_at = 2 + 4 + 18 + 33 + 1;
        let mut bad = good.to_vec();
        assert_eq!(bad[count_at - 1], 3, "field 1 is the segment PMF");
        bad[count_at..count_at + 2].copy_from_slice(&60_000u16.to_le_bytes());
        st.pool.put(pid, Bytes::from(bad));

        let (g, seg) = (victim.point(0), victim.discrete(1).first().0);
        let circle = || upi.query_circle(g.cx, g.cy, 30.0, 0.0);
        let segment = || sec.ptq(&upi, seg, 0.0);
        for r in [circle(), segment()] {
            expect_corrupted(r.map(drop), &format!("{pid:?}"));
        }
        expect_corrupted(segment().map(drop), "alternatives needs");

        st.pool.put(pid, good);
        for r in [circle(), segment()] {
            assert!(r.unwrap().iter().any(|row| row.tuple == *victim));
        }
    }

    /// `cloud(n)` with existence probabilities spread over (0, 1).
    fn uncertain_cloud(n: u64) -> Vec<Tuple> {
        let mut tuples = cloud(n);
        for t in &mut tuples {
            t.exist = 0.02 + 0.97 * ((t.id.0 * 2654435761 % 1000) as f64 / 1000.0);
        }
        tuples
    }

    /// `(id, confidence bits)` of a result list, in its order.
    fn id_bits(rows: &[PtqResult]) -> Vec<(u64, u64)> {
        rows.iter()
            .map(|r| (r.tuple.id.0, r.confidence.to_bits()))
            .collect()
    }

    /// What a circle PTQ must return, by definition: every tuple's
    /// `exist × prob_in_circle` against the threshold, in result order.
    fn linear_circle(tuples: &[Tuple], qx: f64, qy: f64, r: f64, qt: f64) -> Vec<(u64, u64)> {
        let mut rows: Vec<PtqResult> = tuples
            .iter()
            .map(|t| PtqResult {
                tuple: t.clone(),
                confidence: t.exist * t.point(0).prob_in_circle(qx, qy, r),
            })
            .filter(|r| r.confidence >= qt)
            .collect();
        sort_results(&mut rows);
        id_bits(&rows)
    }

    #[test]
    fn existence_below_one_matches_linear_scan_bit_for_bit() {
        let st = store();
        let tuples = uncertain_cloud(2500);
        let cfg = ContinuousConfig {
            node_page: 4096,
            heap_page: 8192,
        };
        let mut upi = ContinuousUpi::create(st.clone(), "c", 0, cfg).unwrap();
        let mut heap = UnclusteredHeap::create(st.clone(), "uheap", 8192).unwrap();
        let mut ut = SecondaryUTree::create(st.clone(), "ut", 0, 4096).unwrap();
        let queries = [
            (2500.0, 2500.0, 400.0, 0.4),
            (2500.0, 2500.0, 400.0, 0.05),
            (500.0, 4500.0, 700.0, 0.2),
            (4000.0, 1000.0, 60.0, 0.01),
            (1234.0, 3210.0, 250.0, 0.001),
        ];
        let check = |upi: &ContinuousUpi, ut: &SecondaryUTree, heap: &UnclusteredHeap, n| {
            let mut dropped_by_existence = 0;
            for (qx, qy, r, qt) in queries {
                let want = linear_circle(&tuples[..n], qx, qy, r, qt);
                assert!(!want.is_empty(), "q=({qx},{qy},{r},{qt}) matches nothing");
                let got = upi.query_circle(qx, qy, r, qt).unwrap();
                assert_eq!(id_bits(&got), want, "primary q=({qx},{qy},{r},{qt})");
                let got = ut.query_circle(heap, qx, qy, r, qt).unwrap();
                assert_eq!(id_bits(&got), want, "u-tree q=({qx},{qy},{r},{qt})");
                dropped_by_existence += tuples[..n]
                    .iter()
                    .filter(|t| {
                        let p = t.point(0).prob_in_circle(qx, qy, r);
                        p >= qt && t.exist * p < qt
                    })
                    .count();
            }
            assert!(
                dropped_by_existence >= 10,
                "existence decided only {dropped_by_existence} rows the leaf metadata could not"
            );
        };
        upi.bulk_load(&tuples[..1000]).unwrap();
        heap.bulk_load(&tuples[..1000]).unwrap();
        ut.bulk_load(&tuples[..1000]).unwrap();
        check(&upi, &ut, &heap, 1000);
        let leaves = upi.rtree_stats().leaf_pages;
        for t in &tuples[1000..] {
            upi.insert(t).unwrap();
            heap.insert(t).unwrap();
            ut.insert(t).unwrap();
        }
        assert!(upi.rtree_stats().leaf_pages > leaves, "inserts must split");
        check(&upi, &ut, &heap, tuples.len());
    }

    /// Cold device page reads of `circle_query_fetches_only_pages_with_a_survivor`'s
    /// store and query list, recorded on the commit before
    /// prune-before-fetch, when every `can_reach` survivor's page was
    /// fetched (this code reads 171).
    const PARENT_PAGE_READS: u64 = 181;

    #[test]
    fn circle_query_fetches_only_pages_with_a_survivor() {
        let st = store();
        let tuples = uncertain_cloud(6000);
        let mut upi = ContinuousUpi::create(
            st.clone(),
            "c",
            0,
            ContinuousConfig {
                node_page: 4096,
                heap_page: 16384,
            },
        )
        .unwrap();
        upi.bulk_load(&tuples[..4000]).unwrap();
        for t in &tuples[4000..] {
            upi.insert(t).unwrap();
        }
        let gets = |f: &dyn Fn()| pool_gets(&st, f);
        let queries = [
            (2500.0, 2500.0, 300.0, 0.5),
            (1000.0, 4000.0, 150.0, 0.1),
            (3300.0, 700.0, 800.0, 0.9),
            (4800.0, 4800.0, 500.0, 0.3),
            (2000.0, 3000.0, 90.0, 0.7),
        ];
        let mut page_reads = 0;
        let mut pruned_border_pages = 0;
        for (qx, qy, r, qt) in queries {
            // Heap pages holding a tuple whose circle probability alone
            // reaches the threshold, and those a `can_reach`-only prune
            // would have fetched as well.
            let mut survivor_pages = std::collections::HashSet::new();
            let mut reachable_pages = std::collections::HashSet::new();
            for t in &tuples {
                let g = t.point(0);
                let page = upi.page_of(t.id).unwrap();
                if g.prob_in_circle(qx, qy, r) >= qt {
                    survivor_pages.insert(page);
                }
                if g.can_reach(qx, qy, r, qt) && g.prob_in_circle(qx, qy, r) > 0.0 {
                    reachable_pages.insert(page);
                }
            }
            pruned_border_pages += reachable_pages.difference(&survivor_pages).count();
            let node_gets = gets(&|| {
                upi.rtree.query_circle(Point::new(qx, qy), r).unwrap();
            });
            let all_gets = gets(&|| {
                upi.query_circle(qx, qy, r, qt).unwrap();
            });
            assert_eq!(
                all_gets - node_gets,
                survivor_pages.len() as u64,
                "q=({qx},{qy},{r},{qt}): one heap-page get per page with a survivor"
            );
            st.go_cold();
            let before = st.disk.stats();
            upi.query_circle(qx, qy, r, qt).unwrap();
            page_reads += st.disk.stats().since(&before).page_reads;
        }
        assert!(
            pruned_border_pages > 0,
            "the queries must have border pages to prune"
        );
        assert!(
            page_reads <= PARENT_PAGE_READS,
            "{page_reads} page reads, parent read {PARENT_PAGE_READS}"
        );
    }

    #[test]
    fn stale_segment_pointers_resolve_after_splits() {
        let st = store();
        let tuples = cloud(4000);
        let (loaded, later) = tuples.split_at(1500);
        let mut upi = ContinuousUpi::create(
            st.clone(),
            "c",
            0,
            ContinuousConfig {
                node_page: 4096,
                heap_page: 8192,
            },
        )
        .unwrap();
        upi.bulk_load(loaded).unwrap();
        let mut sec = ContinuousSecondary::create(st.clone(), "seg", 1, 8192).unwrap();
        sec.bulk_load(&upi, loaded).unwrap();
        let pointer: HashMap<u64, PageId> = loaded
            .iter()
            .map(|t| (t.id.0, upi.page_of(t.id).unwrap()))
            .collect();
        for t in later {
            upi.insert(t).unwrap();
        }
        let mut stale_rows = 0;
        for seg in [0u64, 12, 33, 55, 78, 99, 1044] {
            for qt in [0.1, 0.5] {
                let got = sec.ptq(&upi, seg, qt).unwrap();
                let mut want: Vec<PtqResult> = loaded
                    .iter()
                    .map(|t| PtqResult {
                        tuple: t.clone(),
                        confidence: t.confidence_eq(1, seg),
                    })
                    .filter(|r| r.confidence >= qt)
                    .collect();
                sort_results(&mut want);
                // Index keys store the confidence at key precision.
                assert_eq!(got.len(), want.len(), "segment {seg} qt {qt}");
                for (row, w) in got.iter().zip(&want) {
                    assert_eq!(row.tuple, w.tuple, "segment {seg} qt {qt}");
                    assert!((row.confidence - w.confidence).abs() < 1e-6);
                }
                stale_rows += got
                    .iter()
                    .filter(|r| upi.page_of(r.tuple.id) != Some(pointer[&r.tuple.id.0]))
                    .count();
            }
        }
        assert!(
            stale_rows > 20,
            "only {stale_rows} rows came through a stale pointer"
        );

        // One get per page a stale pointer resolves to, not one per tuple.
        let (seg, qt) = (55, 0.1);
        let matches: Vec<&Tuple> = loaded
            .iter()
            .filter(|t| t.confidence_eq(1, seg) >= qt)
            .collect();
        let pointer_pages: std::collections::HashSet<PageId> =
            matches.iter().map(|t| pointer[&t.id.0]).collect();
        let migrants: Vec<PageId> = matches
            .iter()
            .map(|t| upi.page_of(t.id).unwrap())
            .zip(matches.iter().map(|t| pointer[&t.id.0]))
            .filter(|(now, then)| now != then)
            .map(|(now, _)| now)
            .collect();
        let migrant_pages: std::collections::HashSet<PageId> = migrants.iter().copied().collect();
        assert!(
            migrants.len() > migrant_pages.len(),
            "segment {seg}: no page took two migrants"
        );
        let gets = |f: &dyn Fn()| pool_gets(&st, f);
        let index_gets = gets(&|| {
            let mut cur = sec.tree.seek(&keys::value_prefix(seg)).unwrap();
            while cur.valid() {
                let (v, prob, _) = keys::decode_entry_key(cur.key());
                if v != seg || prob < qt {
                    break;
                }
                cur.advance().unwrap();
            }
        });
        let all_gets = gets(&|| {
            sec.ptq(&upi, seg, qt).unwrap();
        });
        assert_eq!(
            all_gets - index_gets,
            (pointer_pages.len() + migrant_pages.len()) as u64
        );
    }
}
