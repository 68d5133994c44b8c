//! Multi-pointer secondary indexes over a UPI (§3.2).
//!
//! "Unlike traditional secondary indexes, in UPIs, we employ a different
//! secondary index data structure that stores multiple pointers in one
//! index entry, since there are multiple copies of a given tuple in the UPI
//! heap" (Table 5). Each entry, keyed `(secondary value, confidence DESC,
//! tid)`, stores the primary-key pointers of every **non-cutoff** copy of
//! the tuple (cutoff alternatives appear as no pointer at all — the
//! `<cutoff>` marker of Table 5), optionally capped at a configurable
//! maximum ("one tuning option … is to limit the number of pointers stored
//! in each secondary index entry").
//!
//! The choice *among* the pointers — Tailored Secondary Index Access,
//! Algorithm 3 — lives in [`crate::upi::DiscreteUpi::ptq_secondary`]
//! because it needs the UPI heap.

use std::collections::hash_map::Entry;

use upi_btree::BTree;
use upi_storage::error::Result;
use upi_storage::Store;
use upi_uncertain::{AttrStats, IdMap, Tuple, TupleView};

use crate::keys;

/// One scanned secondary-index entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SecEntry {
    /// Tuple id.
    pub tid: u64,
    /// Folded confidence of the secondary value (`existence × P(value)`).
    pub prob: f64,
    /// Primary-key pointers `(primary value, folded prob)` of the tuple's
    /// heap copies, in descending probability order.
    pub pointers: Vec<(u64, f64)>,
}

/// Maximum number of page-region buckets a [`PointerHistogram`] keeps.
/// When the observed primary-value range outgrows this, bucket width
/// doubles and adjacent buckets fold — coarse regions are the point: each
/// bucket stands for a contiguous slice of the (value-clustered) heap.
const REGION_BUCKETS: usize = 256;

/// Maximum distinct secondary values tracked with their own per-region
/// distribution; beyond this, new values fall back to the global
/// population (bounds the histogram's memory on adversarial key sets).
const MAX_TRACKED_VALUES: usize = 4096;

/// Pointer mass per region over one contiguous run of region ids: dense
/// counts indexed from the lowest occupied region. Both ends are occupied
/// whenever the run is non-empty, so the occupied span is its length.
#[derive(Debug, Clone, Default)]
struct Regions {
    /// Region id of `counts[0]`.
    lo: u64,
    counts: Vec<u64>,
}

impl Regions {
    /// Regions from the first to the last occupied one, inclusive.
    fn span(&self) -> usize {
        self.counts.len()
    }

    /// What [`span`](Self::span) would be, minus one, with region `b`
    /// occupied too (no overflow at the ends of the id space).
    fn extent_with(&self, b: u64) -> u64 {
        match self.counts.len() {
            0 => 0,
            n => (self.lo + n as u64 - 1).max(b) - self.lo.min(b),
        }
    }

    /// Add `w` to region `b`. The caller bounds `extent_with(b)` first:
    /// the run grows to cover `b`.
    fn add(&mut self, b: u64, w: u64) {
        if self.counts.is_empty() {
            self.lo = b;
        } else if b < self.lo {
            let grow = (self.lo - b) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.lo = b;
        }
        let i = (b - self.lo) as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += w;
    }

    /// Take up to `w` from region `b`; returns what was there to take.
    fn remove(&mut self, b: u64, w: u64) -> u64 {
        let Some(c) = b
            .checked_sub(self.lo)
            .and_then(|i| self.counts.get_mut(i as usize))
        else {
            return 0;
        };
        let taken = w.min(*c);
        *c -= taken;
        // Keep both ends occupied.
        while self.counts.last() == Some(&0) {
            self.counts.pop();
        }
        let lead = self.counts.iter().take_while(|&&c| c == 0).count();
        self.counts.drain(..lead);
        self.lo += lead as u64;
        taken
    }

    /// Halve every region id, folding neighbours.
    fn fold(&mut self) {
        let lo = self.lo >> 1;
        for i in 0..self.counts.len() {
            let c = std::mem::take(&mut self.counts[i]);
            self.counts[(((self.lo + i as u64) >> 1) - lo) as usize] += c;
        }
        if let Some(last) = self.counts.len().checked_sub(1) {
            self.counts
                .truncate((((self.lo + last as u64) >> 1) - lo) as usize + 1);
        }
        self.lo = lo;
    }

    /// `(region id, mass)` of the occupied regions, ascending.
    fn occupied(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (self.lo..)
            .zip(&self.counts)
            .filter_map(|(b, &c)| (c > 0).then_some((b, c)))
    }

    /// The run holding exactly `pairs` (`(region id, mass)`, any order).
    fn from_pairs(pairs: &[(u64, u64)]) -> Regions {
        let mut r = Regions::default();
        let occupied = || pairs.iter().filter(|&&(_, c)| c > 0);
        if let (Some(lo), Some(hi)) = (
            occupied().map(|&(b, _)| b).min(),
            occupied().map(|&(b, _)| b).max(),
        ) {
            r.lo = lo;
            r.counts = vec![0; (hi - lo) as usize + 1];
            for &(b, c) in occupied() {
                r.counts[(b - lo) as usize] += c;
            }
        }
        r
    }
}

/// A coarse histogram of where a secondary index's heap pointers land in
/// **primary-value space** — and, because the UPI heap is clustered by
/// primary value, approximately where they land *physically*.
///
/// Regions are contiguous primary-value ranges of width `2^shift`,
/// addressed by their absolute bucket number `value >> shift` and kept to
/// at most [`REGION_BUCKETS`] occupied-span buckets (width doubles and
/// buckets fold when the range grows). Counts are maintained at insert /
/// bulk-load / delete time, **per secondary value**: tailored secondary
/// access fetches one value's entries, and real datasets correlate the
/// secondary attribute with the clustering attribute (one country's
/// institutions), so one value's pointers typically occupy a small slice
/// of the heap that a population-wide histogram would smear away.
///
/// Because the span is bounded, each distribution is a dense array from
/// its lowest occupied region: [`add`](Self::add) is one array update and
/// [`span`](Self::span) a length — a bulk load records one pointer per
/// heap copy per secondary alternative, so this runs tens of thousands of
/// times per component build.
///
/// The planner's coverage term reads it through
/// [`covered_fraction`](Self::covered_fraction): the expected number of
/// distinct heap regions `n` dereferences of `value`'s entries touch,
/// over the whole population's span — the measured replacement for the
/// old `repl^1.5` concentration guess, which assumed pointer overlap
/// instead of observing it.
#[derive(Debug, Clone, Default)]
pub struct PointerHistogram {
    /// Region width is `1 << shift` primary-value units.
    shift: u32,
    /// Pointer mass per absolute region id (`primary value >> shift`),
    /// whole population.
    buckets: Regions,
    /// Pointer mass per region, keyed by **secondary value**.
    per_value: IdMap<u64, Regions>,
    /// Total pointers recorded (= Σ buckets, kept for O(1) reads).
    total: u64,
}

impl PointerHistogram {
    /// Quantize a pointer's weight into integer mass units. Callers pass
    /// `entry confidence × pointer probability`: a probe for some value
    /// fetches an entry in proportion to the entry's own confidence, and
    /// then targets a copy in proportion to the copy's probability — so a
    /// tuple that barely matches the value (or a rare spill copy)
    /// contributes almost nothing to the value's region footprint.
    fn mass(weight: f64) -> u64 {
        ((weight * 4096.0).round() as u64).max(1)
    }

    /// Record one pointer to primary value `pv` carried by an entry of
    /// secondary value `value`, weighted by
    /// `entry confidence × pointer probability` (see [`Self::mass`]).
    ///
    /// `span() <= REGION_BUCKETS` holds on return: regions are coarsened
    /// *until* the new pointer's region fits, however far outside the
    /// current range it lands — and before anything is allocated for it.
    pub fn add(&mut self, value: u64, pv: u64, weight: f64) {
        let w = Self::mass(weight);
        let limit = REGION_BUCKETS as u64;
        loop {
            let b = pv >> self.shift;
            let room = self.per_value.len() < MAX_TRACKED_VALUES;
            let own = match self.per_value.entry(value) {
                Entry::Occupied(e) => Some(e.into_mut()),
                Entry::Vacant(e) if room => Some(e.insert(Regions::default())),
                Entry::Vacant(_) => None,
            };
            // A value's own run lies inside the population's unless
            // removals of pointers that were never added emptied the
            // latter under it; bounding both keeps every array within
            // REGION_BUCKETS regardless.
            if self.buckets.extent_with(b) < limit
                && own.as_ref().is_none_or(|m| m.extent_with(b) < limit)
            {
                self.total += w;
                self.buckets.add(b, w);
                if let Some(m) = own {
                    m.add(b, w);
                }
                return;
            }
            self.coarsen();
        }
    }

    /// Remove one previously recorded pointer (saturating — widths may
    /// have coarsened since it was added).
    pub fn remove(&mut self, value: u64, pv: u64, weight: f64) {
        let w = Self::mass(weight);
        let b = pv >> self.shift;
        self.total -= self.buckets.remove(b, w);
        if let Some(m) = self.per_value.get_mut(&value) {
            m.remove(b, w);
            if m.span() == 0 {
                self.per_value.remove(&value);
            }
        }
    }

    /// Double the region width, folding adjacent buckets (absolute ids
    /// halve).
    fn coarsen(&mut self) {
        self.shift += 1;
        self.buckets.fold();
        for m in self.per_value.values_mut() {
            m.fold();
        }
    }

    /// Total pointer mass recorded (probability-weighted units).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Regions spanned from the first to the last occupied one
    /// (inclusive) — the heap slice the whole pointer population covers.
    /// At most `REGION_BUCKETS`.
    pub fn span(&self) -> usize {
        self.buckets.span()
    }

    /// `value`'s own region distribution, or the whole population's when
    /// `value` is untracked.
    fn dist(&self, value: u64) -> &Regions {
        self.per_value.get(&value).unwrap_or(&self.buckets)
    }

    /// Expected number of **distinct** regions hit by `n` dereferences of
    /// `value`'s entries: `Σ_b 1 − (1 − c_b/total_v)^n` over `value`'s
    /// own region distribution (the whole population's when `value` is
    /// untracked). Correlated values occupy few regions; skewed pointer
    /// populations (the overlap Algorithm 3 exploits) concentrate
    /// further.
    pub fn expected_regions(&self, value: u64, n: f64) -> f64 {
        if n < 1.0 {
            return 0.0;
        }
        let dist = self.dist(value);
        let total: u64 = dist.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        dist.occupied()
            .map(|(_, c)| 1.0 - (1.0 - c as f64 / total as f64).powf(n))
            .sum()
    }

    /// The **effective** number of regions `value`'s pointer mass
    /// occupies: the perplexity `exp(H)` of its region distribution.
    /// Tailored access is not random draws — entries *steer* their fetch
    /// into already-pinned regions — so for large fetch counts the span
    /// is bounded by where the bulk of the mass lives, and perplexity
    /// discounts the rare-tail regions the steering avoids (a tuple's
    /// low-probability spill alternatives).
    pub fn effective_regions(&self, value: u64) -> f64 {
        let dist = self.dist(value);
        let total: u64 = dist.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let entropy: f64 = dist
            .occupied()
            .map(|(_, c)| {
                let p = c as f64 / total as f64;
                -p * p.ln()
            })
            .sum();
        entropy.exp()
    }

    /// Fraction of the covered value range (hence, approximately, of the
    /// clustered heap) that `n` tailored dereferences of `value`'s
    /// entries are expected to touch —
    /// `min(expected_regions(value, n), effective_regions(value)) / span`,
    /// in `(0, 1]`: the n-draw expectation bounds small fetches, the
    /// effective support bounds large ones (see
    /// [`effective_regions`](Self::effective_regions)). Returns 1.0 (no
    /// concentration claim) when nothing is recorded.
    pub fn covered_fraction(&self, value: u64, n: f64) -> f64 {
        let span = self.span();
        if span == 0 || self.total == 0 || n < 1.0 {
            return 1.0;
        }
        let regions = self
            .expected_regions(value, n)
            .min(self.effective_regions(value));
        (regions / span as f64).clamp(f64::MIN_POSITIVE, 1.0)
    }

    /// Expected number of distinct region **visits** `n` tailored
    /// dereferences of `value`'s entries pay a positioning move for:
    /// `min(expected_regions(value, n), effective_regions(value))`,
    /// clamped to `[1, n]`. Inside one contiguous measured region the
    /// sorted fetches advance in short strokes; only crossing to the
    /// next region costs a real head move, so this — not the fetch
    /// count — is the seek multiplier of a tailored probe. Returns `n`
    /// (every fetch repositions; no concentration claim) when nothing
    /// is recorded.
    pub fn expected_visits(&self, value: u64, n: f64) -> f64 {
        if n < 1.0 {
            return 1.0;
        }
        if self.span() == 0 || self.total == 0 {
            return n;
        }
        self.expected_regions(value, n)
            .min(self.effective_regions(value))
            .clamp(1.0, n)
    }

    /// Serialize deterministically (regions and values in ascending
    /// order; only occupied regions are written) for the checkpoint's
    /// statistics payload. `total` is redundant (the bucket sum) and not
    /// stored.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn write_counts(out: &mut Vec<u8>, m: &Regions) {
            out.extend_from_slice(&(m.occupied().count() as u32).to_le_bytes());
            for (b, c) in m.occupied() {
                out.extend_from_slice(&b.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(&self.shift.to_le_bytes());
        write_counts(&mut out, &self.buckets);
        out.extend_from_slice(&(self.per_value.len() as u32).to_le_bytes());
        let mut values: Vec<u64> = self.per_value.keys().copied().collect();
        values.sort_unstable();
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
            write_counts(&mut out, &self.per_value[&v]);
        }
        out
    }

    /// Inverse of [`to_bytes`](Self::to_bytes); `None` on malformed or
    /// trailing bytes. A payload whose regions span more than
    /// `REGION_BUCKETS` (one written while
    /// [`add`](Self::add) still coarsened a single step per call) is
    /// coarsened until it fits, as `add` would have.
    pub fn from_bytes(data: &[u8]) -> Option<PointerHistogram> {
        fn u32_at(data: &[u8], pos: &mut usize) -> Option<u32> {
            let v = u32::from_le_bytes(data.get(*pos..*pos + 4)?.try_into().unwrap());
            *pos += 4;
            Some(v)
        }
        fn u64_at(data: &[u8], pos: &mut usize) -> Option<u64> {
            let v = u64::from_le_bytes(data.get(*pos..*pos + 8)?.try_into().unwrap());
            *pos += 8;
            Some(v)
        }
        /// `(region id, mass)` pairs as stored.
        fn read_counts(data: &[u8], pos: &mut usize) -> Option<Vec<(u64, u64)>> {
            let n = u32_at(data, pos)? as usize;
            // Each pair takes 16 bytes: bounds `n` before reserving.
            if n > (data.len() - *pos) / 16 {
                return None;
            }
            (0..n)
                .map(|_| Some((u64_at(data, pos)?, u64_at(data, pos)?)))
                .collect()
        }
        let mut pos = 0;
        let mut shift = u32_at(data, &mut pos)?;
        let mut buckets = read_counts(data, &mut pos)?;
        let n_values = u32_at(data, &mut pos)? as usize;
        let mut per_value = Vec::with_capacity(n_values.min(1 << 16));
        for _ in 0..n_values {
            let v = u64_at(data, &mut pos)?;
            per_value.push((v, read_counts(data, &mut pos)?));
        }
        if pos != data.len() {
            return None;
        }
        // Bound every distribution's span before allocating its array.
        let fits = |m: &[(u64, u64)], s: u32| {
            let ids = || m.iter().filter(|p| p.1 > 0).map(|p| p.0 >> s);
            ids().max().unwrap_or(0) - ids().min().unwrap_or(0) < REGION_BUCKETS as u64
        };
        let mut extra = 0;
        while !(fits(&buckets, extra) && per_value.iter().all(|(_, m)| fits(m, extra))) {
            extra += 1;
        }
        shift = shift.checked_add(extra)?;
        for m in std::iter::once(&mut buckets).chain(per_value.iter_mut().map(|(_, m)| m)) {
            for p in m.iter_mut() {
                p.0 >>= extra;
            }
        }
        let buckets = Regions::from_pairs(&buckets);
        let total = buckets.counts.iter().sum();
        Some(PointerHistogram {
            shift,
            buckets,
            per_value: per_value
                .iter()
                .map(|(v, m)| (*v, Regions::from_pairs(m)))
                .collect(),
            total,
        })
    }
}

/// The entries of one secondary index being bulk-built (see
/// [`SecondaryIndex::prepare_entries`]): fixed-width sort records over one
/// payload arena, so a build allocates nothing per entry.
#[derive(Debug, Default)]
pub struct SecBuild {
    /// `(entry key, where its payload starts in `payloads`)`.
    entries: Vec<([u8; keys::ENTRY_KEY_LEN], u32)>,
    /// Entry payloads back to back; each is `[n u16][n pointers]`.
    payloads: Vec<u8>,
}

/// A secondary index on one discrete uncertain attribute of a UPI table.
pub struct SecondaryIndex {
    attr: usize,
    tree: BTree,
    max_pointers: usize,
    stats: AttrStats,
    regions: PointerHistogram,
}

impl SecondaryIndex {
    /// Create an empty index on field `attr`, storing at most
    /// `max_pointers` pointers per entry.
    pub fn create(
        store: Store,
        name: &str,
        attr: usize,
        page_size: u32,
        max_pointers: usize,
    ) -> Result<SecondaryIndex> {
        assert!(max_pointers >= 1, "entries need at least one pointer");
        Ok(SecondaryIndex {
            attr,
            tree: BTree::create(store, name, page_size)?,
            max_pointers,
            stats: AttrStats::new(),
            regions: PointerHistogram::default(),
        })
    }

    /// The indexed field.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// The pointer cap.
    pub fn max_pointers(&self) -> usize {
        self.max_pointers
    }

    /// Append the entry payload for `heap_ptrs` — `[n u16][n pointers]`,
    /// capped at `max_pointers` — to `out`.
    fn write_payload(&self, heap_ptrs: &[(u64, f64)], out: &mut Vec<u8>) {
        let n = heap_ptrs.len().min(self.max_pointers);
        out.extend_from_slice(&(n as u16).to_le_bytes());
        for &(v, p) in &heap_ptrs[..n] {
            out.extend_from_slice(&keys::pointer_bytes(v, p));
        }
    }

    /// The entry payload — `[n u16][n pointers]` — at the front of `data`.
    fn payload_at(data: &[u8]) -> &[u8] {
        let n = u16::from_le_bytes(data[..2].try_into().unwrap()) as usize;
        &data[..2 + n * keys::POINTER_LEN]
    }

    /// The pointers of an entry payload, in stored (descending
    /// probability) order.
    fn pointers(payload: &[u8]) -> impl Iterator<Item = (u64, f64)> + '_ {
        Self::payload_at(payload)[2..]
            .chunks_exact(keys::POINTER_LEN)
            .map(keys::decode_pointer)
    }

    fn decode_payload(data: &[u8]) -> Vec<(u64, f64)> {
        Self::pointers(data).collect()
    }

    /// Append this record's index entries (one per secondary alternative)
    /// to `out`, for bulk loading. `heap_ptrs` are the primary-key pointers
    /// of the tuple's heap (non-cutoff) copies; the alternatives share the
    /// one payload written for them.
    pub fn prepare_entries(&self, t: &TupleView<'_>, heap_ptrs: &[(u64, f64)], out: &mut SecBuild) {
        let at = u32::try_from(out.payloads.len()).expect("payload arena stays under 4 GiB");
        self.write_payload(heap_ptrs, &mut out.payloads);
        for (v, p) in t.alternatives(self.attr) {
            out.entries
                .push((keys::entry_key_array(v, p * t.exist(), t.id().0), at));
        }
    }

    /// Bulk-load prepared entries, in any order: they are sorted here,
    /// the statistics are fed from the sorted run — the quantized
    /// `(value, confidence)` of each key, the `(value, probability)` of
    /// each pointer in its payload — and the tree is loaded straight from
    /// the sort records and the payload arena.
    pub fn bulk_load(&mut self, mut build: SecBuild) -> Result<u64> {
        build.entries.sort_unstable();
        let payload_of = |at: u32| Self::payload_at(&build.payloads[at as usize..]);
        for &(key, at) in &build.entries {
            let (v, p, _tid) = keys::decode_entry_key(&key);
            self.stats.add(v, p, false);
            for (pv, pp) in Self::pointers(payload_of(at)) {
                self.regions.add(v, pv, p * pp);
            }
        }
        self.tree
            .bulk_load(build.entries.iter().map(|(key, at)| (key, payload_of(*at))))
    }

    /// Index one tuple.
    pub fn insert_for(&mut self, t: &Tuple, heap_ptrs: &[(u64, f64)]) -> Result<()> {
        let mut payload = Vec::with_capacity(2 + heap_ptrs.len() * keys::POINTER_LEN);
        self.write_payload(heap_ptrs, &mut payload);
        let kept = &heap_ptrs[..heap_ptrs.len().min(self.max_pointers)];
        for &(v, p) in t.discrete(self.attr).alternatives() {
            self.tree
                .insert(&keys::entry_key(v, p * t.exist, t.id.0), &payload)?;
            self.stats.add(v, p * t.exist, false);
            for &(pv, pp) in kept {
                self.regions.add(v, pv, p * t.exist * pp);
            }
        }
        Ok(())
    }

    /// Remove a tuple's entries.
    pub fn delete_for(&mut self, t: &Tuple) -> Result<()> {
        // The stored pointer list (needed to un-count its regions) is the
        // payload of any of the tuple's entries; read it off the first
        // alternative before the keys disappear. The page is the same one
        // the delete below touches, so this costs no extra cold I/O.
        let pointers = match t.discrete(self.attr).alternatives().first() {
            Some(&(v, p)) => self
                .tree
                .get_with(&keys::entry_key(v, p * t.exist, t.id.0), |data| {
                    Self::pointers(data).collect()
                })?
                .unwrap_or_default(),
            None => Vec::new(),
        };
        for &(v, p) in t.discrete(self.attr).alternatives() {
            self.tree.delete(&keys::entry_key(v, p * t.exist, t.id.0))?;
            self.stats.remove(v, p * t.exist, false);
            for &(pv, pp) in &pointers {
                self.regions.remove(v, pv, p * t.exist * pp);
            }
        }
        Ok(())
    }

    /// All entries for `value` with confidence `≥ qt`, descending.
    pub fn scan(&self, value: u64, qt: f64) -> Result<Vec<SecEntry>> {
        self.scan_run(value, qt)?.collect()
    }

    /// Streaming cursor over the entries for `value` with confidence
    /// `≥ qt`, in descending-confidence order: one index seek, then
    /// sequential reads that stop at the first entry below the threshold
    /// — so a top-k probe reads only the entries it consumes.
    pub fn scan_run(&self, value: u64, qt: f64) -> Result<SecScanRun<'_>> {
        Ok(SecScanRun {
            cur: self.tree.seek(&keys::value_prefix(value))?,
            value,
            qt,
        })
    }

    /// Entry count.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Live bytes of the backing file.
    pub fn bytes(&self) -> u64 {
        self.tree.stats().bytes
    }

    /// The storage file backing this index.
    pub fn file(&self) -> upi_storage::FileId {
        self.tree.file()
    }

    /// Height of the backing tree (cost-model `H`).
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Leaf pages of the backing tree (entry-run length estimation).
    pub fn leaf_pages(&self) -> usize {
        self.tree.stats().leaf_pages
    }

    /// The leaf page where the entry run for `value` begins — the first
    /// page a [`scan_run`](Self::scan_run) seek will read. Only internal
    /// pages are touched (the later seek re-reads them warm), so the
    /// leaf's own read stays cold for the buffer pool's hinted
    /// read-ahead to arm on.
    pub fn run_start_page(&self, value: u64) -> Result<upi_storage::PageId> {
        self.tree.leaf_page_for(&keys::value_prefix(value))
    }

    /// Histogram statistics of the secondary attribute (folded
    /// probabilities, entry granularity) — selectivity estimation for the
    /// planner. First-alternative tracking is not meaningful at entry
    /// granularity, so only the per-value totals are populated.
    pub fn stats(&self) -> &AttrStats {
        &self.stats
    }

    /// Where this index's heap pointers land, as a coarse per-region
    /// histogram over primary-value space — the planner's coverage term
    /// for tailored secondary access (see [`PointerHistogram`]).
    pub fn pointer_regions(&self) -> &PointerHistogram {
        &self.regions
    }

    /// Serialize this index's statistics (selectivity histogram + pointer
    /// regions) for the checkpoint payload: each blob length-prefixed.
    pub fn stats_payload(&self) -> Vec<u8> {
        let stats = self.stats.to_bytes();
        let regions = self.regions.to_bytes();
        let mut out = Vec::with_capacity(8 + stats.len() + regions.len());
        out.extend_from_slice(&(stats.len() as u32).to_le_bytes());
        out.extend(stats);
        out.extend_from_slice(&(regions.len() as u32).to_le_bytes());
        out.extend(regions);
        out
    }

    /// Inverse of [`stats_payload`](Self::stats_payload): replace both
    /// statistics structures. `false` (state untouched) on malformation.
    pub fn restore_stats_payload(&mut self, data: &[u8]) -> bool {
        let Some((stats, regions)) = decode_stats_payload(data) else {
            return false;
        };
        self.stats = stats;
        self.regions = regions;
        true
    }

    /// Replace both statistics structures (validated-payload path; see
    /// `DiscreteUpi::restore_stats_payload`).
    pub(crate) fn set_stats(&mut self, stats: AttrStats, regions: PointerHistogram) {
        self.stats = stats;
        self.regions = regions;
    }
}

/// Decode one [`SecondaryIndex::stats_payload`] blob without touching any
/// index state.
pub(crate) fn decode_stats_payload(data: &[u8]) -> Option<(AttrStats, PointerHistogram)> {
    let (stats_bytes, rest) = take_prefixed(data)?;
    let (region_bytes, rest) = take_prefixed(rest)?;
    if !rest.is_empty() {
        return None;
    }
    Some((
        AttrStats::from_bytes(stats_bytes)?,
        PointerHistogram::from_bytes(region_bytes)?,
    ))
}

/// Split a `u32`-length-prefixed blob off the front of `data`.
pub(crate) fn take_prefixed(data: &[u8]) -> Option<(&[u8], &[u8])> {
    let len = u32::from_le_bytes(data.get(..4)?.try_into().unwrap()) as usize;
    let rest = &data[4..];
    if rest.len() < len {
        return None;
    }
    Some(rest.split_at(len))
}

/// Streaming iterator over one value's secondary entries (see
/// [`SecondaryIndex::scan_run`]).
pub struct SecScanRun<'a> {
    cur: upi_btree::Cursor<'a>,
    value: u64,
    qt: f64,
}

impl Iterator for SecScanRun<'_> {
    type Item = Result<SecEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        if !self.cur.valid() {
            return None;
        }
        let (v, prob, tid) = keys::decode_entry_key(self.cur.key());
        if v != self.value || prob < self.qt {
            return None;
        }
        let pointers = SecondaryIndex::decode_payload(self.cur.value());
        if let Err(e) = self.cur.advance() {
            return Some(Err(e));
        }
        Some(Ok(SecEntry {
            tid,
            prob,
            pointers,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, DiscretePmf, Field, TupleId};

    const US: u64 = 0;
    const JAPAN: u64 = 1;

    fn sec() -> SecondaryIndex {
        let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20);
        SecondaryIndex::create(store, "sec", 1, 4096, 8).unwrap()
    }

    fn carol() -> Tuple {
        // Table 4: Carol country = {US: 60%, Japan: 40%}, existence 80%.
        Tuple::new(
            TupleId(3),
            0.8,
            vec![
                Field::Certain(Datum::Str("Carol".into())),
                Field::Discrete(DiscretePmf::new(vec![(US, 0.6), (JAPAN, 0.4)])),
            ],
        )
    }

    #[test]
    fn table5_entries() {
        let mut s = sec();
        // Carol's UPI copies live at Brown(48%) and U.Tokyo(32%).
        s.insert_for(&carol(), &[(10, 0.48), (13, 0.32)]).unwrap();
        // Japan (32%) → pointers {Brown, U.Tokyo}.
        let japan = s.scan(JAPAN, 0.0).unwrap();
        assert_eq!(japan.len(), 1);
        assert_eq!(japan[0].tid, 3);
        assert!((japan[0].prob - 0.32).abs() < 1e-6);
        assert_eq!(japan[0].pointers.len(), 2);
        assert_eq!(japan[0].pointers[0].0, 10);
        assert_eq!(japan[0].pointers[1].0, 13);
        // US (48%) carries the same pointer list.
        let us = s.scan(US, 0.0).unwrap();
        assert!((us[0].prob - 0.48).abs() < 1e-6);
        assert_eq!(us[0].pointers.len(), 2);
    }

    #[test]
    fn pointer_cap_is_enforced() {
        let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20);
        let mut s = SecondaryIndex::create(store, "sec", 1, 4096, 2).unwrap();
        let ptrs: Vec<(u64, f64)> = (0..6).map(|i| (i, 0.5 - i as f64 * 0.05)).collect();
        s.insert_for(&carol(), &ptrs).unwrap();
        let got = s.scan(US, 0.0).unwrap();
        assert_eq!(got[0].pointers.len(), 2, "cap at 2 pointers");
        // The highest-probability pointers are the ones kept.
        assert_eq!(got[0].pointers[0].0, 0);
        assert_eq!(got[0].pointers[1].0, 1);
    }

    #[test]
    fn scan_thresholds_on_confidence() {
        let mut s = sec();
        s.insert_for(&carol(), &[(10, 0.48)]).unwrap();
        // Japan confidence is 0.32: filtered at 0.4.
        assert!(s.scan(JAPAN, 0.4).unwrap().is_empty());
        assert_eq!(s.scan(US, 0.4).unwrap().len(), 1);
    }

    #[test]
    fn delete_removes_all_alternatives() {
        let mut s = sec();
        let c = carol();
        s.insert_for(&c, &[(10, 0.48)]).unwrap();
        assert_eq!(s.len(), 2);
        s.delete_for(&c).unwrap();
        assert_eq!(s.len(), 0);
        assert!(s.scan(US, 0.0).unwrap().is_empty());
    }

    /// The sparse `HashMap` histogram the dense [`PointerHistogram`]
    /// replaced — `span()` walks every key twice — kept as the reference
    /// the dense one is compared against. Its `add` coarsens in a loop
    /// too, so the two agree when a pointer lands far outside the range.
    #[derive(Default)]
    struct ReferenceHistogram {
        shift: u32,
        buckets: HashMap<u64, u64>,
        per_value: HashMap<u64, HashMap<u64, u64>>,
        total: u64,
    }

    impl ReferenceHistogram {
        fn add(&mut self, value: u64, pv: u64, weight: f64) {
            let w = PointerHistogram::mass(weight);
            self.total += w;
            let b = pv >> self.shift;
            *self.buckets.entry(b).or_insert(0) += w;
            if self.per_value.contains_key(&value) || self.per_value.len() < MAX_TRACKED_VALUES {
                *self
                    .per_value
                    .entry(value)
                    .or_default()
                    .entry(b)
                    .or_insert(0) += w;
            }
            while self.span() > REGION_BUCKETS {
                self.coarsen();
            }
        }

        fn remove(&mut self, value: u64, pv: u64, weight: f64) {
            let w = PointerHistogram::mass(weight);
            let b = pv >> self.shift;
            if let Some(c) = self.buckets.get_mut(&b) {
                let taken = w.min(*c);
                *c -= taken;
                self.total -= taken;
                if *c == 0 {
                    self.buckets.remove(&b);
                }
            }
            if let Some(m) = self.per_value.get_mut(&value) {
                if let Some(c) = m.get_mut(&b) {
                    *c = c.saturating_sub(w);
                    if *c == 0 {
                        m.remove(&b);
                    }
                }
                if m.is_empty() {
                    self.per_value.remove(&value);
                }
            }
        }

        fn coarsen(&mut self) {
            self.shift += 1;
            let fold = |m: &HashMap<u64, u64>| {
                let mut out: HashMap<u64, u64> = HashMap::new();
                for (&b, &c) in m {
                    *out.entry(b >> 1).or_insert(0) += c;
                }
                out
            };
            self.buckets = fold(&self.buckets);
            self.per_value = self.per_value.iter().map(|(&v, m)| (v, fold(m))).collect();
        }

        fn span(&self) -> usize {
            match (self.buckets.keys().min(), self.buckets.keys().max()) {
                (Some(&lo), Some(&hi)) => (hi - lo + 1) as usize,
                _ => 0,
            }
        }

        fn covered_fraction(&self, value: u64, n: f64) -> f64 {
            let span = self.span();
            if span == 0 || self.total == 0 || n < 1.0 {
                return 1.0;
            }
            let dist = self.per_value.get(&value).unwrap_or(&self.buckets);
            let total = dist.values().sum::<u64>() as f64;
            let expected: f64 = dist
                .values()
                .map(|&c| 1.0 - (1.0 - c as f64 / total).powf(n))
                .sum();
            let entropy: f64 = dist
                .values()
                .map(|&c| -(c as f64 / total) * (c as f64 / total).ln())
                .sum();
            (expected.min(entropy.exp()) / span as f64).clamp(f64::MIN_POSITIVE, 1.0)
        }

        fn to_bytes(&self) -> Vec<u8> {
            fn write_counts(out: &mut Vec<u8>, m: &HashMap<u64, u64>) {
                out.extend_from_slice(&(m.len() as u32).to_le_bytes());
                let mut keys: Vec<u64> = m.keys().copied().collect();
                keys.sort_unstable();
                for k in keys {
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&m[&k].to_le_bytes());
                }
            }
            let mut out = Vec::new();
            out.extend_from_slice(&self.shift.to_le_bytes());
            write_counts(&mut out, &self.buckets);
            out.extend_from_slice(&(self.per_value.len() as u32).to_le_bytes());
            let mut values: Vec<u64> = self.per_value.keys().copied().collect();
            values.sort_unstable();
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
                write_counts(&mut out, &self.per_value[&v]);
            }
            out
        }
    }

    fn assert_agree(dense: &PointerHistogram, sparse: &ReferenceHistogram, values: u64) {
        assert_eq!(dense.to_bytes(), sparse.to_bytes());
        assert_eq!(dense.span(), sparse.span());
        assert_eq!(dense.total(), sparse.total);
        assert!(dense.span() <= REGION_BUCKETS);
        for v in 0..values {
            for n in [1.0, 7.0, 500.0] {
                // The sparse sums run in hash order: equal up to rounding.
                let (a, b) = (dense.covered_fraction(v, n), sparse.covered_fraction(v, n));
                assert!((a - b).abs() <= 1e-12 * b, "value {v} n {n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn a_far_pointer_coarsens_until_the_span_fits() {
        // One coarsening step per `add` used to leave the span at 50 001
        // here, with `covered_fraction` dividing by it.
        let mut h = PointerHistogram::default();
        let mut r = ReferenceHistogram::default();
        for (v, pv) in [(1, 0), (1, 100_000), (2, u64::MAX), (2, 3)] {
            h.add(v, pv, 0.5);
            r.add(v, pv, 0.5);
            assert!(h.span() <= REGION_BUCKETS, "span {} after {pv}", h.span());
            assert_agree(&h, &r, 3);
        }
        assert_eq!(h.span(), REGION_BUCKETS, "the two ends of the u64 range");
        // Removing an end shrinks the occupied span with it.
        h.remove(2, u64::MAX, 0.5);
        r.remove(2, u64::MAX, 0.5);
        assert_eq!(h.span(), 1);
        assert_agree(&h, &r, 3);
    }

    #[test]
    fn dense_histogram_matches_the_sparse_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0x9157 + seed);
            let mut h = PointerHistogram::default();
            let mut r = ReferenceHistogram::default();
            // A DBLP-shaped population (each secondary value owns a band
            // of a few-thousand-wide primary range, so the histogram
            // coarsens a few times early on) plus, on odd seeds, jumps.
            let values = rng.gen_range(1..40u64);
            let range = rng.gen_range(300..5000u64);
            let mut added: Vec<(u64, u64, f64)> = Vec::new();
            for step in 0..3000 {
                if !added.is_empty() && rng.gen_range(0..4) == 0 {
                    let (v, pv, w) = added.swap_remove(rng.gen_range(0..added.len()));
                    h.remove(v, pv, w);
                    r.remove(v, pv, w);
                } else {
                    let v = rng.gen_range(0..values);
                    let band = range / values;
                    let mut pv = v * band + rng.gen_range(0..band.max(1) * 2);
                    if seed % 2 == 1 && rng.gen_range(0..500) == 0 {
                        pv <<= rng.gen_range(1..40);
                    }
                    let w = rng.gen_range(0.0..1.0);
                    h.add(v, pv, w);
                    r.add(v, pv, w);
                    added.push((v, pv, w));
                }
                if step % 97 == 0 {
                    assert_agree(&h, &r, values);
                }
            }
            assert_agree(&h, &r, values);
            let back = PointerHistogram::from_bytes(&h.to_bytes()).expect("round trip");
            assert_agree(&back, &r, values);
            // Empty again after removing everything that was added.
            for (v, pv, w) in added {
                h.remove(v, pv, w);
                r.remove(v, pv, w);
            }
            assert_agree(&h, &r, values);
            assert_eq!((h.span(), h.total()), (0, 0));
        }
    }

    #[test]
    fn more_distinct_values_than_tracked_fall_back_to_the_population() {
        let mut h = PointerHistogram::default();
        let mut r = ReferenceHistogram::default();
        for v in 0..MAX_TRACKED_VALUES as u64 + 50 {
            h.add(v, v % 200, 0.3);
            r.add(v, v % 200, 0.3);
        }
        assert_eq!(h.per_value.len(), MAX_TRACKED_VALUES);
        assert_agree(&h, &r, 10);
        let untracked = MAX_TRACKED_VALUES as u64 + 7;
        assert_eq!(
            h.covered_fraction(untracked, 50.0),
            h.covered_fraction(u64::MAX, 50.0),
            "both read the population's distribution"
        );
    }

    #[test]
    fn over_wide_payloads_are_coarsened_on_load() {
        // What the single-step `add` could leave in a checkpoint: two
        // regions 50 000 apart at shift 0.
        let mut wide = Vec::new();
        wide.extend_from_slice(&0u32.to_le_bytes()); // shift
        wide.extend_from_slice(&2u32.to_le_bytes());
        for (b, c) in [(0u64, 5u64), (50_000, 7)] {
            wide.extend_from_slice(&b.to_le_bytes());
            wide.extend_from_slice(&c.to_le_bytes());
        }
        wide.extend_from_slice(&0u32.to_le_bytes()); // no per-value maps
        let h = PointerHistogram::from_bytes(&wide).expect("well-formed");
        assert!(h.span() <= REGION_BUCKETS, "span {}", h.span());
        assert_eq!(h.total(), 12);
        // A count the payload cannot hold is rejected before reserving.
        let mut lying = wide.clone();
        lying[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(PointerHistogram::from_bytes(&lying).is_none());
    }
}
