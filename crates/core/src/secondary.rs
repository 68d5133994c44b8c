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

use std::collections::HashMap;

use upi_btree::BTree;
use upi_storage::error::Result;
use upi_storage::Store;
use upi_uncertain::{AttrStats, Tuple};

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
    /// Pointer counts per absolute region id (`primary value >> shift`),
    /// whole population.
    buckets: HashMap<u64, u64>,
    /// Pointer counts per region, keyed by **secondary value**.
    per_value: HashMap<u64, HashMap<u64, u64>>,
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
    pub fn add(&mut self, value: u64, pv: u64, weight: f64) {
        let w = Self::mass(weight);
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
        if self.span() > REGION_BUCKETS {
            self.coarsen();
        }
    }

    /// Remove one previously recorded pointer (saturating — widths may
    /// have coarsened since it was added).
    pub fn remove(&mut self, value: u64, pv: u64, weight: f64) {
        let w = Self::mass(weight);
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

    /// Double the region width, folding adjacent buckets (absolute ids
    /// halve).
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

    /// Total pointer mass recorded (probability-weighted units).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Regions spanned from the first to the last occupied one
    /// (inclusive) — the heap slice the whole pointer population covers.
    pub fn span(&self) -> usize {
        let lo = self.buckets.keys().min();
        let hi = self.buckets.keys().max();
        match (lo, hi) {
            (Some(&lo), Some(&hi)) => (hi - lo + 1) as usize,
            _ => 0,
        }
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
        let dist = self.per_value.get(&value).unwrap_or(&self.buckets);
        let total: u64 = dist.values().sum();
        if total == 0 {
            return 0.0;
        }
        dist.values()
            .map(|&c| 1.0 - (1.0 - c as f64 / total as f64).powf(n))
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
        let dist = self.per_value.get(&value).unwrap_or(&self.buckets);
        let total: u64 = dist.values().sum();
        if total == 0 {
            return 0.0;
        }
        let entropy: f64 = dist
            .values()
            .map(|&c| {
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

    /// Serialize deterministically (maps written in sorted key order) for
    /// the checkpoint's statistics payload. `total` is redundant (the
    /// bucket sum) and not stored.
    pub fn to_bytes(&self) -> Vec<u8> {
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

    /// Inverse of [`to_bytes`](Self::to_bytes); `None` on malformed or
    /// trailing bytes.
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
        fn read_counts(data: &[u8], pos: &mut usize) -> Option<HashMap<u64, u64>> {
            let n = u32_at(data, pos)? as usize;
            let mut m = HashMap::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let k = u64_at(data, pos)?;
                let c = u64_at(data, pos)?;
                m.insert(k, c);
            }
            Some(m)
        }
        let mut pos = 0;
        let shift = u32_at(data, &mut pos)?;
        let buckets = read_counts(data, &mut pos)?;
        let n_values = u32_at(data, &mut pos)? as usize;
        let mut per_value = HashMap::with_capacity(n_values.min(1 << 16));
        for _ in 0..n_values {
            let v = u64_at(data, &mut pos)?;
            per_value.insert(v, read_counts(data, &mut pos)?);
        }
        if pos != data.len() {
            return None;
        }
        let total = buckets.values().sum();
        Some(PointerHistogram {
            shift,
            buckets,
            per_value,
            total,
        })
    }
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

    fn payload(&self, heap_ptrs: &[(u64, f64)]) -> Vec<u8> {
        let n = heap_ptrs.len().min(self.max_pointers);
        let mut out = Vec::with_capacity(2 + n * keys::POINTER_LEN);
        out.extend_from_slice(&(n as u16).to_le_bytes());
        for &(v, p) in &heap_ptrs[..n] {
            out.extend_from_slice(&keys::pointer_bytes(v, p));
        }
        out
    }

    fn decode_payload(data: &[u8]) -> Vec<(u64, f64)> {
        let n = u16::from_le_bytes(data[..2].try_into().unwrap()) as usize;
        (0..n)
            .map(|i| {
                let at = 2 + i * keys::POINTER_LEN;
                keys::decode_pointer(&data[at..at + keys::POINTER_LEN])
            })
            .collect()
    }

    /// Append this tuple's index entries (one per secondary alternative) to
    /// `out`, for bulk loading. `heap_ptrs` are the primary-key pointers of
    /// the tuple's heap (non-cutoff) copies.
    pub fn prepare_entries(
        &self,
        t: &Tuple,
        heap_ptrs: &[(u64, f64)],
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
    ) {
        let payload = self.payload(heap_ptrs);
        for &(v, p) in t.discrete(self.attr).alternatives() {
            out.push((keys::entry_key(v, p * t.exist, t.id.0), payload.clone()));
        }
    }

    /// Bulk-load prepared entries (must be sorted by key).
    pub fn bulk_load(&mut self, entries: Vec<(Vec<u8>, Vec<u8>)>) -> Result<u64> {
        for (key, payload) in &entries {
            let (v, p, _tid) = keys::decode_entry_key(key);
            self.stats.add(v, p, false);
            for (pv, pp) in Self::decode_payload(payload) {
                self.regions.add(v, pv, p * pp);
            }
        }
        self.tree.bulk_load(entries)
    }

    /// Index one tuple.
    pub fn insert_for(&mut self, t: &Tuple, heap_ptrs: &[(u64, f64)]) -> Result<()> {
        let payload = self.payload(heap_ptrs);
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
                .get_with(
                    &keys::entry_key(v, p * t.exist, t.id.0),
                    Self::decode_payload,
                )?
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
}
