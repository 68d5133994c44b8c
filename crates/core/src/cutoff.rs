//! The Cutoff Index (§3.1).
//!
//! "We can remove such [low-probability] entries from the UPI heap file and
//! store them in another index … organized in the same way as the UPI heap
//! file, ordered by the primary attribute and then probability. It does
//! not, however, store the entire tuple but only the uncertain attribute
//! value, a pointer to the heap file …, and a tuple identifier."
//!
//! Keys are `(value, prob DESC, tid)` like the heap; the stored value is the
//! `(value, prob)` half of the primary key of the tuple's **first**
//! (highest-probability) alternative — dereferencing a cutoff pointer is one
//! exact-key lookup in the UPI heap (Table 3's `UCB (5%) | Bob | → MIT`).

use upi_btree::BTree;
use upi_storage::error::Result;
use upi_storage::Store;

use crate::keys;

/// One pointer read from the cutoff index during Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutoffPointer {
    /// Tuple id of the referenced tuple.
    pub tid: u64,
    /// Folded probability of the *queried* value (the entry's own key
    /// probability — this is the confidence the query reports).
    pub prob: f64,
    /// Primary-attribute value of the tuple's first alternative
    /// (where the full tuple lives in the heap).
    pub first_value: u64,
    /// Folded probability of that first alternative.
    pub first_prob: f64,
}

/// The cutoff index: a B+Tree of pointers for below-threshold alternatives.
pub struct CutoffIndex {
    tree: BTree,
}

impl CutoffIndex {
    /// Create an empty cutoff index in file `name`.
    pub fn create(store: Store, name: &str, page_size: u32) -> Result<CutoffIndex> {
        Ok(CutoffIndex {
            tree: BTree::create(store, name, page_size)?,
        })
    }

    /// Insert a pointer entry for alternative `(value, prob)` of tuple
    /// `tid`, whose first alternative is `(first_value, first_prob)`.
    pub fn insert(
        &mut self,
        value: u64,
        prob: f64,
        tid: u64,
        first_value: u64,
        first_prob: f64,
    ) -> Result<()> {
        self.tree.insert(
            &keys::entry_key(value, prob, tid),
            &keys::pointer_bytes(first_value, first_prob),
        )?;
        Ok(())
    }

    /// Remove the pointer entry for alternative `(value, prob)` of `tid`.
    pub fn delete(&mut self, value: u64, prob: f64, tid: u64) -> Result<bool> {
        self.tree.delete(&keys::entry_key(value, prob, tid))
    }

    /// Bulk-load prepared `(key, pointer)` entries (must be sorted by key;
    /// borrowed, like [`BTree::bulk_load`]'s).
    pub fn bulk_load<I, K, V>(&mut self, entries: I) -> Result<u64>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        self.tree.bulk_load(entries)
    }

    /// All pointers for `value` with probability `≥ qt`, in descending
    /// probability order (the cutoff half of Algorithm 2).
    pub fn scan(&self, value: u64, qt: f64) -> Result<Vec<CutoffPointer>> {
        self.scan_value_run(value, qt)?.collect()
    }

    /// Streaming cursor over the pointers for `value` with probability
    /// `≥ qt`, in descending-probability order: one index seek, then
    /// sequential leaf-chain reads that stop at the first entry of
    /// another value or below the threshold. Entries are read one at a
    /// time as the consumer pulls, so a bounded consumer (top-k with a
    /// confidence watermark) never pages in the tail of a long cutoff list.
    pub fn scan_value_run(&self, value: u64, qt: f64) -> Result<CutoffValueRun<'_>> {
        Ok(CutoffValueRun {
            cur: self.tree.seek(&keys::value_prefix(value))?,
            value,
            qt,
        })
    }

    /// Streaming cursor over the pointers with value in `[lo, hi]`, in
    /// key order: one index seek, then sequential leaf-chain reads (the
    /// cutoff half of the streaming range operator).
    pub fn scan_range_run(&self, lo: u64, hi: u64) -> Result<CutoffRangeRun<'_>> {
        Ok(CutoffRangeRun {
            cur: self.tree.seek(&keys::value_prefix(lo))?,
            hi,
        })
    }

    /// Entry count.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Live bytes of the backing file.
    pub fn bytes(&self) -> u64 {
        self.tree.stats().bytes
    }

    /// Height of the backing tree.
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// The storage file backing this index.
    pub fn file(&self) -> upi_storage::FileId {
        self.tree.file()
    }
}

/// Streaming iterator over one value's cutoff pointers in descending
/// probability order (see [`CutoffIndex::scan_value_run`]).
pub struct CutoffValueRun<'a> {
    cur: upi_btree::Cursor<'a>,
    value: u64,
    qt: f64,
}

impl Iterator for CutoffValueRun<'_> {
    type Item = Result<CutoffPointer>;

    fn next(&mut self) -> Option<Self::Item> {
        if !self.cur.valid() {
            return None;
        }
        let (v, prob, tid) = keys::decode_entry_key(self.cur.key());
        if v != self.value || prob < self.qt {
            return None;
        }
        let (first_value, first_prob) = keys::decode_pointer(self.cur.value());
        if let Err(e) = self.cur.advance() {
            return Some(Err(e));
        }
        Some(Ok(CutoffPointer {
            tid,
            prob,
            first_value,
            first_prob,
        }))
    }
}

/// Streaming iterator over a value range of the cutoff index (see
/// [`CutoffIndex::scan_range_run`]).
pub struct CutoffRangeRun<'a> {
    cur: upi_btree::Cursor<'a>,
    hi: u64,
}

impl Iterator for CutoffRangeRun<'_> {
    type Item = Result<(u64, CutoffPointer)>;

    fn next(&mut self) -> Option<Self::Item> {
        if !self.cur.valid() {
            return None;
        }
        let (v, prob, tid) = keys::decode_entry_key(self.cur.key());
        if v > self.hi {
            return None;
        }
        let (first_value, first_prob) = keys::decode_pointer(self.cur.value());
        if let Err(e) = self.cur.advance() {
            return Some(Err(e));
        }
        Some(Ok((
            v,
            CutoffPointer {
                tid,
                prob,
                first_value,
                first_prob,
            },
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};

    fn cutoff() -> CutoffIndex {
        let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20);
        CutoffIndex::create(store, "cut", 4096).unwrap()
    }

    #[test]
    fn insert_scan_delete() {
        let mut c = cutoff();
        // Bob's UCB(5%) alternative points at MIT(95%), Table 3.
        c.insert(2, 0.05, 20, 1, 0.95).unwrap();
        c.insert(3, 0.32, 30, 0, 0.48).unwrap();
        let got = c.scan(2, 0.0).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].tid, 20);
        assert!((got[0].prob - 0.05).abs() < 1e-6);
        assert_eq!(got[0].first_value, 1);
        assert!((got[0].first_prob - 0.95).abs() < 1e-6);
        assert!(c.delete(2, 0.05, 20).unwrap());
        assert!(c.scan(2, 0.0).unwrap().is_empty());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn scan_respects_threshold_and_order() {
        let mut c = cutoff();
        for (i, p) in [(1u64, 0.09), (2, 0.05), (3, 0.02), (4, 0.08)] {
            c.insert(7, p, i, 99, 0.9).unwrap();
        }
        let got = c.scan(7, 0.05).unwrap();
        let probs: Vec<f64> = got
            .iter()
            .map(|p| (p.prob * 100.0).round() / 100.0)
            .collect();
        assert_eq!(probs, vec![0.09, 0.08, 0.05], "descending, >= qt");
        // Unknown value: empty.
        assert!(c.scan(8, 0.0).unwrap().is_empty());
    }
}
