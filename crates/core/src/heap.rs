//! Unclustered heap table (the paper's baseline table layout).
//!
//! "We compare an unclustered table (clustered by an auto-increment
//! sequence)" (§7.2): tuples are stored in a B+Tree keyed by their
//! monotonically increasing tuple id, so inserts append at the right edge
//! (sequential) while point fetches by id from an index scatter across the
//! file.

use upi_btree::{BTree, Cursor, TreeStats};

use crate::exec::CursorStats;
use crate::records::{corrupt_record, fetch_tuple};
use upi_storage::error::Result;
use upi_storage::Store;
use upi_uncertain::tuple::encode_tuple;
use upi_uncertain::{Tuple, TupleId, TupleView};

/// A heap file clustered by auto-increment tuple id.
pub struct UnclusteredHeap {
    tree: BTree,
}

impl UnclusteredHeap {
    /// Create an empty heap in file `name` with `page_size` pages.
    pub fn create(store: Store, name: &str, page_size: u32) -> Result<UnclusteredHeap> {
        Ok(UnclusteredHeap {
            tree: BTree::create(store, name, page_size)?,
        })
    }

    /// Bulk-load tuples (must be in ascending id order).
    pub fn bulk_load<'a, I>(&mut self, tuples: I) -> Result<u64>
    where
        I: IntoIterator<Item = &'a Tuple>,
    {
        self.tree.bulk_load(
            tuples
                .into_iter()
                .map(|t| (t.id.0.to_be_bytes().to_vec(), encode_tuple(t)))
                .collect::<Vec<_>>(),
        )
    }

    /// Insert one tuple.
    pub fn insert(&mut self, t: &Tuple) -> Result<()> {
        self.tree.insert(&t.id.0.to_be_bytes(), &encode_tuple(t))?;
        Ok(())
    }

    /// Delete by id; returns whether it existed.
    pub fn delete(&mut self, id: TupleId) -> Result<bool> {
        self.tree.delete(&id.0.to_be_bytes())
    }

    /// Point fetch by id; a damaged record is
    /// [`Corrupted`](upi_storage::StorageError::Corrupted), naming its leaf.
    pub fn get(&self, id: TupleId) -> Result<Option<Tuple>> {
        fetch_tuple(&self.tree, &id.0.to_be_bytes(), "unclustered heap")
    }

    /// Streaming sequential scan in id order (the full-table-scan access
    /// path of the `upi-query` executor). `run_pages` is the scan's
    /// estimated length in leaves, armed as the pool's read-ahead hint by
    /// the seek (`None`: no hint).
    pub fn scan_run(&self, run_pages: Option<usize>) -> Result<HeapScanRun<'_>> {
        Ok(HeapScanRun {
            cur: self.tree.seek_run(&[], run_pages)?,
            stats: CursorStats::default(),
        })
    }

    /// Number of tuples.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True if the heap holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Live bytes of the backing file.
    pub fn bytes(&self) -> u64 {
        self.tree.stats().bytes
    }

    /// Height of the backing B+Tree (cost-model `H`).
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Tree statistics of the backing file (cost-model `S_table`,
    /// `N_leaf`, `H`).
    pub fn stats(&self) -> TreeStats {
        self.tree.stats()
    }
}

/// Streaming full-scan iterator (see [`UnclusteredHeap::scan_run`]).
pub struct HeapScanRun<'a> {
    cur: Cursor<'a>,
    stats: CursorStats,
}

impl HeapScanRun<'_> {
    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }
}

impl Iterator for HeapScanRun<'_> {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Self::Item> {
        if !self.cur.valid() {
            return None;
        }
        let tuple = TupleView::parse(self.cur.value())
            .map(|t| t.to_tuple())
            .map_err(|why| corrupt_record("unclustered heap", self.cur.page(), why));
        self.stats.decodes += 1;
        // Step past the entry first, so a damaged one is reported once.
        if let Err(e) = self.cur.advance() {
            return Some(Err(e));
        }
        self.stats.rows += tuple.is_ok() as u64;
        Some(tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, Field};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20)
    }

    fn tup(id: u64) -> Tuple {
        Tuple::new(
            TupleId(id),
            1.0,
            vec![Field::Certain(Datum::Str(format!("tuple-{id}")))],
        )
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut h = UnclusteredHeap::create(store(), "h", 4096).unwrap();
        for i in 0..100 {
            h.insert(&tup(i)).unwrap();
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.get(TupleId(42)).unwrap().unwrap(), tup(42));
        assert!(h.delete(TupleId(42)).unwrap());
        assert!(!h.delete(TupleId(42)).unwrap());
        assert!(h.get(TupleId(42)).unwrap().is_none());
        assert_eq!(h.len(), 99);
    }

    #[test]
    fn bulk_load_and_scan_in_id_order() {
        let tuples: Vec<Tuple> = (0..500).map(tup).collect();
        let mut h = UnclusteredHeap::create(store(), "h", 4096).unwrap();
        h.bulk_load(&tuples).unwrap();
        let scanned: Vec<Tuple> = h.scan_run(None).unwrap().collect::<Result<_>>().unwrap();
        assert_eq!(scanned, tuples);
    }

    #[test]
    fn damaged_records_surface_as_corruption_naming_the_leaf() {
        let st = store();
        let tuples: Vec<Tuple> = (0..500).map(tup).collect();
        let mut h = UnclusteredHeap::create(st.clone(), "h", 4096).unwrap();
        h.bulk_load(&tuples).unwrap();
        let leaf = h.tree.leaf_page_for(&[]).unwrap();
        let good = st.pool.get(leaf).unwrap();
        // The first entry sits right after the 16-byte node header:
        // `klen u16 | vlen u16 | 8-byte key | tuple`. Its one field is a
        // string; claim more bytes for it than the record has.
        let tuple_at = 16 + 4 + 8;
        let mut bad = good.to_vec();
        assert_eq!(bad[tuple_at + 18], 2, "field 0 is a string");
        bad[tuple_at + 19..tuple_at + 23].copy_from_slice(&60_000u32.to_le_bytes());
        st.pool.put(leaf, bad.into());

        let is_corrupt = |r: Result<()>| match r {
            Err(upi_storage::StorageError::Corrupted(what)) => {
                assert!(
                    what.contains(&format!("{leaf:?}")),
                    "names the page: {what}"
                );
                assert!(what.contains("string needs 60000 bytes"), "{what}");
            }
            other => panic!("expected Corrupted, got {other:?}"),
        };
        is_corrupt(h.get(TupleId(0)).map(drop));
        is_corrupt(
            h.scan_run(None)
                .unwrap()
                .collect::<Result<Vec<_>>>()
                .map(drop),
        );
        // The scan steps past the damaged entry: it is reported once.
        let scan = h.scan_run(None).unwrap();
        assert_eq!(scan.filter(|t| t.is_err()).count(), 1);
        assert_eq!(h.get(TupleId(1)).unwrap(), Some(tup(1)));

        st.pool.put(leaf, good);
        let scanned: Result<Vec<Tuple>> = h.scan_run(None).unwrap().collect();
        assert_eq!(scanned.unwrap(), tuples);
    }

    #[test]
    fn appends_are_sequential() {
        // Auto-increment clustering: inserting ascending ids should be
        // nearly seek-free once flushed (Table 7: unclustered insert is
        // fast).
        let st = store();
        let mut h = UnclusteredHeap::create(st.clone(), "h", 4096).unwrap();
        st.go_cold();
        let before = st.disk.stats();
        for i in 0..2000 {
            h.insert(&tup(i)).unwrap();
        }
        st.pool.flush_all();
        let d = st.disk.stats().since(&before);
        // Write-back elevator flush: page writes ≈ live pages, few seeks.
        assert!(
            d.seeks < d.page_writes / 4 + 8,
            "append workload must be mostly sequential: {d}"
        );
    }
}
