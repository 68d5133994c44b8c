//! Sorted bulk loading.
//!
//! Fractures (§4.2) and merges (§4.3) of the paper write whole indexes
//! sequentially; `bulk_load` is that operation. Leaves are allocated in key
//! order, so a freshly loaded tree occupies one physically contiguous run
//! and range scans over it are pure sequential I/O.

use upi_storage::error::{Result, StorageError};
use upi_storage::PageId;

use crate::node::{child_val, Node, ENTRY_OVERHEAD};
use crate::tree::BTree;

/// Target fill fraction for bulk-loaded nodes (BerkeleyDB-like).
const BULK_FILL: f64 = 0.90;

impl BTree {
    /// Replace the contents of an **empty** tree with `items`, which must be
    /// sorted by key and free of duplicates. Pages are written through the
    /// buffer pool in physical order, i.e. at sequential-write cost.
    ///
    /// Returns the number of entries loaded.
    pub fn bulk_load<I>(&mut self, items: I) -> Result<u64>
    where
        I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    {
        assert!(self.is_empty(), "bulk_load requires an empty tree");
        let cap = (self.page_size as f64 * BULK_FILL) as usize;
        let max_record = self.max_record();

        // ---- Leaf level ----
        //
        // Every leaf — the first included — gets a freshly allocated page,
        // so the whole chain is one physically contiguous run: the
        // create-time root page predates the load (other files typically
        // allocated pages since), and reusing it as the first leaf would
        // open the run with a gap that breaks sequential read-ahead (and
        // planner prefetch hints) right at the seek target. The stale
        // create-time page is freed once all allocations are done.
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new(); // (first key, page)
        let mut cur = Node::new_leaf();
        let mut cur_pid = self.store.disk.alloc_page(self.file)?;
        let mut count = 0u64;
        let mut prev_key: Option<Vec<u8>> = None;

        let create_pid = self.root_page();

        for (k, v) in items {
            if let Some(p) = &prev_key {
                assert!(p < &k, "bulk_load input must be strictly sorted");
            }
            prev_key = Some(k.clone());
            if k.len() + v.len() > max_record {
                return Err(StorageError::RecordTooLarge {
                    len: k.len() + v.len(),
                    max: max_record,
                });
            }
            let add = ENTRY_OVERHEAD + k.len() + v.len();
            if cur.used_bytes() + add > cap && !cur.entries.is_empty() {
                // Seal this leaf and start the next; link them.
                let next_pid = self.store.disk.alloc_page(self.file)?;
                cur.link = next_pid;
                leaves.push((cur.entries[0].0.to_vec(), cur_pid));
                self.write_node(cur_pid, &cur);
                cur = Node::new_leaf();
                cur_pid = next_pid;
            }
            cur.entries
                .push((k.into_boxed_slice(), v.into_boxed_slice()));
            count += 1;
        }
        // Seal the final leaf.
        if !cur.entries.is_empty() {
            leaves.push((cur.entries[0].0.to_vec(), cur_pid));
        } else {
            leaves.push((Vec::new(), cur_pid));
        }
        self.write_node(cur_pid, &cur);
        let leaf_pages = leaves.len();

        // ---- Internal levels ----
        let mut level = leaves;
        let mut internal_pages = 0usize;
        let mut height = 1usize;
        while level.len() > 1 {
            height += 1;
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut node = Node::new_internal(level[0].1);
            let mut node_first_key = level[0].0.clone();
            let mut pid = self.store.disk.alloc_page(self.file)?;
            internal_pages += 1;
            for (key, child) in level.into_iter().skip(1) {
                let add = ENTRY_OVERHEAD + key.len() + 8;
                if node.used_bytes() + add > cap && !node.entries.is_empty() {
                    next_level.push((node_first_key, pid));
                    self.write_node(pid, &node);
                    node = Node::new_internal(child);
                    node_first_key = key;
                    pid = self.store.disk.alloc_page(self.file)?;
                    internal_pages += 1;
                } else {
                    node.entries
                        .push((key.into_boxed_slice(), child_val(child)));
                }
            }
            next_level.push((node_first_key, pid));
            self.write_node(pid, &node);
            level = next_level;
        }

        self.set_root(level[0].1, height);
        self.set_counts(count, leaf_pages, internal_pages);
        // Drop the pre-load root page only now that every load page is
        // allocated: freeing it earlier would let the allocator recycle
        // its slot into the middle of the fresh contiguous run.
        self.store.pool.discard(create_pid);
        self.store.free_page(create_pid)?;
        // Materialize the sequential write now so the load cost is charged
        // at load time (the paper measures flush/merge as a synchronous
        // sequential write).
        self.store.pool.flush_all();
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use crate::BTree;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk, Store};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20)
    }

    fn pairs(n: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("{:08}", i).into_bytes(),
                    format!("value-{i}").into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn bulk_load_roundtrip() {
        let mut t = BTree::create(store(), "t", 512).unwrap();
        let items = pairs(5000);
        let n = t.bulk_load(items.clone()).unwrap();
        assert_eq!(n, 5000);
        assert_eq!(t.len(), 5000);
        let got: Vec<_> = t.iter().unwrap().map(Result::unwrap).collect();
        assert_eq!(got, items);
        assert_eq!(t.get(b"00002500").unwrap().unwrap(), b"value-2500");
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let mut t = BTree::create(store(), "t", 512).unwrap();
        t.bulk_load(Vec::new()).unwrap();
        assert!(t.is_empty());
        assert!(!t.first().unwrap().valid());

        let mut t2 = BTree::create(store(), "t2", 512).unwrap();
        t2.bulk_load(vec![(b"k".to_vec(), b"v".to_vec())]).unwrap();
        assert_eq!(t2.len(), 1);
        assert_eq!(t2.get(b"k").unwrap().unwrap(), b"v");
        assert_eq!(t2.height(), 1);
    }

    #[test]
    fn bulk_loaded_scan_is_sequential() {
        let st = store();
        let disk = st.disk.clone();
        let mut t = BTree::create(st.clone(), "t", 4096).unwrap();
        t.bulk_load(pairs(20000)).unwrap();
        st.go_cold();
        let before = disk.stats();
        let mut c = t.first().unwrap();
        let mut n = 0;
        while c.valid() {
            n += 1;
            c.advance().unwrap();
        }
        assert_eq!(n, 20000);
        let d = disk.stats().since(&before);
        // Descent from root + the initial head move may seek; the leaf chain
        // itself must not.
        assert!(
            d.seeks <= t.height() as u64 + 1,
            "bulk-loaded scan should be sequential, saw {} seeks",
            d.seeks
        );
    }

    #[test]
    fn churned_tree_scan_seeks_more_than_fresh() {
        // Demonstrates the fragmentation mechanism behind Fig. 9.
        let st = store();
        let mut fresh = BTree::create(st.clone(), "fresh", 4096).unwrap();
        fresh.bulk_load(pairs(20000)).unwrap();

        let mut churned = BTree::create(st.clone(), "churned", 4096).unwrap();
        // Insert the same data in a scrambled order to force random splits.
        let mut items = pairs(20000);
        let mut rng = 0x9E3779B97F4A7C15u64;
        for i in (1..items.len()).rev() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (rng >> 33) as usize % (i + 1);
            items.swap(i, j);
        }
        for (k, v) in items {
            churned.insert(&k, &v).unwrap();
        }

        let scan_seeks = |t: &BTree| {
            st.go_cold();
            let before = st.disk.stats();
            let mut c = t.first().unwrap();
            while c.valid() {
                c.advance().unwrap();
            }
            st.disk.stats().since(&before).seeks
        };
        let fresh_seeks = scan_seeks(&fresh);
        let churned_seeks = scan_seeks(&churned);
        assert!(
            churned_seeks > fresh_seeks * 10,
            "churned tree must be heavily fragmented: fresh={fresh_seeks} churned={churned_seeks}"
        );
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn bulk_load_rejects_unsorted() {
        let mut t = BTree::create(store(), "t", 512).unwrap();
        let _ = t.bulk_load(vec![
            (b"b".to_vec(), b"1".to_vec()),
            (b"a".to_vec(), b"2".to_vec()),
        ]);
    }

    #[test]
    fn bulk_then_mutate() {
        let mut t = BTree::create(store(), "t", 512).unwrap();
        t.bulk_load(pairs(1000)).unwrap();
        t.insert(b"00000500x", b"inserted").unwrap();
        assert!(t.delete(b"00000100").unwrap());
        assert_eq!(t.len(), 1000);
        assert_eq!(t.get(b"00000500x").unwrap().unwrap(), b"inserted");
        assert!(t.get(b"00000100").unwrap().is_none());
        // Order still intact.
        let keys: Vec<_> = t.iter().unwrap().map(|e| e.unwrap().0).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
