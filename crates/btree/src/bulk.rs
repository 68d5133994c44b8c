//! Sorted bulk loading.
//!
//! Fractures (§4.2) and merges (§4.3) of the paper write whole indexes
//! sequentially; `bulk_load` is that operation. Leaves are allocated in key
//! order, so a freshly loaded tree occupies one physically contiguous run
//! and range scans over it are pure sequential I/O.

use upi_storage::error::{Result, StorageError};
use upi_storage::PageId;

use crate::node::{NodeKind, PageWriter, CHILD_LEN, ENTRY_OVERHEAD};
use crate::tree::BTree;

/// Target fill fraction for bulk-loaded nodes (BerkeleyDB-like).
const BULK_FILL: f64 = 0.90;

impl BTree {
    /// Replace the contents of an **empty** tree with `items`, which must be
    /// sorted by key and free of duplicates. Pages are written through the
    /// buffer pool in physical order, i.e. at sequential-write cost.
    ///
    /// Entries are borrowed (`&[u8]`, arrays, `Vec<u8>` — anything
    /// `AsRef<[u8]>`) and copied exactly once, into the page image being
    /// filled; nothing is allocated per entry.
    ///
    /// **The page images are a function of the sorted entry sequence
    /// alone** (and the page size): a leaf is sealed when the next entry
    /// would take it past 90 % of the page, its successor is allocated at
    /// that moment, and the internal levels are built the same way over
    /// the leaves' first keys. How the caller produced or stored the
    /// entries cannot show in the file — fracture flushes, folds and
    /// recovery rebuilds of the same tuples are byte-identical.
    ///
    /// Returns the number of entries loaded.
    pub fn bulk_load<I, K, V>(&mut self, items: I) -> Result<u64>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
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
        // hinted read-ahead) right at the seek target. The stale
        // create-time page is freed once all allocations are done.
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new(); // (first key, page)
        let mut cur = PageWriter::new(NodeKind::Leaf, self.page_size);
        let mut cur_pid = self.store.disk.alloc_page(self.file)?;
        let mut count = 0u64;

        let create_pid = self.root_page();

        for (k, v) in items {
            let (k, v) = (k.as_ref(), v.as_ref());
            // The previous entry is still in `cur`: a leaf is only sealed
            // below, after its successor's first key has been checked.
            if let Some(prev) = cur.last_key() {
                assert!(prev < k, "bulk_load input must be strictly sorted");
            }
            if k.len() + v.len() > max_record {
                return Err(StorageError::RecordTooLarge {
                    len: k.len() + v.len(),
                    max: max_record,
                });
            }
            let add = ENTRY_OVERHEAD + k.len() + v.len();
            if cur.used_bytes() + add > cap && !cur.is_empty() {
                // Seal this leaf and start the next; link them.
                let next_pid = self.store.disk.alloc_page(self.file)?;
                leaves.push((cur.first_key().to_vec(), cur_pid));
                let sealed =
                    std::mem::replace(&mut cur, PageWriter::new(NodeKind::Leaf, self.page_size));
                self.store.pool.put(cur_pid, sealed.finish(next_pid));
                cur_pid = next_pid;
            }
            cur.push(k, v);
            count += 1;
        }
        // Seal the final leaf (empty, with an empty first key, when there
        // was no input).
        leaves.push((cur.first_key().to_vec(), cur_pid));
        self.store
            .pool
            .put(cur_pid, cur.finish(upi_storage::INVALID_PAGE));
        let leaf_pages = leaves.len();

        // ---- Internal levels ----
        let mut level = leaves;
        let mut internal_pages = 0usize;
        let mut height = 1usize;
        while level.len() > 1 {
            height += 1;
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut node = PageWriter::new(NodeKind::Internal, self.page_size);
            let mut leftmost = level[0].1;
            let mut node_first_key = std::mem::take(&mut level[0].0);
            let mut pid = self.store.disk.alloc_page(self.file)?;
            internal_pages += 1;
            for (key, child) in level.into_iter().skip(1) {
                let add = ENTRY_OVERHEAD + key.len() + CHILD_LEN;
                if node.used_bytes() + add > cap && !node.is_empty() {
                    next_level.push((node_first_key, pid));
                    let sealed = std::mem::replace(
                        &mut node,
                        PageWriter::new(NodeKind::Internal, self.page_size),
                    );
                    self.store.pool.put(pid, sealed.finish(leftmost));
                    leftmost = child;
                    node_first_key = key;
                    pid = self.store.disk.alloc_page(self.file)?;
                    internal_pages += 1;
                } else {
                    node.push(&key, &child.0.to_le_bytes());
                }
            }
            next_level.push((node_first_key, pid));
            self.store.pool.put(pid, node.finish(leftmost));
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

    /// The `Node`-based builder `bulk_load` replaced: one owned entry pair
    /// per item, encoded a second time at `write_node`. Kept as the
    /// reference the page writer's images, allocation order and counts
    /// are compared against.
    #[cfg(test)]
    fn bulk_load_reference(&mut self, items: Vec<(Vec<u8>, Vec<u8>)>) -> Result<u64> {
        use crate::node::{child_val, Node};

        assert!(self.is_empty(), "bulk_load requires an empty tree");
        let cap = (self.page_size as f64 * BULK_FILL) as usize;
        let max_record = self.max_record();

        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new();
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
        if !cur.entries.is_empty() {
            leaves.push((cur.entries[0].0.to_vec(), cur_pid));
        } else {
            leaves.push((Vec::new(), cur_pid));
        }
        self.write_node(cur_pid, &cur);
        let leaf_pages = leaves.len();

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
        self.store.pool.discard(create_pid);
        self.store.free_page(create_pid)?;
        self.store.pool.flush_all();
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use crate::BTree;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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
        t.bulk_load(Vec::<(Vec<u8>, Vec<u8>)>::new()).unwrap();
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

    /// Load `items` through the page writer (borrowed entries) and through
    /// the `Node`-based reference, each into its own fresh store, and
    /// require the same file: page images, allocation order, tree shape
    /// and counts, and the same device and pool ledgers (i.e. the same
    /// `alloc_page` / `put` / `discard` / `free_page` / `flush_all`
    /// sequence).
    fn assert_same_file(items: &[(Vec<u8>, Vec<u8>)], page_size: u32) {
        let (sa, sb) = (store(), store());
        let mut a = BTree::create(sa.clone(), "t", page_size).unwrap();
        let mut b = BTree::create(sb.clone(), "t", page_size).unwrap();
        let na = a
            .bulk_load(items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
            .unwrap();
        let nb = b.bulk_load_reference(items.to_vec()).unwrap();
        assert_eq!(na, nb);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.root_page(), b.root_page());
        assert_eq!(sa.disk.stats(), sb.disk.stats());
        assert_eq!(sa.pool.counters(), sb.pool.counters());
        let pages = sa.disk.file_pages(a.file()).unwrap();
        assert_eq!(pages, sb.disk.file_pages(b.file()).unwrap());
        assert_eq!(
            pages.len(),
            a.stats().pages + 1,
            "load pages + the freed root"
        );
        for pid in pages.into_iter().skip(1) {
            assert_eq!(
                sa.disk.read_page(pid).unwrap(),
                sb.disk.read_page(pid).unwrap(),
                "{pid:?} of a {page_size}-byte-page tree, {} entries",
                items.len()
            );
        }
        let got: Vec<_> = a.iter().unwrap().map(Result::unwrap).collect();
        assert_eq!(got, items);
    }

    /// `n` distinct sorted keys of `klen` bytes.
    fn sorted_keys(rng: &mut StdRng, n: usize, klen: usize) -> Vec<Vec<u8>> {
        let mut keys = std::collections::BTreeSet::new();
        while keys.len() < n {
            keys.insert((0..klen).map(|_| rng.gen()).collect::<Vec<u8>>());
        }
        keys.into_iter().collect()
    }

    #[test]
    fn page_writer_builds_the_reference_file() {
        let mut rng = StdRng::seed_from_u64(0xB01D);
        for page_size in [512u32, 8192, 65536] {
            let max_record = BTree::create(store(), "t", page_size).unwrap().max_record();
            // Empty, and a single entry.
            assert_same_file(&[], page_size);
            assert_same_file(&[(b"k".to_vec(), b"v".to_vec())], page_size);
            // Leaves filled to the 90 % cap to the byte: 16 + n·37 = cap
            // has a solution for 512-byte pages (n = 12), and near-misses
            // on the others; several leaves' worth either way.
            let per_leaf = (page_size as usize * 9 / 10 - 16) / 37;
            let items: Vec<_> = sorted_keys(&mut rng, per_leaf * 5, 8)
                .into_iter()
                .map(|k| (k, vec![0xAB; 25]))
                .collect();
            assert_same_file(&items, page_size);
            // Every record at `max_record` (two per page), split between
            // key and value in every proportion that keeps keys distinct.
            let items: Vec<_> = sorted_keys(&mut rng, 9, 16)
                .into_iter()
                .enumerate()
                .map(|(i, mut k)| {
                    k.resize(16 + i * (max_record - 16) / 9, i as u8);
                    let v = vec![i as u8; max_record - k.len()];
                    (k, v)
                })
                .collect();
            assert_same_file(&items, page_size);
            // Mixed sizes, from empty values to `max_record`.
            let items: Vec<_> = sorted_keys(&mut rng, 3000, 12)
                .into_iter()
                .map(|k| {
                    let vlen = match rng.gen_range(0..10) {
                        0 => max_record - k.len(),
                        1 => 0,
                        _ => rng.gen_range(0..(max_record - k.len()).min(700)),
                    };
                    let fill = rng.gen();
                    (k, vec![fill; vlen])
                })
                .collect();
            assert_same_file(&items, page_size);
        }
        // 200 k small entries: three levels on 512-byte pages.
        let items: Vec<_> = (0..200_000u32)
            .map(|i| {
                (
                    i.to_be_bytes().to_vec(),
                    (i % 251).to_le_bytes()[..2].to_vec(),
                )
            })
            .collect();
        assert_same_file(&items, 512);
        assert_same_file(&items, 8192);
    }

    #[test]
    fn borrowed_arrays_and_empty_values_load() {
        // What a delete set passes: fixed-width keys, no values.
        let mut t = BTree::create(store(), "t", 512).unwrap();
        let ids: Vec<u64> = (0..500).map(|i| i * 3).collect();
        let none: &[u8] = &[];
        t.bulk_load(ids.iter().map(|id| (id.to_be_bytes(), none)))
            .unwrap();
        assert_eq!(t.len(), 500);
        assert_eq!(t.get(&9u64.to_be_bytes()).unwrap(), Some(Vec::new()));
        assert_eq!(t.get(&10u64.to_be_bytes()).unwrap(), None);
    }
}
