//! The B+Tree proper: create, insert, delete, point lookup.

use upi_storage::error::{Result, StorageError};
use upi_storage::{FileId, PageId, Store};

use crate::cursor::Cursor;
use crate::node::{
    child_id, child_val, Node, NodeKind, NodeView, CHILD_LEN, ENTRY_OVERHEAD, HEADER_LEN,
};

/// Summary statistics of a tree (sizes feed the cost models of §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Height including the leaf level (1 = root is a leaf). The cost
    /// models' `H`.
    pub height: usize,
    /// Number of live pages.
    pub pages: usize,
    /// Number of leaf pages (`N_leaf` in Table 6).
    pub leaf_pages: usize,
    /// Live entries.
    pub entries: u64,
    /// Live bytes (`pages * page_size`, `S_table` in Table 6).
    pub bytes: u64,
}

/// A disk-backed B+Tree with byte-string keys and values.
///
/// Writes go through the store's write-back buffer pool; structural changes
/// (splits, merges) allocate and free pages on the simulated device, which
/// is what makes fragmentation physically observable.
pub struct BTree {
    pub(crate) store: Store,
    pub(crate) file: FileId,
    pub(crate) page_size: usize,
    root: PageId,
    height: usize,
    entries: u64,
    leaf_pages: usize,
    internal_pages: usize,
}

/// A completed split: the separator key and the new right sibling.
type SplitResult = Option<(Vec<u8>, PageId)>;

/// Nodes below this fill fraction try to merge with their right sibling.
const UNDERFLOW_FRACTION: f64 = 0.25;
/// Merges must leave the combined node at most this full (hysteresis).
const MERGE_TARGET_FRACTION: f64 = 0.85;

impl BTree {
    /// Create an empty tree in a fresh file of `name` with the given page
    /// size.
    pub fn create(store: Store, name: &str, page_size: u32) -> Result<BTree> {
        let file = store.disk.create_file(name, page_size);
        let root = store.disk.alloc_page(file)?;
        let node = Node::new_leaf();
        store.pool.put(root, node.encode(page_size as usize));
        Ok(BTree {
            store,
            file,
            page_size: page_size as usize,
            root,
            height: 1,
            entries: 0,
            leaf_pages: 1,
            internal_pages: 0,
        })
    }

    /// The storage file backing this tree.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Height (1 = root is a leaf); the cost models' `H`.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Size statistics.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            height: self.height,
            pages: self.leaf_pages + self.internal_pages,
            leaf_pages: self.leaf_pages,
            entries: self.entries,
            bytes: ((self.leaf_pages + self.internal_pages) * self.page_size) as u64,
        }
    }

    /// Largest record (key + value bytes) that can be stored.
    pub fn max_record(&self) -> usize {
        (self.page_size - HEADER_LEN) / 2 - ENTRY_OVERHEAD
    }

    /// Read page `pid` through the pool as a validated in-place view.
    pub(crate) fn view_node(&self, pid: PageId) -> Result<NodeView> {
        NodeView::new(pid, self.store.pool.get(pid)?)
    }

    /// [`view_node`](Self::view_node) for a page whose kind the tree's
    /// shape dictates; the other kind there means the page is not the
    /// one that was written (and following it could loop forever).
    pub(crate) fn view_kind(&self, pid: PageId, want: NodeKind) -> Result<NodeView> {
        self.view_run(pid, want, None)
    }

    /// [`view_kind`](Self::view_kind) reading `pid` as the first page of
    /// a run of about `est_run_pages` pages
    /// ([`BufferPool::get_run`](upi_storage::BufferPool::get_run)).
    fn view_run(
        &self,
        pid: PageId,
        want: NodeKind,
        est_run_pages: Option<usize>,
    ) -> Result<NodeView> {
        let view = NodeView::new(pid, self.store.pool.get_run(pid, est_run_pages)?)?;
        if view.kind() != want {
            return Err(StorageError::Corrupted(format!(
                "b+tree page {pid:?}: expected a {want:?} node, found {:?}",
                view.kind()
            )));
        }
        Ok(view)
    }

    /// [`view_kind`](Self::view_kind) for a page on `level`, counted up
    /// from 1 at the leaves (`height` = the root).
    fn view_level(&self, pid: PageId, level: usize) -> Result<NodeView> {
        let want = match level {
            1 => NodeKind::Leaf,
            _ => NodeKind::Internal,
        };
        self.view_kind(pid, want)
    }

    /// Descend from the root to the leaf covering `key`.
    fn descend(&self, key: &[u8]) -> Result<(PageId, NodeView)> {
        let pid = self.leaf_page_for(key)?;
        Ok((pid, self.view_kind(pid, NodeKind::Leaf)?))
    }

    pub(crate) fn write_node(&self, pid: PageId, node: &Node) {
        self.store.pool.put(pid, node.encode(self.page_size));
    }

    pub(crate) fn root_page(&self) -> PageId {
        self.root
    }

    pub(crate) fn set_root(&mut self, root: PageId, height: usize) {
        self.root = root;
        self.height = height;
    }

    pub(crate) fn set_counts(&mut self, entries: u64, leaf_pages: usize, internal_pages: usize) {
        self.entries = entries;
        self.leaf_pages = leaf_pages;
        self.internal_pages = internal_pages;
    }

    /// Point lookup (an owned copy of the value).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(key, <[u8]>::to_vec)
    }

    /// Point lookup that hands the value to `f` as a slice of the cached
    /// page, for callers that decode it and keep nothing.
    pub fn get_with<R>(&self, key: &[u8], f: impl FnOnce(&[u8]) -> R) -> Result<Option<R>> {
        let (_, leaf) = self.descend(key)?;
        let idx = leaf.lower_bound(key);
        Ok((idx < leaf.len() && leaf.key(idx) == key).then(|| f(leaf.value(idx))))
    }

    /// Insert or replace. Returns `true` if the key was new.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        let record = key.len() + value.len();
        if record > self.max_record() {
            return Err(StorageError::RecordTooLarge {
                len: record,
                max: self.max_record(),
            });
        }
        let (outcome, split) = self.insert_rec(self.root, self.height, key, value)?;
        if let Some((sep, right)) = split {
            // Grow a new root.
            let old_root = self.root;
            let new_root = self.store.disk.alloc_page(self.file)?;
            let mut node = Node::new_internal(old_root);
            node.entries
                .push((sep.into_boxed_slice(), child_val(right)));
            self.write_node(new_root, &node);
            self.root = new_root;
            self.height += 1;
            self.internal_pages += 1;
        }
        if outcome {
            self.entries += 1;
        }
        Ok(outcome)
    }

    /// Recursive insert into the subtree rooted at `pid` on `level`
    /// (1 = leaf); returns (inserted-new-key, optional split (separator,
    /// new right sibling page)).
    fn insert_rec(
        &mut self,
        pid: PageId,
        level: usize,
        key: &[u8],
        value: &[u8],
    ) -> Result<(bool, SplitResult)> {
        let view = self.view_level(pid, level)?;
        match view.kind() {
            NodeKind::Leaf => {
                let idx = view.lower_bound(key);
                let new_key = idx == view.len() || view.key(idx) != key;
                let mut node = view.to_node();
                if new_key {
                    node.entries.insert(idx, (key.into(), value.into()));
                } else {
                    node.entries[idx].1 = value.into();
                }
                let split = self.maybe_split(pid, &mut node)?;
                Ok((new_key, split))
            }
            NodeKind::Internal => {
                let (new_key, child_split) =
                    self.insert_rec(view.route(key), level - 1, key, value)?;
                // Only an ancestor that absorbs a split is rewritten; the
                // rest of the path is passed through as views.
                let split = match child_split {
                    Some((sep, right)) => {
                        let idx = view.lower_bound(&sep);
                        let mut node = view.to_node();
                        node.entries
                            .insert(idx, (sep.into_boxed_slice(), child_val(right)));
                        self.maybe_split(pid, &mut node)?
                    }
                    None => None,
                };
                Ok((new_key, split))
            }
        }
    }

    /// Split `node` (stored at `pid`) if it overflows the page; otherwise
    /// just write it back.
    fn maybe_split(&mut self, pid: PageId, node: &mut Node) -> Result<SplitResult> {
        if node.used_bytes() <= self.page_size {
            self.write_node(pid, node);
            return Ok(None);
        }
        // Find the split point by accumulated bytes so both halves fit:
        // the entry that crosses the half-way mark goes left, unless it
        // would overflow the left page (records near `max_record`). Then
        // it opens the right page instead, which it cannot overflow —
        // the node fit before this one record was added.
        let total: usize = node.used_bytes() - HEADER_LEN;
        let mut acc = 0usize;
        let mut mid = node.entries.len() / 2;
        for (i, (k, v)) in node.entries.iter().enumerate() {
            acc += ENTRY_OVERHEAD + k.len() + v.len();
            if acc >= total / 2 {
                mid = if acc > self.page_size - HEADER_LEN {
                    i.max(1)
                } else {
                    (i + 1).min(node.entries.len() - 1)
                };
                break;
            }
        }
        let right_pid = self.store.disk.alloc_page(self.file)?;
        match node.kind {
            NodeKind::Leaf => {
                let right_entries = node.entries.split_off(mid);
                let sep = right_entries[0].0.to_vec();
                let mut right = Node::new_leaf();
                right.entries = right_entries;
                right.link = node.link;
                node.link = right_pid;
                self.write_node(pid, node);
                self.write_node(right_pid, &right);
                self.leaf_pages += 1;
                Ok(Some((sep, right_pid)))
            }
            NodeKind::Internal => {
                // Promote the separator at `mid`; its child becomes the
                // right node's leftmost child.
                let mut right_entries = node.entries.split_off(mid);
                let (sep, promoted_child) = right_entries.remove(0);
                let mut right = Node::new_internal(child_id(&promoted_child));
                right.entries = right_entries;
                self.write_node(pid, node);
                self.write_node(right_pid, &right);
                self.internal_pages += 1;
                Ok(Some((sep.to_vec(), right_pid)))
            }
        }
    }

    /// Delete a key. Returns `true` if it existed.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let removed = self.delete_rec(self.root, self.height, key)?;
        if removed {
            self.entries -= 1;
            // Shrink the root while it is an internal node with no
            // separators left.
            loop {
                let root = self.view_node(self.root)?;
                if root.kind() == NodeKind::Internal && root.len() == 0 {
                    let old = self.root;
                    self.root = root.link();
                    self.height -= 1;
                    self.internal_pages -= 1;
                    self.store.pool.discard(old);
                    self.store.free_page(old)?;
                } else {
                    break;
                }
            }
        }
        Ok(removed)
    }

    fn delete_rec(&mut self, pid: PageId, level: usize, key: &[u8]) -> Result<bool> {
        let view = self.view_level(pid, level)?;
        match view.kind() {
            NodeKind::Leaf => {
                let idx = view.lower_bound(key);
                if idx < view.len() && view.key(idx) == key {
                    let mut node = view.to_node();
                    node.entries.remove(idx);
                    self.write_node(pid, &node);
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            NodeKind::Internal => {
                let child_slot = view.child_slot(key);
                let child = view.child(child_slot);
                let removed = self.delete_rec(child, level - 1, key)?;
                if removed {
                    self.maybe_merge_child(pid, &view, child_slot, child)?;
                }
                Ok(removed)
            }
        }
    }

    /// If `child` (the `child_slot`-th child of `parent`, 0 = leftmost)
    /// underflows, merge its *right* sibling into it and drop the sibling.
    ///
    /// Merging rightwards keeps the leaf chain repairable: the absorbed
    /// node's predecessor is the absorbing node itself, so `next` pointers
    /// are fixed locally (§ lib docs).
    ///
    /// The three pages are inspected as views; owned nodes are built only
    /// once the merge is certain to happen.
    fn maybe_merge_child(
        &mut self,
        parent_pid: PageId,
        parent: &NodeView,
        child_slot: usize,
        child_pid: PageId,
    ) -> Result<()> {
        let child = self.view_node(child_pid)?;
        let threshold = (self.page_size as f64 * UNDERFLOW_FRACTION) as usize;
        if child.used_bytes() >= threshold {
            return Ok(());
        }
        // The right sibling is the child at `child_slot + 1`, i.e. the
        // entry at index `child_slot` in the parent's separator list.
        if child_slot >= parent.len() {
            return Ok(()); // rightmost child: leave it underfull
        }
        let right_pid = parent.child(child_slot + 1);
        let right = self.view_kind(right_pid, child.kind())?;
        let limit = (self.page_size as f64 * MERGE_TARGET_FRACTION) as usize;
        let mut combined = child.used_bytes() + right.used_bytes() - HEADER_LEN;
        let sep = parent.key(child_slot);
        if child.kind() == NodeKind::Internal {
            // Pulling down the separator adds one entry.
            combined += ENTRY_OVERHEAD + sep.len() + CHILD_LEN;
        }
        if combined > limit {
            return Ok(());
        }
        let mut merged = child.to_node();
        match merged.kind {
            NodeKind::Leaf => merged.link = right.link(),
            NodeKind::Internal => merged.entries.push((sep.into(), child_val(right.link()))),
        }
        merged.entries.extend(right.entries());
        let mut parent = parent.to_node();
        parent.entries.remove(child_slot);
        self.write_node(child_pid, &merged);
        self.write_node(parent_pid, &parent);
        self.store.pool.discard(right_pid);
        self.store.free_page(right_pid)?;
        match merged.kind {
            NodeKind::Leaf => self.leaf_pages -= 1,
            NodeKind::Internal => self.internal_pages -= 1,
        }
        Ok(())
    }

    /// The leaf page a [`seek`](Self::seek) for `key` would land on,
    /// found by descending **internal** nodes only — the leaf itself is
    /// not read.
    pub fn leaf_page_for(&self, key: &[u8]) -> Result<PageId> {
        let mut pid = self.root;
        for _ in 1..self.height {
            pid = self.view_kind(pid, NodeKind::Internal)?.route(key);
        }
        Ok(pid)
    }

    /// Cursor positioned at the first entry with key `>= key`.
    pub fn seek(&self, key: &[u8]) -> Result<Cursor<'_>> {
        self.seek_run(key, None)
    }

    /// [`seek`](Self::seek) at the start of a run the caller expects to
    /// read for about `est_run_pages` leaves (the landing leaf included).
    /// With an estimate, the descent reads the leaf it landed on through
    /// [`BufferPool::get_run`](upi_storage::BufferPool::get_run), so the
    /// run's first cold miss starts a run-sized prefetch. `None` is a
    /// plain seek.
    pub fn seek_run(&self, key: &[u8], est_run_pages: Option<usize>) -> Result<Cursor<'_>> {
        let pid = self.leaf_page_for(key)?;
        let leaf = self.view_run(pid, NodeKind::Leaf, est_run_pages)?;
        let slot = leaf.lower_bound(key);
        let mut cur = Cursor::new(self, pid, leaf, slot);
        cur.skip_exhausted()?;
        Ok(cur)
    }

    /// Cursor at the smallest key.
    pub fn first(&self) -> Result<Cursor<'_>> {
        self.seek(&[])
    }

    /// Iterate every entry in key order (allocates owned pairs). A device
    /// fault while crossing to the next leaf is yielded as an `Err` item,
    /// after which the iterator ends.
    pub fn iter(&self) -> Result<TreeIter<'_>> {
        Ok(TreeIter {
            cursor: self.first()?,
        })
    }
}

/// Owned-entry iterator over a whole tree.
pub struct TreeIter<'a> {
    cursor: Cursor<'a>,
}

impl Iterator for TreeIter<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if !self.cursor.valid() {
            return None;
        }
        let item = (self.cursor.key().to_vec(), self.cursor.value().to_vec());
        // A failed advance leaves the cursor invalid, so the next call
        // returns `None`.
        Some(self.cursor.advance().map(|()| item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20)
    }

    fn tree(page: u32) -> BTree {
        BTree::create(store(), "t", page).unwrap()
    }

    #[test]
    fn insert_get_replace() {
        let mut t = tree(4096);
        assert!(t.insert(b"k1", b"v1").unwrap());
        assert!(t.insert(b"k2", b"v2").unwrap());
        assert!(!t.insert(b"k1", b"v1b").unwrap(), "replace is not new");
        assert_eq!(t.get(b"k1").unwrap().unwrap(), b"v1b");
        assert_eq!(t.get(b"k2").unwrap().unwrap(), b"v2");
        assert_eq!(t.get(b"nope").unwrap(), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let mut t = tree(512);
        let mut model = BTreeMap::new();
        // Insert in a scrambled order.
        for i in 0u32..2000 {
            let k = format!("key{:05}", (i * 7919) % 2000);
            let v = format!("val{i}");
            t.insert(k.as_bytes(), v.as_bytes()).unwrap();
            model.insert(k.into_bytes(), v.into_bytes());
        }
        assert_eq!(t.len() as usize, model.len());
        assert!(t.height() > 1, "512-byte pages must have split");
        let got: Vec<_> = t.iter().unwrap().map(Result::unwrap).collect();
        let want: Vec<_> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn deletes_and_merges_preserve_order() {
        let mut t = tree(512);
        let mut model = BTreeMap::new();
        for i in 0u32..1500 {
            let k = format!("{:06}", i);
            t.insert(k.as_bytes(), b"x").unwrap();
            model.insert(k.into_bytes(), b"x".to_vec());
        }
        // Delete ~2/3 of keys in scrambled order.
        for i in 0u32..1500 {
            if i % 3 != 0 {
                let k = format!("{:06}", (i * 7919) % 1500);
                let removed = t.delete(k.as_bytes()).unwrap();
                assert_eq!(removed, model.remove(k.as_bytes()).is_some());
            }
        }
        assert_eq!(t.len() as usize, model.len());
        let got: Vec<_> = t.iter().unwrap().map(|e| e.unwrap().0).collect();
        let want: Vec<_> = model.keys().cloned().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_everything_shrinks_to_empty_root() {
        let mut t = tree(512);
        for i in 0u32..800 {
            t.insert(format!("{:06}", i).as_bytes(), b"v").unwrap();
        }
        for i in 0u32..800 {
            assert!(t.delete(format!("{:06}", i).as_bytes()).unwrap());
        }
        assert_eq!(t.len(), 0);
        assert!(!t.first().unwrap().valid());
        assert!(t.get(b"000001").unwrap().is_none());
        // Tree can be reused afterwards.
        t.insert(b"again", b"yes").unwrap();
        assert_eq!(t.get(b"again").unwrap().unwrap(), b"yes");
    }

    #[test]
    fn seek_positions_at_lower_bound_across_leaves() {
        let mut t = tree(512);
        for i in (0u32..1000).step_by(2) {
            t.insert(format!("{:06}", i).as_bytes(), b"v").unwrap();
        }
        // Seek to an absent odd key: cursor must land on the next even key.
        let c = t.seek(b"000101").unwrap();
        assert!(c.valid());
        assert_eq!(c.key(), b"000102");
        // Seek past the end.
        let c = t.seek(b"999999").unwrap();
        assert!(!c.valid());
    }

    #[test]
    fn leaf_page_for_matches_seek_landing_page() {
        let mut t = tree(512);
        for i in (0u32..2000).step_by(2) {
            t.insert(format!("{:06}", i).as_bytes(), b"v").unwrap();
        }
        assert!(t.height() > 1);
        // Present keys only: seeking an absent key can legitimately land
        // one leaf later (the routed leaf's tail ends before it).
        for i in (0u32..2000).step_by(138) {
            let key = format!("{:06}", i);
            let predicted = t.leaf_page_for(key.as_bytes()).unwrap();
            let cur = t.seek(key.as_bytes()).unwrap();
            assert!(cur.valid());
            assert_eq!(predicted, cur.page(), "key {key}");
        }
        // Single-leaf tree: the root is the leaf, no pages read at all.
        let t1 = tree(512);
        assert_eq!(t1.leaf_page_for(b"anything").unwrap(), t1.root_page());
    }

    #[test]
    fn record_too_large_is_rejected() {
        let mut t = tree(512);
        let big = vec![0u8; 400];
        let err = t.insert(&big, &big).unwrap_err();
        assert!(matches!(err, StorageError::RecordTooLarge { .. }));
    }

    #[test]
    fn stats_reflect_structure() {
        let mut t = tree(512);
        for i in 0u32..500 {
            t.insert(format!("{:06}", i).as_bytes(), b"v").unwrap();
        }
        let s = t.stats();
        assert_eq!(s.entries, 500);
        assert!(s.leaf_pages > 1);
        assert_eq!(s.height, t.height());
        assert_eq!(s.bytes, (s.pages * 512) as u64);
    }

    #[test]
    fn corrupt_pages_surface_as_typed_errors() {
        let mut t = tree(512);
        for i in 0u32..600 {
            t.insert(format!("{:06}", i).as_bytes(), b"v").unwrap();
        }
        assert!(t.height() > 1);
        let key = b"000300";
        let leaf = t.leaf_page_for(key).unwrap();
        let good = t.store.pool.get(leaf).unwrap();
        let is_corrupt = |r: Result<()>| match r {
            Err(StorageError::Corrupted(what)) => {
                assert!(
                    what.contains(&format!("{leaf:?}")),
                    "names the page: {what}"
                );
            }
            other => panic!("expected Corrupted, got {other:?}"),
        };

        // Bad tag; a first entry whose key length overruns the page; and a
        // well-formed node of the wrong kind for its level.
        let mut bad_tag = good.to_vec();
        bad_tag[0] = 0;
        let mut overrun = good.to_vec();
        overrun[HEADER_LEN..HEADER_LEN + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        let wrong_kind = Node::new_internal(leaf).encode(512).to_vec();
        for bad in [bad_tag, overrun, wrong_kind] {
            t.store.pool.put(leaf, bad.into());
            is_corrupt(t.get(key).map(drop));
            is_corrupt(t.seek(key).map(drop));
            is_corrupt(t.insert(key, b"w").map(drop));
            is_corrupt(t.delete(key).map(drop));
        }
        // A scan that walks into the page reports it and then ends.
        let mut it = t.iter().unwrap();
        let first_err = it.find_map(|e| e.err());
        is_corrupt(Err(first_err.expect("the scan must reach the bad leaf")));
        assert!(it.next().is_none());

        t.store.pool.put(leaf, good);
        assert_eq!(t.get(key).unwrap().unwrap(), b"v");
    }

    #[test]
    fn iter_yields_device_faults_instead_of_panicking() {
        let st = store();
        let mut t = BTree::create(st.clone(), "t", 512).unwrap();
        for i in 0u32..600 {
            t.insert(format!("{:06}", i).as_bytes(), b"v").unwrap();
        }
        st.go_cold();
        // The machine dies a few page reads into the scan.
        st.disk
            .set_fault_plan(upi_storage::FaultPlan::kill_at(t.height() as u64 + 3));
        let items: Vec<_> = t.iter().unwrap().collect();
        assert!(items.len() < 600);
        let (last, before) = items.split_last().unwrap();
        assert_eq!(*last, Err(StorageError::Crashed));
        assert!(before.iter().all(|e| e.is_ok()));
        st.disk.clear_fault_plan();
        assert_eq!(t.iter().unwrap().filter(|e| e.is_ok()).count(), 600);
    }

    #[test]
    fn get_with_borrows_the_value() {
        let mut t = tree(512);
        t.insert(b"k", b"value").unwrap();
        assert_eq!(t.get_with(b"k", |v| v.len()).unwrap(), Some(5));
        assert_eq!(t.get_with(b"absent", |v| v.len()).unwrap(), None);
    }

    #[test]
    fn duplicate_heavy_workload() {
        // Same key overwritten many times must not leak entries or pages.
        let mut t = tree(512);
        for i in 0u32..1000 {
            t.insert(b"hot", format!("{i}").as_bytes()).unwrap();
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(b"hot").unwrap().unwrap(), b"999");
    }
}
