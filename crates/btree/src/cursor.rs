//! Forward cursors over the leaf chain.

use upi_storage::error::Result;
use upi_storage::PageId;

use crate::node::{NodeKind, NodeView};
use crate::tree::BTree;

/// A forward-only cursor over a [`BTree`]'s leaf chain.
///
/// A cursor holds one reference to the current leaf's page, exactly as the
/// buffer pool cached it, and [`key`](Self::key) / [`value`](Self::value)
/// are slices of that page: stepping within a leaf copies and allocates
/// nothing. Pages are immutable once handed out (a write installs a new
/// buffer), so the cursor never observes a torn page and keeps its leaf
/// alive even if the pool evicts it; it would go stale if the tree were
/// mutated, which Rust's borrow rules rule out (a cursor borrows the tree
/// immutably).
///
/// Advancing across a leaf boundary reads the next leaf through the buffer
/// pool — physically adjacent leaves (bulk-loaded trees) cost sequential
/// reads, scattered leaves (churned trees) cost seeks. Range-scan cost is
/// therefore an emergent property of the tree's history, as in §4.1 of the
/// paper.
pub struct Cursor<'a> {
    tree: &'a BTree,
    page: PageId,
    leaf: NodeView,
    slot: usize,
    exhausted: bool,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(tree: &'a BTree, page: PageId, leaf: NodeView, slot: usize) -> Cursor<'a> {
        debug_assert_eq!(leaf.kind(), NodeKind::Leaf);
        Cursor {
            tree,
            page,
            leaf,
            slot,
            exhausted: false,
        }
    }

    /// True while the cursor points at an entry.
    pub fn valid(&self) -> bool {
        !self.exhausted && self.slot < self.leaf.len()
    }

    /// Key at the cursor (panics if `!valid()`).
    pub fn key(&self) -> &[u8] {
        self.leaf.key(self.slot)
    }

    /// Value at the cursor (panics if `!valid()`).
    pub fn value(&self) -> &[u8] {
        self.leaf.value(self.slot)
    }

    /// Page currently under the cursor (diagnostics).
    pub fn page(&self) -> PageId {
        self.page
    }

    /// Move to the next entry in key order.
    pub fn advance(&mut self) -> Result<()> {
        if self.exhausted {
            return Ok(());
        }
        self.slot += 1;
        self.skip_exhausted()
    }

    /// If the current slot is past the end of this leaf, hop leaves until an
    /// entry is found or the chain ends. (Leaves are never left empty except
    /// transiently for the rightmost node, so this usually hops at most
    /// once.)
    pub(crate) fn skip_exhausted(&mut self) -> Result<()> {
        while self.slot >= self.leaf.len() {
            let next = self.leaf.link();
            if !next.is_valid() {
                self.exhausted = true;
                return Ok(());
            }
            self.leaf = self.tree.view_kind(next, NodeKind::Leaf)?;
            self.page = next;
            self.slot = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::BTree;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk, Store};

    fn tree_with(n: u32, page: u32) -> BTree {
        let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20);
        let mut t = BTree::create(store, "t", page).unwrap();
        for i in 0..n {
            t.insert(format!("{:08}", i).as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        t
    }

    #[test]
    fn full_scan_visits_everything_in_order() {
        let t = tree_with(1000, 512);
        let mut c = t.first().unwrap();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        while c.valid() {
            if let Some(p) = &prev {
                assert!(p.as_slice() < c.key());
            }
            prev = Some(c.key().to_vec());
            count += 1;
            c.advance().unwrap();
        }
        assert_eq!(count, 1000);
    }

    #[test]
    fn advance_after_end_is_idempotent() {
        let t = tree_with(3, 512);
        let mut c = t.first().unwrap();
        for _ in 0..10 {
            c.advance().unwrap();
        }
        assert!(!c.valid());
        c.advance().unwrap();
        assert!(!c.valid());
    }

    #[test]
    fn empty_tree_cursor_is_invalid() {
        let t = tree_with(0, 512);
        let c = t.first().unwrap();
        assert!(!c.valid());
    }

    #[test]
    fn mid_range_scan() {
        let t = tree_with(500, 512);
        let mut c = t.seek(b"00000100").unwrap();
        let mut got = Vec::new();
        while c.valid() && c.key() < b"00000110".as_slice() {
            got.push(String::from_utf8(c.key().to_vec()).unwrap());
            c.advance().unwrap();
        }
        let want: Vec<String> = (100..110).map(|i| format!("{:08}", i)).collect();
        assert_eq!(got, want);
    }
}
