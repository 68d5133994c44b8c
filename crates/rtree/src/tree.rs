//! R-Tree insert / bulk-load / query.

use upi_storage::error::{Result, StorageError};
use upi_storage::{FileId, PageId, Store};

use crate::geom::{Point, Rect};
use crate::node::{internal_capacity, leaf_capacity, LeafEntry, PageView, RNode};

/// A completed node split: MBR and page of the new right sibling.
type NodeSplit = Option<(Rect, PageId)>;

/// STR bulk-load fill fraction.
const BULK_FILL: f64 = 0.80;
/// Quadratic-split minimum fill fraction.
const MIN_FILL: f64 = 0.40;

/// Size statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeStats {
    /// Height including leaves (1 = root is a leaf).
    pub height: usize,
    /// Leaf page count.
    pub leaf_pages: usize,
    /// Internal page count.
    pub internal_pages: usize,
    /// Leaf entries.
    pub entries: u64,
}

/// A leaf split observed during insertion, reported to the caller so a
/// synchronized heap file can split its pages accordingly (§5).
#[derive(Debug, Clone)]
pub struct SplitEvent {
    /// Page that was split (keeps the first group).
    pub old_leaf: PageId,
    /// Newly allocated page holding the second group.
    pub new_leaf: PageId,
    /// Tuple ids that moved to `new_leaf`.
    pub moved: Vec<u64>,
}

/// A disk-backed R-Tree with quadratic splits and STR bulk loading.
pub struct RTree {
    store: Store,
    file: FileId,
    page_size: usize,
    root: PageId,
    height: usize,
    entries: u64,
    leaf_pages: usize,
    internal_pages: usize,
    /// MBR of every entry ever indexed — the root's MBR, kept in RAM so
    /// that [`bounds`](Self::bounds) reads no page (entries are never
    /// removed, so the union is exact).
    bounds: Rect,
}

impl RTree {
    /// Create an empty tree in a fresh file (the paper uses 4 KB nodes).
    pub fn create(store: Store, name: &str, page_size: u32) -> Result<RTree> {
        let file = store.disk.create_file(name, page_size);
        let root = store.disk.alloc_page(file)?;
        let node = RNode::Leaf(Vec::new());
        store.pool.put(root, node.encode(page_size as usize));
        Ok(RTree {
            store,
            file,
            page_size: page_size as usize,
            root,
            height: 1,
            entries: 0,
            leaf_pages: 1,
            internal_pages: 0,
            bounds: Rect::empty(),
        })
    }

    /// Backing file.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Leaf entry count.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Statistics.
    pub fn stats(&self) -> RTreeStats {
        RTreeStats {
            height: self.height,
            leaf_pages: self.leaf_pages,
            internal_pages: self.internal_pages,
            entries: self.entries,
        }
    }

    /// Minimum bounding rectangle of all indexed entries (`None` when the
    /// tree is empty) — the spatial-domain estimate behind circle-query
    /// selectivity in the planner. Reads no page.
    pub fn bounds(&self) -> Option<Rect> {
        (!self.is_empty()).then_some(self.bounds)
    }

    /// Copy page `pid` into an owned node — for a page about to be
    /// rewritten; read-only walks use [`PageView`] on the pooled bytes.
    fn read(&self, pid: PageId) -> Result<RNode> {
        let page = self.store.pool.get(pid)?;
        Ok(PageView::parse(pid, &page)?.to_node())
    }

    fn write(&self, pid: PageId, node: &RNode) {
        self.store.pool.put(pid, node.encode(self.page_size));
    }

    /// Insert one entry; any leaf splits are appended to `events`. Returns
    /// the leaf page the entry ended up in (after splits), which the
    /// continuous UPI uses to place the tuple in the synchronized heap.
    pub fn insert(&mut self, entry: LeafEntry, events: &mut Vec<SplitEvent>) -> Result<PageId> {
        let rect = entry.rect;
        let (_, split, dest) = self.insert_rec(self.root, entry, events)?;
        self.bounds = self.bounds.union(&rect);
        if let Some((right_rect, right_pid)) = split {
            // Grow a new root above the old one.
            let left = self.read(self.root)?;
            let left_rect = left.mbr();
            let new_root = self.store.disk.alloc_page(self.file)?;
            let node = RNode::Internal(vec![(left_rect, self.root), (right_rect, right_pid)]);
            self.write(new_root, &node);
            self.root = new_root;
            self.height += 1;
            self.internal_pages += 1;
        }
        self.entries += 1;
        Ok(dest)
    }

    /// Returns (new MBR of `pid`, optional new right sibling `(mbr, page)`,
    /// leaf page holding the inserted entry).
    fn insert_rec(
        &mut self,
        pid: PageId,
        entry: LeafEntry,
        events: &mut Vec<SplitEvent>,
    ) -> Result<(Rect, NodeSplit, PageId)> {
        let node = self.read(pid)?;
        match node {
            RNode::Leaf(mut entries) => {
                let new_tid = entry.tid;
                entries.push(entry);
                if entries.len() <= leaf_capacity(self.page_size) {
                    let n = RNode::Leaf(entries);
                    let mbr = n.mbr();
                    self.write(pid, &n);
                    return Ok((mbr, None, pid));
                }
                let (a, b) = quadratic_split(entries, |e| e.rect);
                let new_pid = self.store.disk.alloc_page(self.file)?;
                let dest = if b.iter().any(|e| e.tid == new_tid) {
                    new_pid
                } else {
                    pid
                };
                events.push(SplitEvent {
                    old_leaf: pid,
                    new_leaf: new_pid,
                    moved: b.iter().map(|e| e.tid).collect(),
                });
                let na = RNode::Leaf(a);
                let nb = RNode::Leaf(b);
                let (ra, rb) = (na.mbr(), nb.mbr());
                self.write(pid, &na);
                self.write(new_pid, &nb);
                self.leaf_pages += 1;
                Ok((ra, Some((rb, new_pid)), dest))
            }
            RNode::Internal(mut children) => {
                // Choose the child needing least enlargement (ties: area).
                let mut best = 0usize;
                let mut best_enl = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, (r, _)) in children.iter().enumerate() {
                    let enl = r.enlargement(&entry.rect);
                    let area = r.area();
                    if enl < best_enl || (enl == best_enl && area < best_area) {
                        best = i;
                        best_enl = enl;
                        best_area = area;
                    }
                }
                let child_pid = children[best].1;
                let (child_mbr, child_split, dest) = self.insert_rec(child_pid, entry, events)?;
                children[best].0 = child_mbr;
                if let Some((r, p)) = child_split {
                    children.push((r, p));
                }
                if children.len() <= internal_capacity(self.page_size) {
                    let n = RNode::Internal(children);
                    let mbr = n.mbr();
                    self.write(pid, &n);
                    return Ok((mbr, None, dest));
                }
                let (a, b) = quadratic_split(children, |(r, _)| *r);
                let new_pid = self.store.disk.alloc_page(self.file)?;
                let na = RNode::Internal(a);
                let nb = RNode::Internal(b);
                let (ra, rb) = (na.mbr(), nb.mbr());
                self.write(pid, &na);
                self.write(new_pid, &nb);
                self.internal_pages += 1;
                Ok((ra, Some((rb, new_pid)), dest))
            }
        }
    }

    /// Sort-Tile-Recursive bulk load into an **empty** tree. Leaves are
    /// written in tile order, which is also the physical and the
    /// hierarchical-location order (Figure 2's `<2,1>`-style keys).
    pub fn bulk_load(&mut self, mut entries: Vec<LeafEntry>) -> Result<()> {
        assert!(self.is_empty(), "bulk_load requires an empty tree");
        if entries.is_empty() {
            return Ok(());
        }
        let cap = ((leaf_capacity(self.page_size) as f64) * BULK_FILL).max(1.0) as usize;
        let n = entries.len();
        let n_leaves = n.div_ceil(cap);
        let n_slices = (n_leaves as f64).sqrt().ceil() as usize;
        let slice_len = n.div_ceil(n_slices);

        entries.sort_by(|a, b| {
            a.rect
                .center()
                .x
                .partial_cmp(&b.rect.center().x)
                .unwrap()
                .then_with(|| a.tid.cmp(&b.tid))
        });

        let mut leaves: Vec<(Rect, PageId)> = Vec::with_capacity(n_leaves);
        // Reuse the root page allocated at create() for the first leaf so
        // the file stays contiguous.
        let mut first_page = Some(self.root);
        for slice in entries.chunks_mut(slice_len) {
            slice.sort_by(|a, b| {
                a.rect
                    .center()
                    .y
                    .partial_cmp(&b.rect.center().y)
                    .unwrap()
                    .then_with(|| a.tid.cmp(&b.tid))
            });
            for group in slice.chunks(cap) {
                let pid = match first_page.take() {
                    Some(p) => p,
                    None => self.store.disk.alloc_page(self.file)?,
                };
                let node = RNode::Leaf(group.to_vec());
                leaves.push((node.mbr(), pid));
                self.write(pid, &node);
            }
        }
        self.leaf_pages = leaves.len();
        self.entries = n as u64;
        self.bounds = leaves.iter().fold(Rect::empty(), |r, (l, _)| r.union(l));

        // Build internal levels by packing in order.
        let icap = ((internal_capacity(self.page_size) as f64) * BULK_FILL).max(2.0) as usize;
        let mut level = leaves;
        let mut height = 1;
        while level.len() > 1 {
            height += 1;
            let mut next = Vec::with_capacity(level.len().div_ceil(icap));
            for group in level.chunks(icap) {
                let pid = self.store.disk.alloc_page(self.file)?;
                let node = RNode::Internal(group.to_vec());
                next.push((node.mbr(), pid));
                self.write(pid, &node);
                self.internal_pages += 1;
            }
            level = next;
        }
        self.root = level[0].1;
        self.height = height;
        self.store.pool.flush_all();
        Ok(())
    }

    /// Call `visit(leaf page, entry)` for every entry whose MBR intersects
    /// the query circle, leaf by leaf in depth-first order. Pages are read
    /// in place; an entry is materialised only when it is a hit.
    pub fn for_each_in_circle(
        &self,
        center: Point,
        radius: f64,
        mut visit: impl FnMut(PageId, LeafEntry),
    ) -> Result<()> {
        self.query_rec(self.root, self.height, &center, radius, &mut visit)
    }

    /// Flat candidate list for a circle query.
    pub fn query_circle(&self, center: Point, radius: f64) -> Result<Vec<LeafEntry>> {
        let mut out = Vec::new();
        self.for_each_in_circle(center, radius, |_, e| out.push(e))?;
        Ok(out)
    }

    /// An internal page where the tree's height says a leaf must be: a
    /// child pointer led somewhere it cannot (following it further could
    /// loop forever).
    fn too_deep(pid: PageId) -> StorageError {
        StorageError::Corrupted(format!(
            "r-tree page {pid:?}: internal node at the leaf level"
        ))
    }

    /// `levels` is the height of the subtree rooted at `pid`.
    fn query_rec<F: FnMut(PageId, LeafEntry)>(
        &self,
        pid: PageId,
        levels: usize,
        center: &Point,
        radius: f64,
        visit: &mut F,
    ) -> Result<()> {
        let page = self.store.pool.get(pid)?;
        match PageView::parse(pid, &page)? {
            PageView::Leaf(leaf) => {
                for e in leaf.entries_where(|r| r.intersects_circle(center, radius)) {
                    visit(pid, e);
                }
            }
            PageView::Internal(_) if levels <= 1 => return Err(Self::too_deep(pid)),
            PageView::Internal(node) => {
                for (r, child) in node.children() {
                    if r.intersects_circle(center, radius) {
                        self.query_rec(child, levels - 1, center, radius, visit)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Leaf pages in depth-first (hierarchical location) order — the order
    /// in which the continuous UPI lays out its heap pages.
    pub fn leaf_order(&self) -> Result<Vec<PageId>> {
        let mut out = Vec::with_capacity(self.leaf_pages);
        self.leaf_order_rec(self.root, self.height, &mut out)?;
        Ok(out)
    }

    fn leaf_order_rec(&self, pid: PageId, levels: usize, out: &mut Vec<PageId>) -> Result<()> {
        let page = self.store.pool.get(pid)?;
        match PageView::parse(pid, &page)? {
            PageView::Leaf(_) => out.push(pid),
            PageView::Internal(_) if levels <= 1 => return Err(Self::too_deep(pid)),
            PageView::Internal(node) => {
                for (_, child) in node.children() {
                    self.leaf_order_rec(child, levels - 1, out)?;
                }
            }
        }
        Ok(())
    }

    /// All entries of one leaf page.
    pub fn leaf_entries(&self, pid: PageId) -> Result<Vec<LeafEntry>> {
        let page = self.store.pool.get(pid)?;
        match PageView::parse(pid, &page)? {
            PageView::Leaf(leaf) => Ok(leaf.entries_where(|_| true).collect()),
            PageView::Internal(_) => Err(StorageError::Corrupted(format!(
                "r-tree page {pid:?}: expected a leaf, found an internal node"
            ))),
        }
    }

    /// Verify structural invariants (test helper): parent MBRs contain
    /// children, leaf depth is uniform, entry count matches.
    pub fn check_invariants(&self) -> Result<()> {
        let mut leaf_depths = Vec::new();
        let total = self.check_rec(self.root, 1, &mut leaf_depths, None)?;
        assert_eq!(total, self.entries, "entry count mismatch");
        assert!(
            leaf_depths.iter().all(|&d| d == leaf_depths[0]),
            "leaves at unequal depths"
        );
        assert_eq!(leaf_depths[0], self.height, "height mismatch");
        Ok(())
    }

    fn check_rec(
        &self,
        pid: PageId,
        depth: usize,
        leaf_depths: &mut Vec<usize>,
        bound: Option<Rect>,
    ) -> Result<u64> {
        match self.read(pid)? {
            RNode::Leaf(entries) => {
                leaf_depths.push(depth);
                if let Some(b) = bound {
                    for e in &entries {
                        assert!(b.contains(&e.rect), "leaf entry escapes parent MBR");
                    }
                }
                Ok(entries.len() as u64)
            }
            RNode::Internal(children) => {
                assert!(!children.is_empty(), "empty internal node");
                let mut total = 0;
                for (r, child) in children {
                    if let Some(b) = bound {
                        assert!(b.contains(&r), "child MBR escapes parent MBR");
                    }
                    total += self.check_rec(child, depth + 1, leaf_depths, Some(r))?;
                }
                Ok(total)
            }
        }
    }
}

/// Quadratic split of `items` into two groups respecting the minimum fill.
fn quadratic_split<T: Clone>(items: Vec<T>, rect_of: impl Fn(&T) -> Rect) -> (Vec<T>, Vec<T>) {
    let min_fill = ((items.len() as f64) * MIN_FILL).max(1.0) as usize;
    // Pick the pair of seeds wasting the most area together.
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let ri = rect_of(&items[i]);
            let rj = rect_of(&items[j]);
            let waste = ri.union(&rj).area() - ri.area() - rj.area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut a = Vec::new();
    let mut b = Vec::new();
    let mut ra = rect_of(&items[s1]);
    let mut rb = rect_of(&items[s2]);
    a.push(items[s1].clone());
    b.push(items[s2].clone());
    let mut rest: Vec<T> = items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != s1 && *i != s2)
        .map(|(_, t)| t)
        .collect();

    while let Some(item) = rest.pop() {
        // If one group must take everything left to reach min fill, do so.
        if a.len() + rest.len() < min_fill {
            ra = ra.union(&rect_of(&item));
            a.push(item);
            continue;
        }
        if b.len() + rest.len() < min_fill {
            rb = rb.union(&rect_of(&item));
            b.push(item);
            continue;
        }
        let r = rect_of(&item);
        let ea = ra.enlargement(&r);
        let eb = rb.enlargement(&r);
        let pick_a = match ea.partial_cmp(&eb).unwrap() {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                if ra.area() != rb.area() {
                    ra.area() < rb.area()
                } else {
                    a.len() <= b.len()
                }
            }
        };
        if pick_a {
            ra = ra.union(&r);
            a.push(item);
        } else {
            rb = rb.union(&r);
            b.push(item);
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
    }

    fn entry(tid: u64, x: f64, y: f64, r: f64) -> LeafEntry {
        LeafEntry {
            rect: Rect::new(x - r, y - r, x + r, y + r),
            tid,
            aux: [x, y, r / 3.0, r],
        }
    }

    /// Deterministic pseudo-random points in a square.
    fn cloud(n: u64, span: f64) -> Vec<LeafEntry> {
        let mut state = 0xDEADBEEFu64;
        let mut unif = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|tid| {
                let x = unif() * span;
                let y = unif() * span;
                entry(tid, x, y, 5.0)
            })
            .collect()
    }

    fn linear_hits(entries: &[LeafEntry], c: Point, r: f64) -> Vec<u64> {
        let mut v: Vec<u64> = entries
            .iter()
            .filter(|e| e.rect.intersects_circle(&c, r))
            .map(|e| e.tid)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn incremental_insert_queries_match_linear_scan() {
        let mut t = RTree::create(store(), "rt", 4096).unwrap();
        let entries = cloud(3000, 1000.0);
        let mut events = Vec::new();
        for e in &entries {
            t.insert(*e, &mut events).unwrap();
        }
        assert_eq!(t.len(), 3000);
        assert!(t.height() > 1);
        assert!(!events.is_empty(), "3000 entries must split 4KB leaves");
        t.check_invariants().unwrap();
        // The in-RAM bounds are exactly the root's MBR.
        assert_eq!(t.bounds(), Some(t.read(t.root).unwrap().mbr()));
        for (cx, cy, r) in [
            (100.0, 100.0, 50.0),
            (500.0, 500.0, 120.0),
            (0.0, 0.0, 10.0),
        ] {
            let c = Point::new(cx, cy);
            let mut got: Vec<u64> = t
                .query_circle(c, r)
                .unwrap()
                .iter()
                .map(|e| e.tid)
                .collect();
            got.sort_unstable();
            assert_eq!(got, linear_hits(&entries, c, r), "query ({cx},{cy},{r})");
        }
    }

    #[test]
    fn bulk_load_queries_match_linear_scan() {
        let mut t = RTree::create(store(), "rt", 4096).unwrap();
        let entries = cloud(5000, 2000.0);
        t.bulk_load(entries.clone()).unwrap();
        assert_eq!(t.len(), 5000);
        t.check_invariants().unwrap();
        assert_eq!(t.bounds(), Some(t.read(t.root).unwrap().mbr()));
        for (cx, cy, r) in [(300.0, 1700.0, 80.0), (1000.0, 1000.0, 300.0)] {
            let c = Point::new(cx, cy);
            let mut got: Vec<u64> = t
                .query_circle(c, r)
                .unwrap()
                .iter()
                .map(|e| e.tid)
                .collect();
            got.sort_unstable();
            assert_eq!(got, linear_hits(&entries, c, r));
        }
    }

    #[test]
    fn bulk_leaves_are_spatially_coherent() {
        let mut t = RTree::create(store(), "rt", 4096).unwrap();
        t.bulk_load(cloud(5000, 2000.0)).unwrap();
        // A small circle query should touch only a few leaves.
        let mut leaves = Vec::new();
        t.for_each_in_circle(Point::new(1000.0, 1000.0), 40.0, |leaf, _| {
            if leaves.last() != Some(&leaf) {
                leaves.push(leaf);
            }
        })
        .unwrap();
        assert!(
            (1..=6).contains(&leaves.len()),
            "small query touched {} leaves",
            leaves.len()
        );
    }

    #[test]
    fn leaf_order_covers_all_leaves() {
        let mut t = RTree::create(store(), "rt", 4096).unwrap();
        t.bulk_load(cloud(3000, 1000.0)).unwrap();
        let order = t.leaf_order().unwrap();
        assert_eq!(order.len(), t.stats().leaf_pages);
        // Entries across leaves sum to the total.
        let total: usize = order
            .iter()
            .map(|&p| t.leaf_entries(p).unwrap().len())
            .sum();
        assert_eq!(total, 3000);
    }

    #[test]
    fn split_events_describe_movements() {
        let mut t = RTree::create(store(), "rt", 4096).unwrap();
        let mut events = Vec::new();
        let entries = cloud(200, 500.0);
        for e in &entries {
            t.insert(*e, &mut events).unwrap();
        }
        for ev in &events {
            assert_ne!(ev.old_leaf, ev.new_leaf);
            assert!(!ev.moved.is_empty());
            // Moved tids now live in new_leaf... unless a later split moved
            // them again; at minimum the event itself must be well-formed.
        }
    }

    #[test]
    fn empty_tree_queries_are_empty() {
        let t = RTree::create(store(), "rt", 4096).unwrap();
        assert_eq!(t.bounds(), None);
        assert!(t
            .query_circle(Point::new(0.0, 0.0), 100.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn corrupt_pages_are_errors_not_panics() {
        use bytes::Bytes;
        let st = store();
        let mut t = RTree::create(st.clone(), "rt", 4096).unwrap();
        t.bulk_load(cloud(3000, 1000.0)).unwrap();
        assert!(t.height() >= 2);
        let (c, r) = (Point::new(500.0, 500.0), 100.0);
        let leaf = t.leaf_order().unwrap()[0];
        let walks = |t: &RTree| {
            [
                t.query_circle(Point::new(0.0, 0.0), 2000.0).map(|_| ()),
                t.leaf_order().map(|_| ()),
            ]
        };
        let corrupted = |r: Result<()>, page: PageId| match r {
            Err(StorageError::Corrupted(what)) => {
                assert!(what.contains(&format!("{page:?}")), "{what}")
            }
            other => panic!("expected Corrupted, got {other:?}"),
        };
        assert!(!t.query_circle(c, r).unwrap().is_empty());

        let good = st.pool.get(leaf).unwrap();
        // Zero-filled (tag 0), truncated, and over-count leaf pages.
        let mut over = good.to_vec();
        over[2..4].copy_from_slice(&1000u16.to_le_bytes());
        for bad in [
            Bytes::from(vec![0u8; 4096]),
            good.slice(0..40),
            Bytes::from(over),
        ] {
            st.pool.put(leaf, bad);
            for walk in walks(&t) {
                corrupted(walk, leaf);
            }
            corrupted(t.leaf_entries(leaf).map(|_| ()), leaf);
        }
        st.pool.put(leaf, good);

        // A child pointer that leads back to the root: the walk is cut off
        // at the leaf level instead of recursing forever.
        let root = t.root;
        let RNode::Internal(mut children) = t.read(root).unwrap() else {
            panic!("root of a height-{} tree is a leaf", t.height());
        };
        for child in &mut children {
            child.1 = root;
        }
        t.write(root, &RNode::Internal(children));
        for walk in walks(&t) {
            corrupted(walk, root);
        }
        // The root page itself unreadable: every walk reports it, while
        // `bounds` still answers from RAM.
        let bounds = t.bounds();
        st.pool.put(root, Bytes::from(vec![7u8; 4096]));
        for walk in walks(&t) {
            corrupted(walk, root);
        }
        assert_eq!(t.bounds(), bounds);
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let items: Vec<LeafEntry> = (0..57)
            .map(|i| entry(i, i as f64 * 10.0, 0.0, 1.0))
            .collect();
        let (a, b) = quadratic_split(items, |e| e.rect);
        assert_eq!(a.len() + b.len(), 57);
        let min = (57_f64 * MIN_FILL) as usize;
        assert!(
            a.len() >= min && b.len() >= min,
            "{} / {}",
            a.len(),
            b.len()
        );
    }
}
