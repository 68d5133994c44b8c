//! On-page node representation.
//!
//! A page is **read** through a [`NodeView`]: the ref-counted page bytes
//! exactly as the buffer pool handed them out, plus a table of entry
//! offsets built in one validating pass. Keys and values are slices into
//! the page and searches run over them in place, so a descent, a point
//! lookup or a cursor step never copies or allocates per entry.
//! [`NodeView::new`] is the only parser of page bytes; anything malformed
//! surfaces there as [`StorageError::Corrupted`].
//!
//! The owned [`Node`] is the **builder** for a page that is about to be
//! rewritten, and nothing else: the leaf an insert or delete lands in and
//! an ancestor that absorbs a split or loses a merged child. It is made
//! from a view ([`NodeView::to_node`]) or empty, edited, and encoded back.
//! A page that is merely passed through must not be turned into one.
//!
//! A page that is only ever **appended to** — every page `bulk_load`
//! fills — goes through a [`PageWriter`] instead: entries are copied once,
//! from the caller's slices into the page image.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0]      tag: 1 = leaf, 2 = internal
//! [1]      reserved
//! [2..4]   entry count (u16)
//! [4..12]  leaf: next-leaf page id / internal: leftmost child page id
//! [12..16] reserved
//! [16..]   entries: (klen u16, vlen u16, key bytes, value bytes)*
//! ```
//!
//! Internal-node "values" are 8-byte child page ids. Entry `i` of an
//! internal node holds separator `k_i` and child `c_i`, where `c_i` covers
//! keys in `[k_i, k_{i+1})` and the leftmost child covers keys below `k_0`.

use bytes::Bytes;
use upi_storage::error::{Result, StorageError};
use upi_storage::{PageId, INVALID_PAGE};

/// Fixed per-page header length.
pub(crate) const HEADER_LEN: usize = 16;
/// Per-entry overhead beyond key and value bytes.
pub(crate) const ENTRY_OVERHEAD: usize = 4;
/// Length of an internal entry's value (a child page id).
pub(crate) const CHILD_LEN: usize = 8;

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// Node kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeKind {
    /// Holds user entries and a `next` chain pointer.
    Leaf,
    /// Holds separators and child pointers.
    Internal,
}

/// One owned entry: key bytes and value bytes (internal-node values are
/// 8-byte child ids).
pub(crate) type Entry = (Box<[u8]>, Box<[u8]>);

/// Owned node: the builder for a page being rewritten (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub kind: NodeKind,
    /// Leaf: next leaf in key order (or [`INVALID_PAGE`]).
    /// Internal: leftmost child.
    pub link: PageId,
    /// Sorted entries. For internal nodes the value is the 8-byte child id.
    pub entries: Vec<Entry>,
}

impl Node {
    pub fn new_leaf() -> Node {
        Node {
            kind: NodeKind::Leaf,
            link: INVALID_PAGE,
            entries: Vec::new(),
        }
    }

    pub fn new_internal(child0: PageId) -> Node {
        Node {
            kind: NodeKind::Internal,
            link: child0,
            entries: Vec::new(),
        }
    }

    /// Bytes this node occupies when encoded.
    pub fn used_bytes(&self) -> usize {
        HEADER_LEN
            + self
                .entries
                .iter()
                .map(|(k, v)| ENTRY_OVERHEAD + k.len() + v.len())
                .sum::<usize>()
    }

    /// Encode into a page buffer of exactly `page_size` bytes.
    ///
    /// Panics if the node does not fit; callers must split first (enforced
    /// by the tree layer via [`Node::used_bytes`]).
    pub fn encode(&self, page_size: usize) -> Bytes {
        let used = self.used_bytes();
        assert!(
            used <= page_size,
            "node of {used} bytes exceeds page size {page_size}"
        );
        let mut buf = vec![0u8; page_size];
        buf[0] = match self.kind {
            NodeKind::Leaf => TAG_LEAF,
            NodeKind::Internal => TAG_INTERNAL,
        };
        buf[2..4].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        buf[4..12].copy_from_slice(&self.link.0.to_le_bytes());
        let mut at = HEADER_LEN;
        for (k, v) in &self.entries {
            buf[at..at + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
            buf[at + 2..at + 4].copy_from_slice(&(v.len() as u16).to_le_bytes());
            at += 4;
            buf[at..at + k.len()].copy_from_slice(k);
            at += k.len();
            buf[at..at + v.len()].copy_from_slice(v);
            at += v.len();
        }
        Bytes::from(buf)
    }
}

/// Append-only writer of one page image: the write-side twin of
/// [`NodeView`]. `bulk_load` pushes each (already ordered) entry straight
/// into the page buffer — no owned entry, no second copy at encode time —
/// and [`finish`](Self::finish) seals header and link. The image is byte
/// for byte what [`Node::encode`] produces for the same entries.
pub(crate) struct PageWriter {
    buf: Vec<u8>,
    /// Bytes used so far (header included) — where the next entry goes.
    at: usize,
    count: usize,
    /// Where the last pushed entry's key starts, and its length.
    last_key: (usize, usize),
}

impl PageWriter {
    pub fn new(kind: NodeKind, page_size: usize) -> PageWriter {
        let mut buf = vec![0u8; page_size];
        buf[0] = match kind {
            NodeKind::Leaf => TAG_LEAF,
            NodeKind::Internal => TAG_INTERNAL,
        };
        PageWriter {
            buf,
            at: HEADER_LEN,
            count: 0,
            last_key: (0, 0),
        }
    }

    /// Bytes the node occupies so far; [`Node::used_bytes`] of the same
    /// entries.
    pub fn used_bytes(&self) -> usize {
        self.at
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Key of the first entry (empty on an empty page).
    pub fn first_key(&self) -> &[u8] {
        let klen = read_u16(&self.buf, HEADER_LEN);
        let start = HEADER_LEN + ENTRY_OVERHEAD;
        &self.buf[start..start + klen]
    }

    /// Key of the entry pushed last, if any.
    pub fn last_key(&self) -> Option<&[u8]> {
        let (start, len) = self.last_key;
        (self.count > 0).then(|| &self.buf[start..start + len])
    }

    /// Append one entry. Panics if it does not fit the page; callers seal
    /// the page first (enforced through [`used_bytes`](Self::used_bytes)).
    pub fn push(&mut self, k: &[u8], v: &[u8]) {
        let end = self.at + ENTRY_OVERHEAD + k.len() + v.len();
        assert!(
            end <= self.buf.len(),
            "node of {end} bytes exceeds page size {}",
            self.buf.len()
        );
        let at = self.at;
        self.buf[at..at + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
        self.buf[at + 2..at + 4].copy_from_slice(&(v.len() as u16).to_le_bytes());
        let key_at = at + ENTRY_OVERHEAD;
        self.buf[key_at..key_at + k.len()].copy_from_slice(k);
        self.buf[key_at + k.len()..end].copy_from_slice(v);
        self.last_key = (key_at, k.len());
        self.at = end;
        self.count += 1;
    }

    /// Seal the page with its link field (leaf: next leaf; internal:
    /// leftmost child).
    pub fn finish(mut self, link: PageId) -> Bytes {
        self.buf[2..4].copy_from_slice(&(self.count as u16).to_le_bytes());
        self.buf[4..12].copy_from_slice(&link.0.to_le_bytes());
        Bytes::from(self.buf)
    }
}

/// A validated, read-only view of one encoded page (see module docs).
///
/// Holds one reference to the page and one offset vector; nothing is
/// allocated per entry.
#[derive(Debug)]
pub(crate) struct NodeView {
    page: Bytes,
    kind: NodeKind,
    /// `offsets[i]` is where entry `i`'s `(klen, vlen)` header starts;
    /// one final element marks the end of the last entry, so entry `i`
    /// spans `offsets[i]..offsets[i + 1]`.
    offsets: Box<[u32]>,
}

#[inline]
fn read_u16(data: &[u8], at: usize) -> usize {
    u16::from_le_bytes([data[at], data[at + 1]]) as usize
}

impl NodeView {
    /// Parse and validate `page` (the bytes of page `pid`): the tag, the
    /// entry count, and that every entry's declared lengths stay inside
    /// the page (and, for an internal node, that every value is a child
    /// id). Accessors can then slice without failing.
    pub fn new(pid: PageId, page: Bytes) -> Result<NodeView> {
        let corrupt =
            |what: String| StorageError::Corrupted(format!("b+tree page {pid:?}: {what}"));
        let data: &[u8] = &page;
        if data.len() < HEADER_LEN || data.len() > u32::MAX as usize {
            return Err(corrupt(format!("{} bytes is not a node", data.len())));
        }
        let kind = match data[0] {
            TAG_LEAF => NodeKind::Leaf,
            TAG_INTERNAL => NodeKind::Internal,
            t => return Err(corrupt(format!("bad node tag {t}"))),
        };
        let count = read_u16(data, 2);
        if HEADER_LEN + count * ENTRY_OVERHEAD > data.len() {
            return Err(corrupt(format!("{count} entries cannot fit the page")));
        }
        let mut offsets = Vec::with_capacity(count + 1);
        let mut at = HEADER_LEN;
        for i in 0..count {
            offsets.push(at as u32);
            if at + ENTRY_OVERHEAD > data.len() {
                return Err(corrupt(format!(
                    "entry {i} of {count} starts past the page end"
                )));
            }
            let (klen, vlen) = (read_u16(data, at), read_u16(data, at + 2));
            if kind == NodeKind::Internal && vlen != CHILD_LEN {
                return Err(corrupt(format!(
                    "internal entry {i} has a {vlen}-byte child id"
                )));
            }
            at += ENTRY_OVERHEAD + klen + vlen;
            if at > data.len() {
                return Err(corrupt(format!(
                    "entry {i} ({klen}-byte key, {vlen}-byte value) overruns the page"
                )));
            }
        }
        offsets.push(at as u32);
        Ok(NodeView {
            page,
            kind,
            offsets: offsets.into_boxed_slice(),
        })
    }

    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Leaf: next leaf in key order (or [`INVALID_PAGE`]).
    /// Internal: leftmost child.
    pub fn link(&self) -> PageId {
        child_id(&self.page[4..12])
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Bytes the node occupies on the page (header plus entries).
    pub fn used_bytes(&self) -> usize {
        self.offsets[self.len()] as usize
    }

    /// Key of the entry whose header starts at `at`.
    #[inline]
    fn key_at(&self, at: usize) -> &[u8] {
        let start = at + ENTRY_OVERHEAD;
        &self.page[start..start + read_u16(&self.page, at)]
    }

    /// Key of entry `i` (panics if `i >= len()`).
    #[inline]
    pub fn key(&self, i: usize) -> &[u8] {
        self.key_at(self.offsets[i] as usize)
    }

    /// Value of entry `i` (panics if `i >= len()`).
    #[inline]
    pub fn value(&self, i: usize) -> &[u8] {
        let at = self.offsets[i] as usize;
        let start = at + ENTRY_OVERHEAD + read_u16(&self.page, at);
        &self.page[start..self.offsets[i + 1] as usize]
    }

    /// Index of the first entry for which `pred(key)` is false; `pred`
    /// must be true for a prefix of the (sorted) keys and false after.
    fn partition_point(&self, pred: impl Fn(&[u8]) -> bool) -> usize {
        self.offsets[..self.len()].partition_point(|&at| pred(self.key_at(at as usize)))
    }

    /// Index of the first entry with key `>= target` (binary search).
    pub fn lower_bound(&self, target: &[u8]) -> usize {
        self.partition_point(|k| k < target)
    }

    /// For internal nodes: which child covers `target`, as a slot for
    /// [`child`](Self::child) — the number of separators `<= target`.
    pub fn child_slot(&self, target: &[u8]) -> usize {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        self.partition_point(|k| k <= target)
    }

    /// For internal nodes: the `slot`-th child, 0 being the leftmost.
    pub fn child(&self, slot: usize) -> PageId {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        match slot {
            0 => self.link(),
            _ => child_id(self.value(slot - 1)),
        }
    }

    /// For internal nodes: the child that covers `target`.
    pub fn route(&self, target: &[u8]) -> PageId {
        self.child(self.child_slot(target))
    }

    /// The entries as owned pairs, in order.
    pub fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        (0..self.len()).map(|i| (self.key(i).into(), self.value(i).into()))
    }

    /// An owned copy to edit and write back. Only for a page that is
    /// about to be rewritten (see module docs).
    pub fn to_node(&self) -> Node {
        Node {
            kind: self.kind,
            link: self.link(),
            entries: self.entries().collect(),
        }
    }
}

/// Decode an internal entry value into a child page id.
#[inline]
pub(crate) fn child_id(v: &[u8]) -> PageId {
    PageId(u64::from_le_bytes(v.try_into().expect("8-byte child id")))
}

/// Encode a child page id as an internal entry value.
#[inline]
pub(crate) fn child_val(p: PageId) -> Box<[u8]> {
    p.0.to_le_bytes().into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const PID: PageId = PageId(9);

    fn view(node: &Node, page_size: usize) -> NodeView {
        NodeView::new(PID, node.encode(page_size)).unwrap()
    }

    fn leaf(keys: &[&[u8]]) -> Node {
        let mut n = Node::new_leaf();
        n.entries = keys.iter().map(|&k| (k.into(), Box::default())).collect();
        n
    }

    #[test]
    fn leaf_roundtrip() {
        let mut n = Node::new_leaf();
        n.link = PageId(77);
        n.entries.push((b"a".to_vec().into(), b"1".to_vec().into()));
        n.entries
            .push((b"bb".to_vec().into(), b"22".to_vec().into()));
        let enc = n.encode(256);
        assert_eq!(enc.len(), 256);
        let back = NodeView::new(PID, enc).unwrap();
        assert_eq!(back.kind(), NodeKind::Leaf);
        assert_eq!(back.link(), PageId(77));
        assert_eq!(back.len(), 2);
        assert_eq!(back.key(1), b"bb");
        assert_eq!(back.value(1), b"22");
        assert_eq!(back.used_bytes(), n.used_bytes());
        assert_eq!(back.to_node().entries, n.entries);
    }

    #[test]
    fn internal_roundtrip_and_route() {
        let mut n = Node::new_internal(PageId(1));
        n.entries.push((b"m".to_vec().into(), child_val(PageId(2))));
        n.entries.push((b"t".to_vec().into(), child_val(PageId(3))));
        let back = view(&n, 256);
        assert_eq!(back.route(b"a"), PageId(1));
        assert_eq!(back.route(b"m"), PageId(2));
        assert_eq!(back.route(b"p"), PageId(2));
        assert_eq!(back.route(b"t"), PageId(3));
        assert_eq!(back.route(b"z"), PageId(3));
    }

    #[test]
    fn lower_bound_finds_first_ge() {
        let v = view(&leaf(&[b"b", b"d", b"f"]), 256);
        assert_eq!(v.lower_bound(b"a"), 0);
        assert_eq!(v.lower_bound(b"b"), 0);
        assert_eq!(v.lower_bound(b"c"), 1);
        assert_eq!(v.lower_bound(b"f"), 2);
        assert_eq!(v.lower_bound(b"g"), 3);
    }

    #[test]
    fn used_bytes_matches_definition() {
        let mut n = Node::new_leaf();
        assert_eq!(n.used_bytes(), HEADER_LEN);
        n.entries
            .push((b"key".to_vec().into(), b"value".to_vec().into()));
        assert_eq!(n.used_bytes(), HEADER_LEN + ENTRY_OVERHEAD + 3 + 5);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn encode_rejects_overflow() {
        let mut n = Node::new_leaf();
        n.entries
            .push((vec![0u8; 300].into(), vec![0u8; 300].into()));
        n.encode(256);
    }

    /// Sorted distinct keys of 0..=`max_len` bytes over a small alphabet
    /// (so prefixes, the empty key and near-duplicates all occur).
    fn random_keys(rng: &mut StdRng, n: usize, max_len: usize) -> Vec<Vec<u8>> {
        let mut keys = std::collections::BTreeSet::new();
        for _ in 0..n {
            let len = rng.gen_range(0..=max_len);
            keys.insert(
                (0..len)
                    .map(|_| rng.gen_range(1..=3u8))
                    .collect::<Vec<u8>>(),
            );
        }
        keys.into_iter().collect()
    }

    /// The view must report exactly what went into the owned node, and
    /// its searches must agree with a linear scan for probes below,
    /// between, equal to and above every key.
    fn assert_view_matches(node: &Node, page_size: usize) {
        let v = view(node, page_size);
        assert_eq!(v.kind(), node.kind);
        assert_eq!(v.link(), node.link);
        assert_eq!(v.len(), node.entries.len());
        assert_eq!(v.used_bytes(), node.used_bytes());
        assert_eq!(v.to_node().entries, node.entries);
        for (i, (k, val)) in node.entries.iter().enumerate() {
            assert_eq!(v.key(i), &**k);
            assert_eq!(v.value(i), &**val);
        }

        let mut probes: Vec<Vec<u8>> = vec![Vec::new(), vec![0], vec![0xff; 6]];
        for (k, _) in &node.entries {
            probes.push(k.to_vec());
            // Just above `k`, and just below it when there is a "below".
            probes.push([&**k, &[0][..]].concat());
            if let Some((&last, head)) = k.split_last() {
                probes.push(head.to_vec());
                probes.push([head, &[last - 1, 0xff][..]].concat());
            }
        }
        for p in &probes {
            let below = node.entries.iter().filter(|(k, _)| **k < p[..]).count();
            assert_eq!(v.lower_bound(p), below, "lower_bound({p:?})");
            if node.kind == NodeKind::Internal {
                let at_or_below = node.entries.iter().filter(|(k, _)| **k <= p[..]).count();
                assert_eq!(v.child_slot(p), at_or_below, "child_slot({p:?})");
                let want = match at_or_below {
                    0 => node.link,
                    s => child_id(&node.entries[s - 1].1),
                };
                assert_eq!(v.route(p), want, "route({p:?})");
            }
        }
    }

    #[test]
    fn view_agrees_with_owned_node_on_random_nodes() {
        let mut rng = StdRng::seed_from_u64(0x12);
        for round in 0..200 {
            let n = rng.gen_range(1..=40);
            let keys = random_keys(&mut rng, n, 5);
            let mut leaf = Node::new_leaf();
            leaf.link = PageId(rng.gen_range(0..1000));
            let mut internal = Node::new_internal(PageId(1000 + round));
            for (i, k) in keys.iter().enumerate() {
                let vlen = rng.gen_range(0..9);
                let val: Vec<u8> = (0..vlen).map(|_| rng.gen()).collect();
                leaf.entries.push((k.clone().into(), val.into()));
                internal
                    .entries
                    .push((k.clone().into(), child_val(PageId(i as u64 * 7 + 2))));
            }
            assert_view_matches(&leaf, 1024);
            assert_view_matches(&internal, 1024);
        }
    }

    #[test]
    fn view_handles_boundary_nodes() {
        // An empty rightmost leaf (what `create` and a full delete leave).
        assert_view_matches(&Node::new_leaf(), 512);
        // A single entry; a zero-length key with a zero-length value.
        assert_view_matches(&leaf(&[b"only"]), 512);
        assert_view_matches(&leaf(&[b""]), 512);
        // An internal node with no separators (a root about to shrink).
        let bare = Node::new_internal(PageId(4));
        assert_view_matches(&bare, 512);
        assert_eq!(view(&bare, 512).route(b"anything"), PageId(4));
        // Two `max_record` entries fill a 512-byte page to the last byte.
        let max_record = (512 - HEADER_LEN) / 2 - ENTRY_OVERHEAD;
        let mut full = Node::new_leaf();
        full.entries
            .push((vec![1u8; 10].into(), vec![2u8; max_record - 10].into()));
        full.entries
            .push((vec![3u8; max_record].into(), Box::default()));
        assert_eq!(full.used_bytes(), 512);
        assert_view_matches(&full, 512);
    }

    fn corrupted(page: Vec<u8>) -> String {
        match NodeView::new(PID, Bytes::from(page)) {
            Err(StorageError::Corrupted(what)) => {
                assert!(what.contains("PageId(9)"), "names the page: {what}");
                what
            }
            other => panic!("expected Corrupted, got {other:?}"),
        }
    }

    #[test]
    fn malformed_pages_are_typed_errors() {
        let good = leaf(&[b"alpha", b"beta"]).encode(64).to_vec();
        assert!(NodeView::new(PID, Bytes::from(good.clone())).is_ok());

        // Truncated below the header.
        assert!(corrupted(good[..HEADER_LEN - 1].to_vec()).contains("not a node"));
        assert!(corrupted(Vec::new()).contains("not a node"));
        // Bad tag (a zeroed page included).
        let mut bad = good.clone();
        bad[0] = 7;
        assert!(corrupted(bad).contains("bad node tag 7"));
        assert!(corrupted(vec![0u8; 64]).contains("bad node tag 0"));
        // Count runs past the page: rejected outright when even empty
        // entries would not fit, otherwise where the zero padding (which
        // parses as empty entries) runs out.
        let mut bad = good.clone();
        bad[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(corrupted(bad).contains("65535 entries cannot fit"));
        let mut bad = good.clone();
        bad[2..4].copy_from_slice(&12u16.to_le_bytes());
        assert!(corrupted(bad).contains("entry 9 of 12 starts past the page end"));
        // klen overruns the page.
        let mut bad = good.clone();
        bad[HEADER_LEN..HEADER_LEN + 2].copy_from_slice(&60_000u16.to_le_bytes());
        assert!(corrupted(bad).contains("overruns the page"));
        // vlen overruns the page.
        let mut bad = good.clone();
        bad[HEADER_LEN + 2..HEADER_LEN + 4].copy_from_slice(&60u16.to_le_bytes());
        assert!(corrupted(bad).contains("overruns the page"));
        // Page cut in the middle of the second entry.
        assert!(corrupted(good[..HEADER_LEN + 14].to_vec()).contains("overruns the page"));
        // An internal node whose "child id" is not 8 bytes.
        let mut bad = good;
        bad[0] = TAG_INTERNAL;
        assert!(corrupted(bad).contains("0-byte child id"));
    }
}
