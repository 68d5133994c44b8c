//! On-page R-Tree node encoding.
//!
//! Fixed-size entries keep the layout trivial:
//!
//! ```text
//! header: [0] tag (1=leaf, 2=internal), [2..4] count u16, [4..16] reserved
//! leaf entry     (72 B): rect 4×f64 | tid u64 | aux 4×f64
//! internal entry (40 B): rect 4×f64 | child page id u64
//! ```
//!
//! `aux` carries the constrained-Gaussian parameters `(cx, cy, sigma,
//! bound)` of the entry's location distribution — the per-entry
//! probabilistic metadata a U-Tree stores so that threshold pruning can run
//! without touching the heap.
//!
//! A page is **read** through a [`PageView`]: the entries are decoded
//! straight off the pooled page bytes, one at a time, and a leaf entry is
//! materialised only once its rectangle passed the caller's test.
//! [`PageView::parse`] is the only parser of page bytes; anything malformed
//! surfaces there as [`StorageError::Corrupted`]. The owned [`RNode`] is
//! the **builder** for a page about to be rewritten (insert, split, bulk
//! load) and nothing else.

use bytes::Bytes;
use upi_storage::error::{Result, StorageError};
use upi_storage::PageId;

use crate::geom::Rect;

pub(crate) const HEADER_LEN: usize = 16;
pub(crate) const LEAF_ENTRY_LEN: usize = 32 + 8 + 32;
pub(crate) const INTERNAL_ENTRY_LEN: usize = 32 + 8;

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// A leaf entry: one alternative location record of one tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEntry {
    /// MBR of the uncertainty region (the boundary circle's bbox).
    pub rect: Rect,
    /// Tuple id this entry refers to.
    pub tid: u64,
    /// Distribution parameters `(cx, cy, sigma, bound)`.
    pub aux: [f64; 4],
}

/// Owned R-Tree node: the builder for a page being rewritten (see module
/// docs).
#[derive(Debug, Clone)]
pub(crate) enum RNode {
    Leaf(Vec<LeafEntry>),
    Internal(Vec<(Rect, PageId)>),
}

impl RNode {
    pub fn len(&self) -> usize {
        match self {
            RNode::Leaf(v) => v.len(),
            RNode::Internal(v) => v.len(),
        }
    }

    /// MBR of every entry in the node.
    pub fn mbr(&self) -> Rect {
        let mut r = Rect::empty();
        match self {
            RNode::Leaf(v) => {
                for e in v {
                    r = r.union(&e.rect);
                }
            }
            RNode::Internal(v) => {
                for (er, _) in v {
                    r = r.union(er);
                }
            }
        }
        r
    }

    pub fn encode(&self, page_size: usize) -> Bytes {
        let mut buf = vec![0u8; page_size];
        let count = self.len();
        match self {
            RNode::Leaf(entries) => {
                assert!(
                    HEADER_LEN + count * LEAF_ENTRY_LEN <= page_size,
                    "leaf overflow: {count} entries"
                );
                buf[0] = TAG_LEAF;
                buf[2..4].copy_from_slice(&(count as u16).to_le_bytes());
                let mut at = HEADER_LEN;
                for e in entries {
                    write_rect(&mut buf, &mut at, &e.rect);
                    buf[at..at + 8].copy_from_slice(&e.tid.to_le_bytes());
                    at += 8;
                    for v in e.aux {
                        buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
                        at += 8;
                    }
                }
            }
            RNode::Internal(entries) => {
                assert!(
                    HEADER_LEN + count * INTERNAL_ENTRY_LEN <= page_size,
                    "internal overflow: {count} entries"
                );
                buf[0] = TAG_INTERNAL;
                buf[2..4].copy_from_slice(&(count as u16).to_le_bytes());
                let mut at = HEADER_LEN;
                for (r, child) in entries {
                    write_rect(&mut buf, &mut at, r);
                    buf[at..at + 8].copy_from_slice(&child.0.to_le_bytes());
                    at += 8;
                }
            }
        }
        Bytes::from(buf)
    }
}

/// A validated, read-only view of one encoded page (see module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum PageView<'a> {
    Leaf(LeafView<'a>),
    Internal(InternalView<'a>),
}

/// The entry bytes of a leaf page: exactly `count × LEAF_ENTRY_LEN`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafView<'a>(&'a [u8]);

/// The entry bytes of an internal page: exactly
/// `count × INTERNAL_ENTRY_LEN`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InternalView<'a>(&'a [u8]);

impl<'a> PageView<'a> {
    /// Validate the header of page `pid` and bound its entries; the page
    /// id only names the page in the error.
    pub fn parse(pid: PageId, data: &'a [u8]) -> Result<PageView<'a>> {
        let corrupt =
            |what: String| StorageError::Corrupted(format!("r-tree page {pid:?}: {what}"));
        if data.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "{} bytes, shorter than the header",
                data.len()
            )));
        }
        let count = u16::from_le_bytes([data[2], data[3]]) as usize;
        let leaf = match data[0] {
            TAG_LEAF => true,
            TAG_INTERNAL => false,
            t => return Err(corrupt(format!("bad node tag {t}"))),
        };
        let entry_len = if leaf {
            LEAF_ENTRY_LEN
        } else {
            INTERNAL_ENTRY_LEN
        };
        let entries = data
            .get(HEADER_LEN..HEADER_LEN + count * entry_len)
            .ok_or_else(|| {
                corrupt(format!(
                    "{count} entries of {entry_len} bytes overrun the {}-byte page",
                    data.len()
                ))
            })?;
        Ok(if leaf {
            PageView::Leaf(LeafView(entries))
        } else {
            PageView::Internal(InternalView(entries))
        })
    }

    /// Copy the page into an owned builder node.
    pub fn to_node(self) -> RNode {
        match self {
            PageView::Leaf(v) => RNode::Leaf(v.entries_where(|_| true).collect()),
            PageView::Internal(v) => RNode::Internal(v.children().collect()),
        }
    }
}

impl<'a> LeafView<'a> {
    /// The entries whose rectangle passes `hit`, in page order; `tid` and
    /// `aux` are read only for those.
    pub fn entries_where<'h>(
        self,
        hit: impl Fn(&Rect) -> bool + 'h,
    ) -> impl Iterator<Item = LeafEntry> + 'h
    where
        'a: 'h,
    {
        self.0.chunks_exact(LEAF_ENTRY_LEN).filter_map(move |e| {
            let rect = read_rect(e);
            hit(&rect).then(|| LeafEntry {
                rect,
                tid: read_u64(e, 32),
                aux: [
                    read_f64(e, 40),
                    read_f64(e, 48),
                    read_f64(e, 56),
                    read_f64(e, 64),
                ],
            })
        })
    }
}

impl<'a> InternalView<'a> {
    /// `(child MBR, child page)` pairs in page order.
    pub fn children(self) -> impl Iterator<Item = (Rect, PageId)> + 'a {
        self.0
            .chunks_exact(INTERNAL_ENTRY_LEN)
            .map(|e| (read_rect(e), PageId(read_u64(e, 32))))
    }
}

fn write_rect(buf: &mut [u8], at: &mut usize, r: &Rect) {
    for v in [r.min_x, r.min_y, r.max_x, r.max_y] {
        buf[*at..*at + 8].copy_from_slice(&v.to_le_bytes());
        *at += 8;
    }
}

fn read_u64(entry: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(entry[at..at + 8].try_into().expect("8-byte slice"))
}

fn read_f64(entry: &[u8], at: usize) -> f64 {
    f64::from_bits(read_u64(entry, at))
}

/// The rectangle every entry starts with.
fn read_rect(entry: &[u8]) -> Rect {
    Rect {
        min_x: read_f64(entry, 0),
        min_y: read_f64(entry, 8),
        max_x: read_f64(entry, 16),
        max_y: read_f64(entry, 24),
    }
}

/// Maximum leaf entries for a page size.
pub(crate) fn leaf_capacity(page_size: usize) -> usize {
    (page_size - HEADER_LEN) / LEAF_ENTRY_LEN
}

/// Maximum internal entries for a page size.
pub(crate) fn internal_capacity(page_size: usize) -> usize {
    (page_size - HEADER_LEN) / INTERNAL_ENTRY_LEN
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(page: &[u8]) -> RNode {
        PageView::parse(PageId(0), page).unwrap().to_node()
    }

    #[test]
    fn leaf_roundtrip() {
        let entries = vec![
            LeafEntry {
                rect: Rect::new(0.0, 1.0, 2.0, 3.0),
                tid: 42,
                aux: [1.0, 2.0, 3.0, 4.0],
            },
            LeafEntry {
                rect: Rect::new(-5.0, -5.0, 5.0, 5.0),
                tid: 7,
                aux: [0.0, 0.0, 10.0, 50.0],
            },
        ];
        let n = RNode::Leaf(entries.clone());
        match decode(&n.encode(4096)) {
            RNode::Leaf(got) => assert_eq!(got, entries),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn internal_roundtrip() {
        let entries = vec![
            (Rect::new(0.0, 0.0, 1.0, 1.0), PageId(3)),
            (Rect::new(2.0, 2.0, 3.0, 3.0), PageId(9)),
        ];
        let n = RNode::Internal(entries.clone());
        match decode(&n.encode(4096)) {
            RNode::Internal(got) => assert_eq!(got, entries),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn capacities_for_4k_pages() {
        // The paper's 4 KB node pages: ~56 leaf entries, ~102 fan-out.
        assert_eq!(leaf_capacity(4096), 56);
        assert_eq!(internal_capacity(4096), 102);
    }

    #[test]
    fn node_mbr_covers_entries() {
        let n = RNode::Leaf(vec![
            LeafEntry {
                rect: Rect::new(0.0, 0.0, 1.0, 1.0),
                tid: 1,
                aux: [0.0; 4],
            },
            LeafEntry {
                rect: Rect::new(5.0, -2.0, 6.0, 0.5),
                tid: 2,
                aux: [0.0; 4],
            },
        ]);
        assert_eq!(n.mbr(), Rect::new(0.0, -2.0, 6.0, 1.0));
    }

    /// Deterministic pseudo-random f64 stream.
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn random_rect(unif: &mut impl FnMut() -> f64) -> Rect {
        let (x, y) = (unif() * 1e4 - 5e3, unif() * 1e4 - 5e3);
        Rect::new(x, y, x + unif() * 100.0, y + unif() * 100.0)
    }

    #[test]
    fn view_reads_what_the_builder_wrote() {
        let mut unif = rng(0xA11CE);
        let page_size = 4096;
        for n in [0, 1, 7, leaf_capacity(page_size)] {
            let entries: Vec<LeafEntry> = (0..n as u64)
                .map(|tid| LeafEntry {
                    rect: random_rect(&mut unif),
                    tid: tid * 31 + 5,
                    aux: [unif(), -unif(), unif() * 1e3, unif() * 1e-3],
                })
                .collect();
            let node = RNode::Leaf(entries.clone());
            let page = node.encode(page_size);
            let view = PageView::parse(PageId(9), &page).unwrap();
            let PageView::Leaf(leaf) = view else {
                panic!("leaf page parsed as internal")
            };
            assert_eq!(leaf.entries_where(|_| true).collect::<Vec<_>>(), entries);
            // Only entries whose rectangle passes the test are produced.
            let want: Vec<LeafEntry> = entries
                .iter()
                .filter(|e| e.rect.min_x > 0.0)
                .copied()
                .collect();
            assert_eq!(
                leaf.entries_where(|r| r.min_x > 0.0).collect::<Vec<_>>(),
                want
            );
            assert!(matches!(view.to_node(), RNode::Leaf(got) if got == entries));
        }
        for n in [0, 1, 7, internal_capacity(page_size)] {
            let children: Vec<(Rect, PageId)> = (0..n as u64)
                .map(|i| (random_rect(&mut unif), PageId(i * 17 + 3)))
                .collect();
            let node = RNode::Internal(children.clone());
            let page = node.encode(page_size);
            let view = PageView::parse(PageId(9), &page).unwrap();
            let PageView::Internal(internal) = view else {
                panic!("internal page parsed as leaf")
            };
            assert_eq!(internal.children().collect::<Vec<_>>(), children);
            assert!(matches!(view.to_node(), RNode::Internal(got) if got == children));
        }
    }

    #[test]
    fn malformed_pages_are_corrupted_errors() {
        let corrupted = |page: &[u8]| match PageView::parse(PageId(77), page) {
            Err(StorageError::Corrupted(what)) => {
                assert!(what.contains("77"), "error must name the page: {what}");
            }
            other => panic!("expected Corrupted, got {other:?}"),
        };
        let leaf = RNode::Leaf(vec![
            LeafEntry {
                rect: Rect::new(0.0, 0.0, 1.0, 1.0),
                tid: 1,
                aux: [0.5, 0.5, 0.1, 0.5],
            };
            3
        ])
        .encode(4096);
        // Truncated: below the header, and below the entries it declares.
        corrupted(&leaf[..0]);
        corrupted(&leaf[..HEADER_LEN - 1]);
        corrupted(&leaf[..HEADER_LEN + 3 * LEAF_ENTRY_LEN - 1]);
        assert!(PageView::parse(PageId(77), &leaf[..HEADER_LEN + 3 * LEAF_ENTRY_LEN]).is_ok());
        // Bad tag (0 is what a never-written, zero-filled page carries).
        for tag in [0u8, 3, 0xFF] {
            let mut page = leaf.to_vec();
            page[0] = tag;
            corrupted(&page);
        }
        // Entry count overrunning the page, for both kinds.
        let mut page = leaf.to_vec();
        page[2..4].copy_from_slice(&(leaf_capacity(4096) as u16 + 1).to_le_bytes());
        corrupted(&page);
        page[0] = TAG_INTERNAL;
        page[2..4].copy_from_slice(&(internal_capacity(4096) as u16 + 1).to_le_bytes());
        corrupted(&page);
        page[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
        corrupted(&page);
    }
}
