//! Encoded tuples moved as bytes: what a scan hands a component build, a
//! fold or a checkpoint, and a checkpoint hands recovery, instead of
//! round-tripping every live tuple through [`Tuple`].

use upi_btree::BTree;
use upi_storage::error::{Result, StorageError};
use upi_storage::PageId;
use upi_uncertain::tuple::encode_tuple_into;
use upi_uncertain::{MalformedTuple, Tuple, TupleView};

/// A `kind` page held bytes that are not an encoded tuple.
pub(crate) fn corrupt_record(kind: &str, page: PageId, why: MalformedTuple) -> StorageError {
    StorageError::Corrupted(format!("{kind} page {page:?}: {why}"))
}

/// The tuple stored under `key` in `kind` tree `tree`; a damaged record
/// is [`StorageError::Corrupted`] naming its leaf, not a panic.
pub(crate) fn fetch_tuple(tree: &BTree, key: &[u8], kind: &str) -> Result<Option<Tuple>> {
    match tree.get_with(key, |b| TupleView::parse(b).map(|t| t.to_tuple()))? {
        None => Ok(None),
        Some(Ok(t)) => Ok(Some(t)),
        // The descent is repeated (internal pages only) just to name the
        // leaf in the error.
        Some(Err(why)) => Err(corrupt_record(kind, tree.leaf_page_for(key)?, why)),
    }
}

/// Records copied back to back, each exactly as `encode_tuple` wrote it.
#[derive(Debug, Default)]
pub(crate) struct Records {
    bytes: Vec<u8>,
    /// `(tuple id, start, end)` of each record in `bytes`, in order.
    spans: Vec<(u64, usize, usize)>,
}

impl Records {
    /// Encode `tuples`, in order.
    pub(crate) fn from_tuples<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Records {
        let mut out = Records::default();
        tuples.into_iter().for_each(|t| out.push_tuple(t));
        out
    }

    /// Encode a tuple.
    pub(crate) fn push_tuple(&mut self, t: &Tuple) {
        let at = self.bytes.len();
        encode_tuple_into(t, &mut self.bytes);
        self.spans.push((t.id.0, at, self.bytes.len()));
    }

    /// Copy a checked record.
    pub(crate) fn push(&mut self, t: &TupleView<'_>) {
        let at = self.bytes.len();
        self.bytes.extend_from_slice(t.bytes());
        self.spans.push((t.id().0, at, self.bytes.len()));
    }

    /// Order the records by tuple id (their bytes stay where they are).
    pub(crate) fn sort_by_id(&mut self) {
        self.spans.sort_unstable_by_key(|s| s.0);
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// The tuple ids, in order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.spans.iter().map(|s| s.0)
    }

    /// Each record's bytes, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.spans.iter().map(|&(_, a, b)| &self.bytes[a..b])
    }

    /// Each record, checked. Records pushed from views cannot fail; an
    /// encoded `Tuple` fails if its fields were set to values no
    /// constructor accepts.
    pub(crate) fn views(&self) -> impl Iterator<Item = Result<TupleView<'_>>> {
        self.iter().map(|bytes| {
            TupleView::parse(bytes).map_err(|why| StorageError::Corrupted(why.to_string()))
        })
    }

    /// Every record as an owned row, in order.
    pub(crate) fn to_tuples(&self) -> Result<Vec<Tuple>> {
        self.views().map(|t| Ok(t?.to_tuple())).collect()
    }
}
