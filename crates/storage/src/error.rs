//! Error type for the storage layer.

use crate::file::FileId;
use crate::page::PageId;

/// Errors raised by the storage layer.
///
/// Callers in the index crates generally treat these as fatal programming
/// errors (a dangling page id is a bug, not an environmental condition), but
/// they are surfaced as `Result`s so that fuzzing and property tests can
/// observe them instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The page id does not exist on the device.
    UnknownPage(PageId),
    /// The page was freed and not reallocated.
    FreedPage(PageId),
    /// The file id does not exist.
    UnknownFile(FileId),
    /// A write supplied a buffer whose length differs from the file's page size.
    PageSizeMismatch {
        /// Page being written.
        page: PageId,
        /// The file's configured page size.
        expected: usize,
        /// Length of the supplied buffer.
        got: usize,
    },
    /// A record is too large to ever fit in a node/page of the given size.
    RecordTooLarge {
        /// Encoded record length.
        len: usize,
        /// Hard per-page limit.
        max: usize,
    },
    /// The device has crashed (a [`FaultPlan`](crate::fault::FaultPlan)
    /// kill point fired). Every subsequent operation fails with this until
    /// the plan is cleared — the simulated machine is off.
    Crashed,
    /// A transient device fault (injected): the operation failed but an
    /// immediate retry may succeed. The payload names the operation.
    Transient(&'static str),
    /// The store is in read-only degraded mode: the WAL could not advance
    /// past a persistent fault, so mutations are rejected rather than
    /// silently losing durability. Reads still work.
    ReadOnly(String),
    /// Durable state failed validation during recovery (bad checksum,
    /// truncated record, impossible length).
    Corrupted(String),
    /// A DML statement handed over a tuple its table cannot store (wrong
    /// arity or field kind, existence outside `(0, 1]`); nothing was
    /// logged or applied.
    InvalidTuple(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::UnknownPage(p) => write!(f, "unknown page {p:?}"),
            StorageError::FreedPage(p) => write!(f, "access to freed page {p:?}"),
            StorageError::UnknownFile(id) => write!(f, "unknown file {id:?}"),
            StorageError::PageSizeMismatch {
                page,
                expected,
                got,
            } => write!(
                f,
                "page {page:?}: buffer length {got} does not match page size {expected}"
            ),
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds page capacity {max}")
            }
            StorageError::Crashed => write!(f, "device crashed (fault-plan kill point)"),
            StorageError::Transient(op) => write!(f, "transient device fault during {op}"),
            StorageError::ReadOnly(reason) => {
                write!(f, "store is read-only (degraded): {reason}")
            }
            StorageError::Corrupted(what) => write!(f, "corrupted durable state: {what}"),
            StorageError::InvalidTuple(why) => write!(f, "invalid tuple: {why}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias used across storage-facing crates.
pub type Result<T> = std::result::Result<T, StorageError>;
