//! # upi-btree
//!
//! A from-scratch B+Tree over the [`upi_storage`] simulated storage engine.
//!
//! This is the workhorse of the UPI reproduction: the UPI heap file itself
//! ("the heap file is organized as a B+Tree indexed by {Institution (ASC)
//! and probability (DESC)}", §2 of the paper), the cutoff index, PII, all
//! secondary indexes, and the unclustered heap are each one `BTree` in one
//! storage file.
//!
//! Properties that matter for reproducing the paper:
//!
//! * **Keys and values are byte strings** compared by `memcmp`; callers use
//!   [`upi_storage::codec`] to build order-preserving composite keys.
//! * **Physical allocation order is observable.** A [`BTree::bulk_load`]
//!   lays leaves out contiguously, so range scans are sequential on the
//!   simulated disk. Random [`BTree::insert`]s split nodes onto freshly
//!   allocated (physically distant) pages, so a churned tree pays seeks on
//!   range scans — the fragmentation that motivates Fractured UPIs (§4.1).
//! * **Pages are read in place.** A descent, point lookup or cursor step
//!   searches the encoded page the buffer pool cached — keys and values
//!   are slices of it — so the host cost of a lookup is a few binary
//!   searches, not a per-entry decode. Only a page that is being rewritten
//!   is turned into an owned node. Malformed page bytes surface as
//!   [`upi_storage::StorageError::Corrupted`], never a panic.
//! * **Leaves form a singly linked chain** used by [`Cursor`] for ordered
//!   scans; structural deletes merge an underflowing node with its *right*
//!   sibling so the chain can always be repaired locally.
//!
//! ```
//! use std::sync::Arc;
//! use upi_storage::{DiskConfig, SimDisk, Store};
//! use upi_btree::BTree;
//!
//! let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 1 << 20);
//! let mut t = BTree::create(store, "demo", 4096).unwrap();
//! t.insert(b"bob", b"mit").unwrap();
//! t.insert(b"alice", b"brown").unwrap();
//! assert_eq!(t.get(b"alice").unwrap().as_deref(), Some(&b"brown"[..]));
//! let keys: Vec<_> = t.iter().unwrap().map(|e| e.unwrap().0).collect();
//! assert_eq!(keys, vec![b"alice".to_vec(), b"bob".to_vec()]);
//! ```

mod bulk;
mod cursor;
mod node;
mod tree;

pub use cursor::Cursor;
pub use tree::{BTree, TreeStats};
