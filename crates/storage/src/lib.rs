//! # upi-storage
//!
//! Paged storage engine with a **simulated disk** used by the UPI
//! (Uncertain Primary Index) reproduction.
//!
//! The UPI paper's experiments (Kimura, Madden, Zdonik, VLDB 2010) were run
//! on BerkeleyDB over a 10k RPM hard drive with a cold buffer cache; every
//! reported number is disk-bound. What separates a primary index from a
//! secondary index in that setting is purely the *pattern* of I/O: long
//! sequential runs versus per-tuple random seeks. This crate reproduces that
//! mechanism deterministically:
//!
//! * [`SimDisk`] is a byte-addressed simulated device. Pages are allocated at
//!   physical offsets; reading or writing a page whose offset differs from
//!   the current head position charges a seek whose cost depends on the
//!   distance moved (short forward hops degrade gracefully into
//!   "read-through" cost, which is what produces the *saturation* behaviour
//!   modelled in §6.3 of the paper).
//! * [`BufferPool`] is a write-back LRU page cache layered over the disk.
//!   Flushing writes dirty pages in physical-offset order (elevator style),
//!   so bulk loads cost sequential-write time. It detects sequential read
//!   runs (two adjacent misses) and prefetches their continuation, tracks
//!   **several runs concurrently** so k-way merges that interleave
//!   component files keep every run streaming, and takes a run-length
//!   estimate with the read that opens a run
//!   ([`BufferPool::get_run`]), so that run's read-ahead arms on its
//!   *first* miss with a run-length-sized window.
//! * [`codec`] provides order-preserving byte encodings for composite index
//!   keys such as `(value ASC, probability DESC, tuple-id ASC)`.
//!
//! Simulated elapsed milliseconds ([`SimDisk::clock_ms`]) are the quantity
//! reported by all benchmarks in this repository.
//!
//! ```
//! use upi_storage::{DiskConfig, SimDisk, BufferPool, Store};
//! use std::sync::Arc;
//!
//! let disk = Arc::new(SimDisk::new(DiskConfig::default()));
//! let store = Store::new(disk.clone(), 8 << 20);
//! let file = store.disk.create_file("demo", 8192);
//! let page = store.disk.alloc_page(file).unwrap();
//! store.pool.put(page, bytes::Bytes::from(vec![0u8; 8192]));
//! store.pool.flush_all();
//! assert!(disk.clock_ms() > 0.0);
//! ```

pub mod codec;
pub mod config;
pub mod disk;
pub mod error;
pub mod fault;
pub mod file;
pub mod obs;
pub mod page;
pub mod pool;
pub mod stats;
pub mod wal;

pub use config::DiskConfig;
pub use disk::SimDisk;
pub use error::StorageError;
pub use fault::{FaultCounters, FaultPlan};
pub use file::FileId;
pub use obs::QueryId;
pub use page::{PageId, INVALID_PAGE};
pub use pool::{AttributedGuard, BufferPool, BulkScanGuard, PoolCounters};
pub use stats::IoStats;
pub use wal::{Lsn, Wal, WalCounters};

use std::sync::Arc;

/// A cloneable handle bundling the simulated disk with a shared buffer pool.
///
/// Every index structure in the workspace performs I/O exclusively through a
/// `Store`, so a single simulated clock and a single page cache govern an
/// entire experiment, exactly like one machine running one database.
#[derive(Clone)]
pub struct Store {
    /// The simulated device (cost accounting + page contents).
    pub disk: Arc<SimDisk>,
    /// Write-back LRU page cache in front of `disk`.
    pub pool: Arc<BufferPool>,
}

impl Store {
    /// Create a store with a buffer pool of `pool_capacity_bytes`.
    pub fn new(disk: Arc<SimDisk>, pool_capacity_bytes: usize) -> Self {
        let pool = Arc::new(BufferPool::new(disk.clone(), pool_capacity_bytes));
        Store { disk, pool }
    }

    /// Simulate a machine restart / cold cache: flush and drop every cached
    /// page, close all files (the next access to each file re-charges
    /// `Cost_init`), and park the disk head at offset zero.
    ///
    /// The paper runs every query "with a cold database and buffer cache";
    /// benchmarks call this between runs.
    pub fn go_cold(&self) {
        self.pool.clear();
        self.disk.close_all_files();
        self.disk.reset_head();
    }

    /// Free a page, first discarding any pooled frame for it. Structure
    /// code must free through this (not `disk.free_page` directly):
    /// otherwise a stale dirty frame for the freed page sits in the pool
    /// until eviction, whose write-back then fails and reads as a
    /// spurious [`PoolCounters::flush_errors`] data-loss signal.
    pub fn free_page(&self, pid: PageId) -> error::Result<()> {
        self.pool.discard(pid);
        self.disk.free_page(pid)
    }

    /// Free every live page of a file (see [`free_page`](Self::free_page)
    /// for why the pooled frames must be discarded first).
    pub fn free_file_pages(&self, file: FileId) -> error::Result<()> {
        for pid in self.disk.file_pages(file)? {
            self.pool.discard(pid);
        }
        self.disk.free_file_pages(file)
    }

    /// Simulate a crash + reboot: every cached frame is lost **without**
    /// being flushed (volatile memory), degraded-mode poisoning is
    /// lifted, files are closed (the next touch re-charges `Cost_init`)
    /// and the head parks at zero. Unlike [`go_cold`](Self::go_cold)
    /// nothing is written — this is the state recovery starts from.
    pub fn reboot(&self) {
        self.pool.drop_all();
        self.disk.clear_fault_plan();
        self.disk.close_all_files();
        self.disk.reset_head();
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("clock_ms", &self.disk.clock_ms())
            .finish()
    }
}
