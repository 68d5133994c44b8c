//! # upi — Uncertain Primary Index
//!
//! A from-scratch reproduction of **"UPI: A Primary Index for Uncertain
//! Databases"** (Hideaki Kimura, Samuel Madden, Stanley B. Zdonik,
//! PVLDB 3(1), 2010), built on a simulated-disk storage engine so that the
//! paper's disk-bound experiments are deterministic and host-independent.
//!
//! ## What a UPI is
//!
//! A **UPI** clusters the heap file itself by an *uncertain* attribute:
//! the heap is a B+Tree keyed by `{value ASC, probability DESC, tuple-id}`
//! and the **entire tuple is duplicated once per possible value** of the
//! attribute (§2, Table 2). A probabilistic threshold query (PTQ)
//! `WHERE attr = v (confidence ≥ QT)` then costs one index seek plus a
//! sequential scan that stops at the first entry below `QT`.
//!
//! The paper's refinements, all implemented here:
//!
//! * [`DiscreteUpi`] — the clustered heap plus a **cutoff index**
//!   ([`cutoff`]): alternatives with probability `< C` are moved to a
//!   compact side index holding only a pointer to the tuple's first
//!   alternative (§3.1, Algorithms 1–2).
//! * [`SecondaryIndex`] — secondary indexes whose entries carry **multiple
//!   pointers** (one per replicated copy of the tuple), queried with
//!   **Tailored Secondary Index Access** (§3.2, Algorithm 3).
//! * [`FracturedUpi`] — LSM-style maintenance (§4): an in-RAM insert
//!   buffer flushed as self-contained *fractures*, delete sets, and a
//!   sort-merge reorganization.
//! * [`ContinuousUpi`] — the continuous-attribute variant (§5): an R-Tree
//!   with 4 KB nodes whose leaves map to 64 KB heap pages clustered in
//!   hierarchical (depth-first) node order, plus the **secondary U-Tree**
//!   baseline.
//! * [`cost`] — the §6 cost formulas, as free functions over
//!   [`DeviceCoeffs`]: fracture overhead and cutoff-pointer cost with
//!   *saturation* modelled by a generalized logistic function.
//! * [`Pii`] — the Probabilistic Inverted Index baseline (Singh et al.,
//!   ICDE'07) over an [`UnclusteredHeap`], the comparison system of the
//!   paper's evaluation.
//!
//! ## Measuring
//!
//! Every structure performs I/O through a [`upi_storage::Store`]; query
//! "runtime" is the simulated clock advance, reproducing the paper's
//! sequential-vs-random I/O trade-offs exactly (the device model is
//! described in the [`upi_storage`] crate docs).

pub mod bound;
pub mod continuous;
pub mod cost;
pub mod cutoff;
pub mod durability;
pub mod exec;
pub mod fractured;
pub mod heap;
mod keys;
pub mod maintenance;
pub mod pii;
mod records;
pub mod secondary;
pub mod shard;
pub mod table;
pub mod tuning;
pub mod upi;

pub use bound::ConfidenceBound;
pub use continuous::{ContinuousConfig, ContinuousSecondary, ContinuousUpi, SecondaryUTree};
pub use cost::DeviceCoeffs;
pub use cutoff::{CutoffIndex, CutoffRangeRun};
pub use durability::{RecoveryInfo, WalRecord};
pub use exec::{group_count, sort_results, CursorStats, ExecError, PtqResult, Skip};
pub use fractured::{
    Chain, ChainPointRun, ChainRangeRun, ChainSecondaryRun, FracturedConfig, FracturedUpi,
    TopKWatermark,
};
pub use heap::{HeapScanRun, UnclusteredHeap};
pub use maintenance::{
    select_compaction, CompactionPlan, CompactionStep, MaintenanceDecision, MaintenancePolicy,
};
pub use pii::{Pii, PiiRun};
pub use secondary::{PointerHistogram, SecBuild, SecEntry, SecScanRun, SecondaryIndex};
pub use shard::ShardLayout;
pub use table::{TableLayout, UncertainTable};
pub use tuning::{CutoffChoice, TuningAdvisor, WorkloadProfile};
pub use upi::{
    grid_confidence, DiscreteUpi, DistinctScan, HeapRun, PointRun, RangeRun, SecondaryRun,
    UpiConfig,
};
