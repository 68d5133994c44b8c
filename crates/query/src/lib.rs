//! # upi-query — cost-based access-path planning for PTQs
//!
//! The paper's central argument is that the *choice of access path* —
//! clustered UPI heap run vs. cutoff-index merge vs. tailored secondary
//! access vs. the PII baseline (Singh et al., ICDE'07) — dominates the
//! cost of a probabilistic threshold query, and that the §6 cost models
//! make that choice analytically. This crate closes the loop: it turns a
//! *logical* query description into the cheapest *physical* plan over
//! whatever index structures exist, and executes it through one streaming
//! engine.
//!
//! ## The four layers
//!
//! 0. **[`UncertainDb`]** — the planner-first session facade: owns an
//!    `upi::UncertainTable`, builds the [`Catalog`] from its live
//!    structures (buffer pool included) in an internal registration
//!    step, and routes *every* query — including the classic
//!    `ptq`/`ptq_range`/`ptq_secondary`/`top_k` shapes — through
//!    `plan()` → streaming execution. The table type itself has no
//!    query methods, so nothing can bypass the cost models.
//! 1. **[`PtqQuery`]** — the logical query: a point, range, or circle
//!    predicate, a confidence threshold `QT`, and optional top-k,
//!    group-count, and projection clauses. Queries 1–5 of the paper's
//!    evaluation are all expressible.
//! 2. **The planner** ([`PtqQuery::plan`]) — enumerates every *candidate*
//!    access path the [`Catalog`] supports for the predicate, prices each
//!    through the catalog's **self-calibrating [`CostModel`]** (the §6
//!    formulas over `upi::DeviceCoeffs` plus per-path-kind scales refit
//!    from observed executions — see [`cost`]) fed by **live
//!    statistics** (tree heights, live bytes, leaf counts, the §6.1
//!    probability histograms, per-value pointer-region histograms,
//!    fracture counts), and returns a [`PhysicalPlan`] whose
//!    [`explain`](PhysicalPlan::explain) rendering shows the operator
//!    tree, raw vs. calibrated cost, and the full ranked candidate
//!    table. [`UncertainDb`] closes the loop automatically: each
//!    executed query records an `(estimated, observed)` sample and
//!    [`UncertainDb::recalibrate`] refits.
//! 3. **The executor** ([`PhysicalPlan::execute`]) — iterator-based
//!    streaming operators (`ChainMerge` over a clustered chain's
//!    components, `PiiProbe`, `HeapScan`, `Filter`, `TopK`,
//!    `GroupCount`, `Project`) over the streaming cursors the index
//!    crates expose (`upi::Chain::{point_run, range_run, secondary_run}`
//!    — a plain UPI is a chain of one component, a fractured UPI its
//!    main component plus fractures, delete sets and insert buffer —
//!    `Pii::matching_run`, `UnclusteredHeap::scan_run`). A top-k point
//!    probe streams **confidence-ordered**, so it terminates the source
//!    — and its I/O — after k rows (the merge also maintains a running
//!    k-th-confidence *watermark* that stops each component's cutoff
//!    scan once its next candidate cannot qualify); any other point
//!    probe runs Algorithm 2 per component. Range and secondary probes
//!    stream page-at-a-time through the buffer pool (whose sequential
//!    read-ahead keeps clustered runs sequential even under interleaved
//!    access). Run-shaped candidates carry prefetch hints — one
//!    `AccessHint` per component run — which the executor arms before
//!    opening the source; the pool then starts read-ahead on each run's
//!    *first* cold miss with a run-length-sized window. Only the R-Tree
//!    circle paths delegate to batch index calls, feeding their rows
//!    through the same sink operators.
//!
//! ## Plan enumeration
//!
//! For an equality predicate on attribute `a` with threshold `QT`, the
//! candidates are:
//!
//! | path | requires | cost model |
//! |---|---|---|
//! | `UpiHeap` | UPI clustered on `a` | §6.3 `Cost_cut` (heap run + cutoff merge when `QT < C`) |
//! | `UpiHeap`, labelled `FracturedProbe` | fractured UPI on `a` | §6.2 `Cost_frac` over `N_frac + 1` components |
//! | `UpiSecondary` (tailored / plain), labelled `FracturedSecondary` on a fractured UPI | secondary index on `a` | opens per component + pointer fetch over the heap span the index's region histogram measures (tailored) or the full heap (plain) |
//! | `PiiProbe` | PII on `a` + unclustered heap | opens + `f(x)` over the heap (the bitmap-scan saturation of §6.3) |
//! | `ContinuousSecondaryProbe` | segment index over a continuous UPI | `f(x)` with fetches collapsed by spatial correlation |
//! | `HeapScan` / `UpiFullScan` | an unclustered heap / a plain UPI to scan | `Cost_init + T_read · S_table` |
//!
//! Range predicates swap the probe paths for `UpiRange` (labelled
//! `FracturedRange` on a fractured UPI) / `PiiRange` (selectivity from
//! the value histograms); circle
//! predicates compare the continuous UPI's clustered read against the
//! secondary U-Tree's per-candidate fetch, with selectivity from the
//! R-Tree bounding box.
//!
//! Every estimate is in **simulated-disk milliseconds**, the same unit the
//! benchmarks measure, so `planner_vs_forced` can directly check the
//! planner's choice against ground truth.
//!
//! ## Compatibility
//!
//! The pre-planner helpers (`group_count`, `top_k`, `PtqResult`) remain in
//! `upi::exec` and are re-exported here unchanged.

pub mod catalog;
pub mod cost;
pub mod error;
pub mod exec;
pub mod metrics;
pub mod obs;
pub mod plan;
pub mod planner;
pub mod query;
pub mod session;
pub mod sharded;

pub use catalog::Catalog;
pub use cost::{CalibrationStore, CostModel, PathCost, PathKind, RefitOutcome};
pub use error::{PlanError, QueryError};
pub use exec::QueryOutput;
pub use metrics::{KindSnapshot, Log2Histogram, MetricsRegistry, MetricsSnapshot};
pub use obs::{QueryTrace, TraceSpan};
pub use plan::{AccessPath, CandidatePlan, PhysicalPlan};
pub use query::{Predicate, PtqQuery};
pub use session::{MaintenanceReport, MaintenanceSummary, UncertainDb};
pub use sharded::ShardedDb;

// Re-exported for compatibility with pre-planner code paths.
pub use upi::exec::{group_count, PtqResult};
