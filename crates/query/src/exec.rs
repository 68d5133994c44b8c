//! The streaming executor.
//!
//! Rows flow as `Iterator<Item = Result<PtqResult, QueryError>>` from a
//! source operator into the sink pipeline (`Filter` is fused into every
//! source; `TopK` and `GroupCount` run at the sink). Every
//! discrete access path is a true streaming cursor over the B+Tree leaf
//! chains: one clustered family over a chain of components
//! (`upi::Chain` — a plain UPI is a chain of one), plus `PiiProbe` and
//! the two full scans. A clustered top-k point probe streams
//! **confidence-ordered**, so the top-k sink stops pulling — and
//! therefore stops *reading* — after k rows. Only the R-Tree circle
//! paths remain batch, delegating to the owning index structure and
//! feeding rows through the same sinks.
//!
//! Every execution is observed: the concrete [`SourceOp`] wrapper keeps
//! per-operator [`CursorStats`], device time is attributed to a
//! [`QueryId`] via the pool's scoped attribution
//! guard, and the harvested span tree lands on
//! [`QueryOutput::trace`].

use upi::exec::group_count;
use upi::{
    Chain, ChainPointRun, ChainRangeRun, ChainSecondaryRun, CursorStats, DiscreteUpi, HeapScanRun,
    Pii, PtqResult, UnclusteredHeap,
};
use upi_storage::codec::{dequantize_prob, quantize_prob};
use upi_storage::error::Result as StorageResult;
use upi_storage::{IoStats, PoolCounters, QueryId};
use upi_uncertain::Tuple;

use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::obs::{QueryTrace, TraceSpan};
use crate::plan::{AccessPath, PhysicalPlan};
use crate::query::{Predicate, PtqQuery};

/// The answer of an executed plan.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Qualifying rows, descending confidence then ascending tuple id.
    /// Empty when the query aggregates (`group_count`).
    pub rows: Vec<PtqResult>,
    /// `(group value, count)` pairs, ascending, when the query groups.
    pub groups: Option<Vec<(u64, u64)>>,
    /// Buffer-pool counters attributed to this execution, when the
    /// catalog registered a pool (`Catalog::with_pool`). Feed back into
    /// [`PhysicalPlan::explain_with_io`] to render the plan with its
    /// measured page traffic (the demand-miss / read-ahead split is on
    /// the counters: `demand_pages()` / `sequential_pages()`).
    pub io: Option<PoolCounters>,
    /// Simulated device time attributed to this execution (seek +
    /// transfer + open milliseconds), when the catalog registered a pool.
    /// Measured on the **per-query attribution slot** — concurrent
    /// queries on one pool each observe only their own I/O. This is the
    /// observed side of cost-model calibration: the same quantity the
    /// benchmarks call "measured runtime", per query.
    pub device: Option<IoStats>,
    /// Wall-clock-shaped latency of this query in simulated device
    /// milliseconds. On a single store this equals `device.total_ms()`;
    /// on a sharded scatter it is the **max** over the per-shard
    /// attributed windows — shards run on independent devices in
    /// parallel, so the slowest shard bounds the query while `device`
    /// keeps the per-device **sum** for calibration and attribution.
    pub latency_ms: Option<f64>,
    /// The executed span tree: per-operator rows / decodes / suppressed /
    /// pointer fetches, plus attributed pages and device ms on the source
    /// root. Always populated by `execute` (instrumentation is always
    /// on); `None` only on hand-built outputs.
    pub trace: Option<QueryTrace>,
    /// `Some(reason)` when the store was in read-only degraded mode at
    /// the end of this execution (a persistent device fault defeated
    /// write-back retry, or the WAL could not advance). Set by the
    /// session layer, which knows the pool.
    pub degraded: Option<String>,
}

impl QueryOutput {
    /// Measured simulated milliseconds of this execution, if the catalog
    /// registered a pool.
    pub fn observed_ms(&self) -> Option<f64> {
        self.device.as_ref().map(|d| d.total_ms())
    }
    /// Row count (or number of groups for aggregates).
    pub fn len(&self) -> usize {
        match &self.groups {
            Some(g) => g.len(),
            None => self.rows.len(),
        }
    }

    /// True when nothing qualified.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Warning line when write-back trouble touched this query —
    /// surfaced here (and in `explain_analyze`) so durability incidents
    /// are visible at the query level, not only in store-wide counters.
    /// Distinguishes the three severities: degraded read-only mode
    /// (persistent fault), genuine flush failures (possible data loss),
    /// and transient faults fully absorbed by retry (no loss).
    pub fn flush_warning(&self) -> Option<String> {
        if let Some(reason) = &self.degraded {
            return Some(format!(
                "WARNING: store degraded to read-only — {reason}; writes are rejected \
                 until recovery"
            ));
        }
        match &self.io {
            Some(io) if io.flush_errors > 0 => Some(format!(
                "WARNING: {} eviction write-back failure(s) during this query; \
                 evicted dirty pages may not be durable",
                io.flush_errors
            )),
            Some(io) if io.flush_retries > 0 => Some(format!(
                "WARNING: {} transient write-back fault(s) during this query, \
                 all absorbed by retry; no durability was lost",
                io.flush_retries
            )),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming source operators
// ---------------------------------------------------------------------------

/// `PiiProbe` — streams the inverted list, then fetches qualifying tuples
/// from the unclustered heap in tid (bitmap) order, lazily.
pub struct PiiProbe<'a> {
    heap: &'a UnclusteredHeap,
    pending: std::vec::IntoIter<(u64, f64)>,
    /// Inverted-list matches read at open (the list is compact and eager).
    list_rows: u64,
    stats: CursorStats,
}

impl<'a> PiiProbe<'a> {
    /// Open over `pii` + `heap` for a point PTQ `(value, qt)`.
    pub fn open(
        pii: &'a Pii,
        heap: &'a UnclusteredHeap,
        value: u64,
        qt: f64,
    ) -> StorageResult<PiiProbe<'a>> {
        let mut matches: Vec<(u64, f64)> = Vec::new();
        for m in pii.matching_run(value, qt)? {
            matches.push(m?);
        }
        matches.sort_unstable_by_key(|&(tid, _)| tid);
        Ok(PiiProbe {
            heap,
            list_rows: matches.len() as u64,
            pending: matches.into_iter(),
            stats: CursorStats::default(),
        })
    }
}

impl Iterator for PiiProbe<'_> {
    type Item = Result<PtqResult, QueryError>;
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (tid, confidence) = self.pending.next()?;
            self.stats.pointer_fetches += 1;
            match self.heap.get(upi_uncertain::TupleId(tid)) {
                Ok(Some(tuple)) => {
                    self.stats.rows += 1;
                    return Some(Ok(PtqResult { tuple, confidence }));
                }
                Ok(None) => {
                    // Tuple deleted under the index.
                    self.stats.suppressed += 1;
                    continue;
                }
                Err(e) => return Some(Err(e.into())),
            }
        }
    }
}

/// Confidence of `tuple` for a discrete predicate, on the quantized grid
/// the index keys use (so scans agree bit-for-bit with index paths).
fn scan_confidence(tuple: &Tuple, pred: &Predicate) -> f64 {
    let q = |p: f64| dequantize_prob(quantize_prob(p));
    match *pred {
        Predicate::Eq { attr, value } => q(tuple.confidence_eq(attr, value)),
        Predicate::Range { attr, lo, hi } => tuple
            .discrete(attr)
            .alternatives()
            .iter()
            .filter(|&&(v, _)| (lo..=hi).contains(&v))
            .map(|&(_, p)| q(p * tuple.exist))
            .sum(),
        Predicate::Circle { .. } => 0.0, // circle scans are not enumerated
    }
}

/// `HeapScan` — full sequential scan with a fused confidence `Filter`.
pub struct HeapScan<'a> {
    inner: HeapScanRun<'a>,
    pred: Predicate,
    qt: f64,
    emitted: u64,
}

impl<'a> HeapScan<'a> {
    /// Open over the unclustered heap; `run_pages` is the scan's
    /// estimated length, passed with its first leaf read to size the
    /// pool's read-ahead.
    pub fn open(
        heap: &'a UnclusteredHeap,
        pred: Predicate,
        qt: f64,
        run_pages: Option<usize>,
    ) -> StorageResult<HeapScan<'a>> {
        Ok(HeapScan {
            inner: heap.scan_run(run_pages)?,
            pred,
            qt,
            emitted: 0,
        })
    }

    fn stats(&self) -> CursorStats {
        let inner = self.inner.stats();
        CursorStats {
            rows: self.emitted,
            decodes: inner.decodes,
            // Scanned tuples the fused filter dropped.
            suppressed: inner.rows - self.emitted,
            pointer_fetches: 0,
        }
    }
}

impl Iterator for HeapScan<'_> {
    type Item = Result<PtqResult, QueryError>;
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let tuple = match self.inner.next()? {
                Ok(t) => t,
                Err(e) => return Some(Err(e.into())),
            };
            let confidence = scan_confidence(&tuple, &self.pred);
            if confidence > 0.0 && confidence >= self.qt {
                self.emitted += 1;
                return Some(Ok(PtqResult { tuple, confidence }));
            }
        }
    }
}

/// `UpiFullScan` — sequential scan of the clustered heap's distinct
/// tuples with a fused confidence `Filter`.
pub struct UpiFullScan<'a> {
    inner: upi::DistinctScan<'a>,
    pred: Predicate,
    qt: f64,
    emitted: u64,
}

impl<'a> UpiFullScan<'a> {
    /// Open over the UPI's clustered heap; `run_pages` is the scan's
    /// estimated length, passed with its first leaf read to size the
    /// pool's read-ahead.
    pub fn open(
        upi: &'a DiscreteUpi,
        pred: Predicate,
        qt: f64,
        run_pages: Option<usize>,
    ) -> StorageResult<UpiFullScan<'a>> {
        Ok(UpiFullScan {
            inner: upi.distinct_scan(run_pages)?,
            pred,
            qt,
            emitted: 0,
        })
    }

    fn stats(&self) -> CursorStats {
        let inner = self.inner.stats();
        CursorStats {
            rows: self.emitted,
            decodes: inner.decodes,
            suppressed: inner.rows - self.emitted,
            pointer_fetches: 0,
        }
    }
}

impl Iterator for UpiFullScan<'_> {
    type Item = Result<PtqResult, QueryError>;
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let tuple = match self.inner.next()? {
                Ok(t) => t,
                Err(e) => return Some(Err(e.into())),
            };
            let confidence = scan_confidence(&tuple, &self.pred);
            if confidence > 0.0 && confidence >= self.qt {
                self.emitted += 1;
                return Some(Ok(PtqResult { tuple, confidence }));
            }
        }
    }
}

/// A clustered chain's merge cursor: one stream per component, with the
/// write side's suppression and insert buffer applied inside (see
/// `upi::Chain`).
pub enum ClusteredRun<'a> {
    /// Point probe: Algorithm 2 per component, or the confidence-ordered
    /// k-way merge for top-k.
    Point(ChainPointRun<'a>),
    /// Round-robin per-component range runs.
    Range(ChainRangeRun<'a>),
    /// Round-robin per-component secondary probes.
    Secondary(ChainSecondaryRun<'a>),
}

// ---------------------------------------------------------------------------
// Source operator wrapper (concrete, so stats survive iteration)
// ---------------------------------------------------------------------------

/// Batch delegate: paths answered by the owning index structure in one
/// call, streamed through the sinks afterwards.
pub struct BatchRows {
    label: &'static str,
    pending: std::vec::IntoIter<PtqResult>,
    emitted: u64,
}

impl Iterator for BatchRows {
    type Item = Result<PtqResult, QueryError>;
    fn next(&mut self) -> Option<Self::Item> {
        let r = self.pending.next()?;
        self.emitted += 1;
        Some(Ok(r))
    }
}

/// The concrete source operator of an executing plan. A plain enum (not
/// a boxed trait object) so the executor can harvest every operator's
/// [`CursorStats`] **after** the row loop finishes — the trace needs the
/// cursors alive once iteration is done.
pub enum SourceOp<'a> {
    /// A clustered chain's merge.
    Clustered {
        /// The chain cursor.
        run: ClusteredRun<'a>,
        /// Rows handed to the consumer (component streams count their own
        /// pulls — under early termination the merge may have pulled rows
        /// it never emitted).
        emitted: u64,
    },
    /// Inverted-list probe + bitmap heap fetch.
    PiiProbe(PiiProbe<'a>),
    /// Sequential unclustered scan + fused filter.
    HeapScan(HeapScan<'a>),
    /// Sequential UPI distinct scan + fused filter.
    UpiFullScan(UpiFullScan<'a>),
    /// Batch delegate (circle paths, PII range).
    Batch(BatchRows),
}

impl Iterator for SourceOp<'_> {
    type Item = Result<PtqResult, QueryError>;
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            SourceOp::Clustered { run, emitted } => {
                let item = match run {
                    ClusteredRun::Point(run) => run.next()?,
                    ClusteredRun::Range(run) => run.next()?,
                    ClusteredRun::Secondary(run) => run.next()?,
                };
                if item.is_ok() {
                    *emitted += 1;
                }
                Some(item.map_err(QueryError::from))
            }
            SourceOp::PiiProbe(op) => op.next(),
            SourceOp::HeapScan(op) => op.next(),
            SourceOp::UpiFullScan(op) => op.next(),
            SourceOp::Batch(op) => op.next(),
        }
    }
}

impl SourceOp<'_> {
    /// Harvest the operator spans of this source: `(label, relative
    /// depth, counters)`, pre-order, depth 0 = the source root.
    pub fn spans(&self) -> Vec<(String, usize, CursorStats)> {
        match self {
            SourceOp::Clustered { run, emitted } => {
                let (label, comps, skips) = match run {
                    ClusteredRun::Point(run) => (
                        "ChainMerge(point)",
                        run.component_stats(),
                        run.component_skips(),
                    ),
                    ClusteredRun::Range(run) => (
                        "ChainMerge(range)",
                        run.component_stats(),
                        run.component_skips(),
                    ),
                    ClusteredRun::Secondary(run) => {
                        ("ChainMerge(secondary)", run.component_stats(), Vec::new())
                    }
                };
                let mut parent = comps
                    .iter()
                    .fold(CursorStats::default(), |acc, &s| acc.merged(s));
                parent.rows = *emitted;
                let mut spans = vec![(label.to_string(), 0, parent)];
                for (i, s) in comps.into_iter().enumerate() {
                    let mut name = if i == 0 {
                        "Component#0(main)".to_string()
                    } else {
                        format!("Component#{i}(fracture)")
                    };
                    // Why the component (or its cutoff half) was never
                    // opened, as the bound that ruled it out.
                    if let Some(skip) = skips.get(i).copied().flatten() {
                        name = format!("{name} [{skip}]");
                    }
                    spans.push((name, 1, s));
                }
                spans
            }
            SourceOp::PiiProbe(op) => {
                vec![
                    (
                        "BitmapHeapFetch(unclustered heap, tid-order)".into(),
                        0,
                        op.stats,
                    ),
                    (
                        "PiiProbe(inverted list)".into(),
                        1,
                        CursorStats {
                            rows: op.list_rows,
                            ..CursorStats::default()
                        },
                    ),
                ]
            }
            SourceOp::HeapScan(op) => {
                vec![(
                    "HeapScan(unclustered heap, sequential)".into(),
                    0,
                    op.stats(),
                )]
            }
            SourceOp::UpiFullScan(op) => {
                vec![(
                    "HeapScan(upi.heap distinct, sequential)".into(),
                    0,
                    op.stats(),
                )]
            }
            SourceOp::Batch(op) => {
                vec![(
                    format!("Batch({})", op.label),
                    0,
                    CursorStats {
                        rows: op.emitted,
                        ..CursorStats::default()
                    },
                )]
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

fn collect_stream(
    stream: impl Iterator<Item = Result<PtqResult, QueryError>>,
) -> Result<Vec<PtqResult>, QueryError> {
    let mut rows = Vec::new();
    for r in stream {
        rows.push(r?);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------------

fn eq_params(q: &PtqQuery) -> Result<(usize, u64), QueryError> {
    match q.predicate {
        Predicate::Eq { attr, value } => Ok((attr, value)),
        _ => Err(QueryError::CatalogMismatch {
            missing: "equality predicate for a point access path".into(),
        }),
    }
}

fn need<T: Copy>(entry: Option<T>, what: &str) -> Result<T, QueryError> {
    entry.ok_or_else(|| QueryError::CatalogMismatch {
        missing: what.to_string(),
    })
}

/// The chain a clustered path reads.
fn need_chain<'a>(catalog: &Catalog<'a>, fractured: bool) -> Result<Chain<'a>, QueryError> {
    let what = if fractured {
        "the fractured UPI"
    } else {
        "the discrete UPI"
    };
    need(catalog.chain(fractured), what)
}

fn range_params(q: &PtqQuery, what: &str) -> Result<(u64, u64), QueryError> {
    match q.predicate {
        Predicate::Range { lo, hi, .. } => Ok((lo, hi)),
        _ => Err(QueryError::CatalogMismatch {
            missing: format!("range predicate for {what}"),
        }),
    }
}

/// Open the chosen path as a streaming source; the `bool` says whether
/// the stream is already `{confidence DESC, tid ASC}`-ordered (ordered
/// streams let the top-k sink terminate the source early and skip the
/// sort). `hints` are the candidate's run estimates, handed to the opens
/// that arm them.
fn open_source<'a>(
    path: &AccessPath,
    hints: &[usize],
    q: &PtqQuery,
    catalog: &Catalog<'a>,
) -> Result<(SourceOp<'a>, bool), QueryError> {
    let scan_pages = hints.first().copied();
    let batch = |rows: Vec<PtqResult>, label: &'static str| {
        (
            SourceOp::Batch(BatchRows {
                label,
                pending: rows.into_iter(),
                emitted: 0,
            }),
            false,
        )
    };
    Ok(match path {
        AccessPath::UpiHeap { fractured, .. } => {
            let chain = need_chain(catalog, *fractured)?;
            let (_, value) = eq_params(q)?;
            // A top-k streams confidence-ordered (§3.1): the sink stops the
            // component runs — and their cutoff fetches — after k rows.
            // Otherwise every component runs Algorithm 2.
            let run = ClusteredRun::Point(chain.point_run(value, q.qt, q.top_k, hints)?);
            (SourceOp::Clustered { run, emitted: 0 }, q.top_k.is_some())
        }
        AccessPath::UpiRange { fractured } => {
            let chain = need_chain(catalog, *fractured)?;
            let (lo, hi) = range_params(q, "a clustered range path")?;
            let run = ClusteredRun::Range(chain.range_run(lo, hi, q.qt, hints)?);
            (SourceOp::Clustered { run, emitted: 0 }, false)
        }
        AccessPath::UpiSecondary {
            index,
            tailored,
            fractured,
        } => {
            let chain = need_chain(catalog, *fractured)?;
            if *index >= chain.main().secondaries().len() {
                return Err(QueryError::CatalogMismatch {
                    missing: format!("clustered secondary #{index}"),
                });
            }
            let (_, value) = eq_params(q)?;
            let run = chain.secondary_run(*index, value, q.qt, *tailored, q.top_k, hints)?;
            let run = ClusteredRun::Secondary(run);
            (SourceOp::Clustered { run, emitted: 0 }, false)
        }
        AccessPath::PiiProbe { index } => {
            let heap = need(catalog.heap, "the unclustered heap")?;
            let pii = *catalog
                .piis
                .get(*index)
                .ok_or(QueryError::CatalogMismatch {
                    missing: format!("pii #{index}"),
                })?;
            let (_, value) = eq_params(q)?;
            (
                SourceOp::PiiProbe(PiiProbe::open(pii, heap, value, q.qt)?),
                false,
            )
        }
        AccessPath::PiiRange { index } => {
            let heap = need(catalog.heap, "the unclustered heap")?;
            let pii = *catalog
                .piis
                .get(*index)
                .ok_or(QueryError::CatalogMismatch {
                    missing: format!("pii #{index}"),
                })?;
            let (lo, hi) = range_params(q, "PiiRange")?;
            batch(pii.ptq_range(heap, lo, hi, q.qt)?, "PiiRange")
        }
        AccessPath::HeapScan => {
            let heap = need(catalog.heap, "the unclustered heap")?;
            (
                SourceOp::HeapScan(HeapScan::open(heap, q.predicate.clone(), q.qt, scan_pages)?),
                false,
            )
        }
        AccessPath::UpiFullScan => {
            let upi = need(catalog.upi, "the discrete UPI")?;
            (
                SourceOp::UpiFullScan(UpiFullScan::open(
                    upi,
                    q.predicate.clone(),
                    q.qt,
                    scan_pages,
                )?),
                false,
            )
        }
        AccessPath::ContinuousCircle => {
            let cupi = need(catalog.cupi, "the continuous UPI")?;
            match q.predicate {
                Predicate::Circle { x, y, radius, .. } => batch(
                    cupi.query_circle(x, y, radius, q.qt)?,
                    "ContinuousCircle delegate",
                ),
                _ => {
                    return Err(QueryError::CatalogMismatch {
                        missing: "circle predicate for ContinuousCircle".into(),
                    })
                }
            }
        }
        AccessPath::UTreeCircle => {
            let utree = need(catalog.utree, "the secondary U-Tree")?;
            let heap = need(catalog.heap, "the unclustered heap")?;
            match q.predicate {
                Predicate::Circle { x, y, radius, .. } => batch(
                    utree.query_circle(heap, x, y, radius, q.qt)?,
                    "UTreeCircle delegate",
                ),
                _ => {
                    return Err(QueryError::CatalogMismatch {
                        missing: "circle predicate for UTreeCircle".into(),
                    })
                }
            }
        }
        AccessPath::ContinuousSecondaryProbe { index } => {
            let cupi = need(catalog.cupi, "the continuous UPI")?;
            let cs = *catalog
                .cont_secondaries
                .get(*index)
                .ok_or(QueryError::CatalogMismatch {
                    missing: format!("continuous secondary #{index}"),
                })?;
            let (_, value) = eq_params(q)?;
            batch(
                cs.ptq(cupi, value, q.qt)?,
                "ContinuousSecondaryProbe delegate",
            )
        }
    })
}

/// Build the executed span tree: sink operators (outermost first), then
/// the harvested source spans; attributed I/O and the planner's estimates
/// attach to the source root span.
#[allow(clippy::too_many_arguments)]
fn build_trace(
    plan: &PhysicalPlan,
    source: &SourceOp<'_>,
    out_rows: u64,
    io: Option<&PoolCounters>,
    device: Option<&IoStats>,
    start_ms: f64,
    query_id: QueryId,
) -> QueryTrace {
    let q = &plan.query;
    let chosen = &plan.candidates[0];
    let mut spans: Vec<TraceSpan> = Vec::with_capacity(8);
    let mut depth = 0usize;
    let mut push_sink = |spans: &mut Vec<TraceSpan>, label: String| {
        let mut s = TraceSpan::label_only(label, depth);
        if depth == 0 {
            // The outermost sink is what the query returns.
            s.stats = Some(CursorStats {
                rows: out_rows,
                ..CursorStats::default()
            });
        }
        spans.push(s);
        depth += 1;
    };
    if let Some(f) = q.group_count {
        push_sink(&mut spans, format!("GroupCount(field#{f})"));
    }
    if let Some(k) = q.top_k {
        push_sink(&mut spans, format!("TopK({k})"));
    }
    push_sink(&mut spans, format!("Filter(confidence >= {:.2})", q.qt));
    let root_depth = depth;
    let device_ms = device.map(|d| d.total_ms());
    for (i, (label, rel, stats)) in source.spans().into_iter().enumerate() {
        let mut span = TraceSpan {
            label,
            depth: root_depth + rel,
            stats: Some(stats),
            ..TraceSpan::default()
        };
        if i == 0 {
            span.est_rows = chosen.est_rows;
            span.est_pages = chosen.est_pages;
            span.est_ms = Some(chosen.est_ms);
            if let Some(io) = io {
                span.demand_pages = Some(io.demand_pages());
                span.prefetch_pages = Some(io.sequential_pages());
            }
            span.device_ms = device_ms;
            span.start_ms = start_ms;
            span.end_ms = start_ms + device_ms.unwrap_or(0.0);
        }
        spans.push(span);
    }
    QueryTrace {
        query_id: query_id.0,
        path: chosen.path.label(),
        spans,
    }
}

/// Run a plan: source → (early-terminating) top-k → sort → group.
pub(crate) fn execute(
    plan: &PhysicalPlan,
    catalog: &Catalog<'_>,
) -> Result<QueryOutput, QueryError> {
    let q = &plan.query;
    let chosen = &plan.candidates[0];
    // Per-query attribution: every device charge issued while the guard
    // is alive lands on this query's slot, so concurrent queries on one
    // pool each observe only their own I/O. The session threads its own
    // id through the catalog; stand-alone executions allocate one here
    // and consume the slot on exit.
    let qid = catalog.query_id.unwrap_or_else(QueryId::next);
    let own_qid = catalog.query_id.is_none();
    let _guard = catalog.pool.map(|p| {
        let g = p.attributed(qid);
        if chosen.hints.is_empty() {
            // Pointer-chasing plan: its scattered misses are not runs.
            // Keep the pool's two-adjacent-miss detector from arming
            // read-ahead windows this access pattern would waste (runs
            // opened with an estimate, and runs already armed, still
            // stream).
            g.suppress_run_detection()
        } else {
            g
        }
    });
    let pool_before = catalog.pool.map(|p| p.counters());
    let attr_before = catalog
        .pool
        .map(|p| p.attributed_stats(qid))
        .unwrap_or_default();
    // Run-shaped paths carry each expected run's length; the seek that
    // opens a run passes it with the read of the leaf it lands on (see
    // `CandidatePlan::hints`).
    let (mut source, ordered) = match open_source(plan.path(), &chosen.hints, q, catalog) {
        Ok(source) => source,
        Err(e) => {
            if own_qid {
                if let Some(pool) = catalog.pool {
                    pool.take_attributed(qid);
                }
            }
            return Err(e);
        }
    };
    let mut rows = match (q.top_k, ordered) {
        (Some(k), true) => {
            // The source streams in result order: take k rows and drop
            // the source, leaving the tail of the run unread.
            let mut out = Vec::with_capacity(k);
            for r in &mut source {
                out.push(r?);
                if out.len() == k {
                    break;
                }
            }
            out
        }
        _ => collect_stream(&mut source)?,
    };
    if !ordered {
        // The canonical ordering shared with every core cursor.
        upi::sort_results(&mut rows);
    }
    if let Some(k) = q.top_k {
        rows.truncate(k);
    }
    let io = catalog
        .pool
        .map(|p| p.counters().since(&pool_before.unwrap()));
    let device = catalog.pool.map(|p| {
        let now = if own_qid {
            // Stand-alone execution: consume the slot so the disk's
            // bounded attribution table is not littered.
            p.take_attributed(qid)
        } else {
            p.attributed_stats(qid)
        };
        now.since(&attr_before)
    });
    if let Some(field) = q.group_count {
        // Aggregate output: rows feed the counting sink and are dropped.
        let groups = group_count(&rows, field)?;
        let trace = build_trace(
            plan,
            &source,
            groups.len() as u64,
            io.as_ref(),
            device.as_ref(),
            attr_before.total_ms(),
            qid,
        );
        return Ok(QueryOutput {
            rows: Vec::new(),
            groups: Some(groups),
            io,
            device,
            latency_ms: None,
            trace: Some(trace),
            degraded: None,
        });
    }
    let trace = build_trace(
        plan,
        &source,
        rows.len() as u64,
        io.as_ref(),
        device.as_ref(),
        attr_before.total_ms(),
        qid,
    );
    Ok(QueryOutput {
        rows,
        groups: None,
        io,
        device,
        latency_ms: None,
        trace: Some(trace),
        degraded: None,
    })
}
