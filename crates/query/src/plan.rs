//! Physical plans: access paths, cost-ranked candidates, `explain()`.

use crate::catalog::Catalog;
use crate::cost::{PathCost, PathKind};
use crate::error::QueryError;
use crate::exec::QueryOutput;
use crate::query::{Predicate, PtqQuery};

/// One physical access path for a PTQ. Variants carry whatever identifies
/// the concrete structure inside the [`Catalog`].
///
/// The three clustered paths read a chain of components (`upi::Chain`):
/// a plain UPI is a chain of one, a fractured UPI its main component plus
/// fractures, delete sets and insert buffer. `fractured` names which of
/// the catalog's chains a path reads; it also picks the write policy's
/// pricing (§6.2 instead of §6.3), its calibration kind
/// ([`PathKind::FracturedMerge`]) and its `Fractured*` label.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Clustered point probe: per component, the heap run and — when
    /// `use_cutoff` (i.e. `QT < C`) — the cutoff pointers (Algorithm 2);
    /// a confidence-ordered k-way merge for top-k.
    UpiHeap {
        /// Whether the cutoff-index half of Algorithm 2 runs.
        use_cutoff: bool,
        /// Reads the fractured UPI's chain.
        fractured: bool,
    },
    /// Clustered range scan (+ cutoff range merge), per component.
    UpiRange {
        /// Reads the fractured UPI's chain.
        fractured: bool,
    },
    /// Secondary-index access, per component (Algorithm 3 when
    /// `tailored`).
    UpiSecondary {
        /// Position in the main component's `secondaries()`.
        index: usize,
        /// Tailored (pointer-overlap-aware) vs. first-pointer access.
        tailored: bool,
        /// Reads the fractured UPI's chain.
        fractured: bool,
    },
    /// PII probe (inverted-list scan + bitmap-order heap fetch).
    PiiProbe {
        /// Position in `Catalog::piis`.
        index: usize,
    },
    /// PII range (inverted-list range read + heap fetch).
    PiiRange {
        /// Position in `Catalog::piis`.
        index: usize,
    },
    /// Full sequential scan of the unclustered heap with a residual
    /// confidence filter.
    HeapScan,
    /// Full sequential scan of the UPI heap (distinct tuples) with a
    /// residual confidence filter.
    UpiFullScan,
    /// R-Tree circle query on the continuous UPI's clustered heap.
    ContinuousCircle,
    /// Circle query via the secondary U-Tree + per-candidate heap fetch.
    UTreeCircle,
    /// Segment-index probe over the continuous UPI's heap pages.
    ContinuousSecondaryProbe {
        /// Position in `Catalog::cont_secondaries`.
        index: usize,
    },
}

impl AccessPath {
    /// The calibration family this path is priced (and refit) under.
    pub fn kind(&self) -> PathKind {
        match self {
            AccessPath::UpiHeap {
                fractured: true, ..
            }
            | AccessPath::UpiRange { fractured: true }
            | AccessPath::UpiSecondary {
                fractured: true, ..
            } => PathKind::FracturedMerge,
            AccessPath::UpiHeap { .. } => PathKind::PointMerge,
            AccessPath::UpiRange { .. } => PathKind::RangeRun,
            AccessPath::UpiSecondary { .. } => PathKind::SecondaryProbe,
            AccessPath::PiiProbe { .. }
            | AccessPath::PiiRange { .. }
            | AccessPath::UTreeCircle
            | AccessPath::ContinuousSecondaryProbe { .. } => PathKind::PiiProbe,
            AccessPath::HeapScan | AccessPath::UpiFullScan | AccessPath::ContinuousCircle => {
                PathKind::Scan
            }
        }
    }

    /// Short display name for candidate tables.
    pub fn label(&self) -> String {
        match self {
            AccessPath::UpiHeap {
                fractured: true, ..
            } => "FracturedProbe".into(),
            AccessPath::UpiHeap {
                use_cutoff: true, ..
            } => "UpiHeap+CutoffMerge".into(),
            AccessPath::UpiHeap { .. } => "UpiHeap".into(),
            AccessPath::UpiRange { fractured: true } => "FracturedRange".into(),
            AccessPath::UpiRange { .. } => "UpiRange".into(),
            AccessPath::UpiSecondary {
                index,
                tailored,
                fractured,
            } => format!(
                "{}Secondary#{index}({})",
                if *fractured { "Fractured" } else { "Upi" },
                if *tailored { "tailored" } else { "plain" }
            ),
            AccessPath::PiiProbe { index } => format!("PiiProbe#{index}"),
            AccessPath::PiiRange { index } => format!("PiiRange#{index}"),
            AccessPath::HeapScan => "HeapScan".into(),
            AccessPath::UpiFullScan => "UpiFullScan".into(),
            AccessPath::ContinuousCircle => "ContinuousCircle".into(),
            AccessPath::UTreeCircle => "UTreeCircle".into(),
            AccessPath::ContinuousSecondaryProbe { index } => {
                format!("ContinuousSecondaryProbe#{index}")
            }
        }
    }
}

/// One priced candidate plan.
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// The access path.
    pub path: AccessPath,
    /// Estimated simulated-disk milliseconds (calibrated:
    /// `cost.est_ms()`).
    pub est_ms: f64,
    /// The estimate's decomposition — path kind, fixed vs. dominant term,
    /// and the calibration scale in force — so an executed plan can feed
    /// the exact pricing ingredients back into the `CalibrationStore`.
    pub cost: PathCost,
    /// How the estimate was assembled (for `explain()`).
    pub note: String,
    /// Prefetch hints for run-shaped paths: the estimated length, in
    /// leaf pages, of each expected sequential run, derived from the same
    /// in-memory statistics that priced the candidate. Single-structure
    /// paths carry one; chain paths carry **one per component**,
    /// index-aligned with the chain's components. The seek that opens a
    /// run reads the leaf it lands on with its estimate
    /// (`upi_btree::BTree::seek_run` →
    /// `upi_storage::BufferPool::get_run`), so each run's read-ahead
    /// arms on its own first miss with a run-length-sized window, and a
    /// component the merge never opens arms nothing. Empty for
    /// pointer-chasing and batch paths, whose execution also suppresses
    /// the pool's run detector; clearing it strips the hints.
    pub hints: Vec<usize>,
    /// Planner-estimated result rows (pre-top-k qualifying rows), when
    /// the statistics support an estimate. Rendered next to the observed
    /// row count by `explain_analyze`.
    pub est_rows: Option<f64>,
    /// Planner-estimated pages read, when the statistics support an
    /// estimate. Rendered next to the observed page count by
    /// `explain_analyze`.
    pub est_pages: Option<f64>,
}

impl CandidatePlan {
    /// Attach row/page cardinality estimates (chainable; used by the
    /// planner at enumeration time so `explain_analyze` can show
    /// estimated-vs-observed columns).
    pub fn with_est(mut self, rows: f64, pages: f64) -> CandidatePlan {
        self.est_rows = Some(rows);
        self.est_pages = Some(pages);
        self
    }

    /// Attach a page estimate only (scans: pages are known from tree
    /// stats, qualifying rows depend on the residual filter).
    pub fn with_est_pages(mut self, pages: f64) -> CandidatePlan {
        self.est_pages = Some(pages);
        self
    }
}

/// An executable physical plan: the chosen access path plus the full
/// ranked candidate list it won against.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The query this plan answers.
    pub query: PtqQuery,
    /// Candidates in ascending estimated cost; `candidates[0]` is chosen.
    pub candidates: Vec<CandidatePlan>,
}

impl PhysicalPlan {
    /// The chosen access path.
    pub fn path(&self) -> &AccessPath {
        &self.candidates[0].path
    }

    /// Estimated cost of the chosen path, simulated-disk ms.
    pub fn est_ms(&self) -> f64 {
        self.candidates[0].est_ms
    }

    /// Execute the plan against the catalog it was planned over.
    pub fn execute(&self, catalog: &Catalog<'_>) -> Result<QueryOutput, QueryError> {
        crate::exec::execute(self, catalog)
    }

    /// Execute the plan and render the **analyzed** explain: the plan as
    /// [`explain_with_io`](Self::explain_with_io), a warning line when
    /// eviction-flush errors occurred during the query, and the executed
    /// span tree with per-operator estimated-vs-observed columns (rows,
    /// pages, simulated ms — flagged `!` when off by more than 2x).
    pub fn execute_analyzed(
        &self,
        catalog: &Catalog<'_>,
    ) -> Result<(QueryOutput, String), QueryError> {
        let out = self.execute(catalog)?;
        let text = self.render_analyze(&out);
        Ok((out, text))
    }

    /// Render the analyzed explain for an already-obtained execution of
    /// this plan (see [`execute_analyzed`](Self::execute_analyzed)).
    pub fn render_analyze(&self, out: &QueryOutput) -> String {
        let mut text = self.explain_with_io(out.io.as_ref());
        if let Some(w) = out.flush_warning() {
            text.push_str(&w);
            text.push('\n');
        }
        if let Some(trace) = &out.trace {
            text.push_str(&trace.render());
        }
        text
    }

    /// Human-readable plan rendering: the logical query, the operator
    /// tree of the chosen path, and the ranked candidate table.
    pub fn explain(&self) -> String {
        self.explain_with_io(None)
    }

    /// [`explain`](Self::explain) plus the measured buffer-pool traffic
    /// of an execution of this plan (`QueryOutput::io`, available when
    /// the catalog registered a pool via `Catalog::with_pool`).
    pub fn explain_with_io(&self, io: Option<&upi_storage::PoolCounters>) -> String {
        let mut out = String::new();
        out.push_str(&format!("PtqQuery: {}\n", describe_query(&self.query)));
        out.push_str(&format!(
            "chosen: {} (est {:.1} ms)\n",
            self.path().label(),
            self.est_ms()
        ));
        let cost = &self.candidates[0].cost;
        out.push_str(&format!(
            "cost model: {} raw {:.1} ms -> calibrated {:.1} ms (scale {:.2}, {} sample{})\n",
            cost.kind.label(),
            cost.raw_ms(),
            cost.est_ms(),
            cost.scale,
            cost.samples,
            if cost.samples == 1 { "" } else { "s" }
        ));
        for line in operator_tree(&self.query, self.path()) {
            out.push_str(&format!("  {line}\n"));
        }
        match self.candidates[0].hints.as_slice() {
            [] => {}
            [h] => out.push_str(&format!("prefetch hint: run of ~{h} page(s)\n")),
            hints => {
                let total: usize = hints.iter().sum();
                out.push_str(&format!(
                    "prefetch hints: {} component runs, ~{} page(s) total\n",
                    hints.len(),
                    total
                ));
                for (i, h) in hints.iter().enumerate() {
                    out.push_str(&format!("  component #{i}: run of ~{h} page(s)\n"));
                }
            }
        }
        if let Some(io) = io {
            out.push_str(&format!(
                "buffer pool: {} pages read ({} demand + {} sequential read-ahead), {} hits ({} from readahead), {} flush errors\n",
                io.pages_read(),
                io.demand_pages(),
                io.sequential_pages(),
                io.hits,
                io.readahead_hits,
                io.flush_errors
            ));
        }
        out.push_str("candidates:\n");
        for (i, c) in self.candidates.iter().enumerate() {
            let marker = if i == 0 { "  <- chosen" } else { "" };
            out.push_str(&format!(
                "  {:<34} {:>12.1} ms{}  [{}]\n",
                c.path.label(),
                c.est_ms,
                marker,
                c.note
            ));
        }
        out
    }
}

fn describe_query(q: &PtqQuery) -> String {
    let pred = match &q.predicate {
        Predicate::Eq { attr, value } => format!("field#{attr} = {value}"),
        Predicate::Range { attr, lo, hi } => format!("field#{attr} IN [{lo}, {hi}]"),
        Predicate::Circle { attr, x, y, radius } => {
            format!("Distance(field#{attr}, ({x:.1}, {y:.1})) <= {radius:.1}")
        }
    };
    let mut s = format!("{pred} (confidence >= {:.2})", q.qt);
    if let Some(k) = q.top_k {
        s.push_str(&format!(" TOP {k}"));
    }
    if let Some(f) = q.group_count {
        s.push_str(&format!(" GROUP COUNT BY field#{f}"));
    }
    s
}

/// The component set a clustered path reads.
fn components(fractured: bool) -> &'static str {
    if fractured {
        "main + fractures + insert buffer"
    } else {
        "one component"
    }
}

/// Render the operator tree for a chosen path, innermost source last.
fn operator_tree(q: &PtqQuery, path: &AccessPath) -> Vec<String> {
    let mut ops: Vec<String> = Vec::new();
    if let Some(f) = q.group_count {
        ops.push(format!("GroupCount(field#{f})"));
    }
    if let Some(k) = q.top_k {
        ops.push(format!("TopK({k})"));
    }
    ops.push(format!("Filter(confidence >= {:.2})", q.qt));
    let source = match path {
        AccessPath::UpiHeap {
            use_cutoff,
            fractured,
        } => vec![
            format!("ChainMerge(point, {})", components(*fractured)),
            match (q.top_k, use_cutoff) {
                (Some(_), _) => "  confidence-ordered, early-terminating, lazy cutoff fetch",
                (None, true) => "  heap run, then cutoff pointers in heap order",
                (None, false) => "  heap run",
            }
            .to_string(),
        ],
        AccessPath::UpiRange { fractured } => vec![
            format!("ChainMerge(range, {})", components(*fractured)),
            "  heap run, emit at first in-range copy, then cutoff qualifiers".to_string(),
        ],
        AccessPath::UpiSecondary {
            index,
            tailored,
            fractured,
        } => vec![
            format!("ChainMerge(sec#{index}, {})", components(*fractured)),
            format!(
                "  {} entry run, suppress-before-fetch, heap-order fetch",
                if *tailored {
                    "tailored"
                } else {
                    "first-pointer"
                }
            ),
        ],
        AccessPath::PiiProbe { index } => vec![
            "BitmapHeapFetch(unclustered heap, tid-order)".to_string(),
            format!("  PiiProbe(pii#{index} inverted list)"),
        ],
        AccessPath::PiiRange { index } => vec![
            "BitmapHeapFetch(unclustered heap, tid-order)".to_string(),
            format!("  RangeAccumulate(pii#{index} inverted lists)"),
        ],
        AccessPath::HeapScan => vec!["HeapScan(unclustered heap, sequential)".to_string()],
        AccessPath::UpiFullScan => vec!["HeapScan(upi.heap distinct, sequential)".to_string()],
        AccessPath::ContinuousCircle => vec![
            "ClusteredPageRead(cupi.heap, leaf order)".to_string(),
            "  RTreeProbe(cupi.rtree, circle)".to_string(),
        ],
        AccessPath::UTreeCircle => vec![
            "BitmapHeapFetch(unclustered heap, tid-order)".to_string(),
            "  RTreeProbe(utree, circle)".to_string(),
        ],
        AccessPath::ContinuousSecondaryProbe { index } => vec![
            "PageCollapseFetch(cupi.heap, physical order)".to_string(),
            format!("  PiiProbe(cont_sec#{index} inverted list)"),
        ],
    };
    ops.extend(source);
    // Indent into a tree.
    ops.iter()
        .enumerate()
        .map(|(i, op)| format!("{}{op}", "  ".repeat(i.min(4))))
        .collect()
}
