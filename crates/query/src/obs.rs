//! Per-query tracing spans: the observability half of the executor.
//!
//! Every executed [`PhysicalPlan`](crate::PhysicalPlan) produces a
//! [`QueryTrace`] — a flat, pre-sized span arena whose `depth` field
//! encodes the operator tree (plan → source operator → child operators).
//! Spans carry the [`CursorStats`] the streaming cursors accumulate
//! (rows emitted, tuples decoded, suppressed skips, pointer fetches) plus,
//! on the source root, the per-query attributed I/O (pages demanded /
//! prefetched, simulated device milliseconds) and the planner's estimates
//! next to the observations.
//!
//! All timestamps are **simulated device milliseconds from the per-query
//! attributed clock** (`IoStats::total_ms` of the query's attribution
//! slot), never wall clock: two identical cold executions render
//! byte-identical traces, which is what makes traces diffable across runs
//! and machines. Instrumentation is always-on and allocation-light — the
//! arena is sized once, and per-row work is plain counter increments on
//! the cursors.

use upi::CursorStats;

/// Flag threshold: an estimate off by more than this factor (either way)
/// is marked in the rendering.
const MISEST_FLAG_FACTOR: f64 = 2.0;

/// One operator's span in an executed query's trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSpan {
    /// Operator label (mirrors the `explain()` operator tree).
    pub label: String,
    /// Tree depth (0 = sink pipeline root / source root).
    pub depth: usize,
    /// Cursor counters, when the operator is an instrumented cursor
    /// (seek-only sinks carry `None`).
    pub stats: Option<CursorStats>,
    /// Demand-miss pages read during this span (source root only).
    pub demand_pages: Option<u64>,
    /// Read-ahead pages fetched during this span (source root only).
    pub prefetch_pages: Option<u64>,
    /// Simulated device ms attributed to this query's span.
    pub device_ms: Option<f64>,
    /// Planner-estimated result rows.
    pub est_rows: Option<f64>,
    /// Planner-estimated pages read.
    pub est_pages: Option<f64>,
    /// Planner-estimated simulated ms (calibrated).
    pub est_ms: Option<f64>,
    /// Span start on the per-query attributed device clock, ms.
    pub start_ms: f64,
    /// Span end on the per-query attributed device clock, ms.
    pub end_ms: f64,
}

impl TraceSpan {
    /// A label-only span (sinks, batch delegates).
    pub fn label_only(label: impl Into<String>, depth: usize) -> TraceSpan {
        TraceSpan {
            label: label.into(),
            depth,
            ..TraceSpan::default()
        }
    }
}

/// The span tree of one executed query, flat in pre-order (`depth`
/// encodes nesting).
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The query's attribution id (session-unique; excluded from
    /// [`render`](Self::render) so identical runs render identically).
    pub query_id: u64,
    /// Label of the executed access path.
    pub path: String,
    /// Spans, pre-order.
    pub spans: Vec<TraceSpan>,
}

/// `observed / estimated`, flagged when off by more than 2x either way.
fn est_cell(est: Option<f64>, obs: f64) -> String {
    match est {
        Some(e) => {
            let flag = if misestimated(e, obs) { " !" } else { "" };
            format!("{obs:.0} (est {e:.0}{flag})")
        }
        None => format!("{obs:.0}"),
    }
}

/// True when the estimate is off by more than [`MISEST_FLAG_FACTOR`].
pub(crate) fn misestimated(est: f64, obs: f64) -> bool {
    let (lo, hi) = (est.min(obs), est.max(obs));
    // Small absolute values (a page or two, sub-ms fixed costs) are noise,
    // not mispricing.
    hi > MISEST_FLAG_FACTOR * lo.max(1.0)
}

impl QueryTrace {
    /// Deterministic text rendering of the span tree: one line per span
    /// with estimated-vs-observed columns where both sides exist, flagged
    /// (`!`) when the estimate is off by more than 2x. Timestamps are the
    /// per-query attributed device clock, so two identical cold runs
    /// render byte-identically.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!("trace ({}):\n", self.path));
        for s in &self.spans {
            let mut line = format!("  {}{}", "  ".repeat(s.depth), s.label);
            let mut cols: Vec<String> = Vec::new();
            if let Some(st) = &s.stats {
                cols.push(format!("rows={}", est_cell(s.est_rows, st.rows as f64)));
                if st.decodes > 0 {
                    cols.push(format!("decodes={}", st.decodes));
                }
                if st.suppressed > 0 {
                    cols.push(format!("suppressed={}", st.suppressed));
                }
                if st.pointer_fetches > 0 {
                    cols.push(format!("fetches={}", st.pointer_fetches));
                }
            }
            if let (Some(d), Some(p)) = (s.demand_pages, s.prefetch_pages) {
                cols.push(format!(
                    "pages={} ({d} demand + {p} prefetch)",
                    est_cell(s.est_pages, (d + p) as f64)
                ));
            }
            if let Some(ms) = s.device_ms {
                let cell = match s.est_ms {
                    Some(e) => {
                        let flag = if misestimated(e, ms) { " !" } else { "" };
                        format!("device_ms={ms:.2} (est {e:.2}{flag})")
                    }
                    None => format!("device_ms={ms:.2}"),
                };
                cols.push(cell);
            }
            if s.end_ms > s.start_ms {
                cols.push(format!("span=[{:.2}..{:.2}ms]", s.start_ms, s.end_ms));
            }
            if !cols.is_empty() {
                line.push_str("  ");
                line.push_str(&cols.join(" "));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misestimation_flag_is_two_sided_with_a_noise_floor() {
        assert!(misestimated(10.0, 25.0));
        assert!(misestimated(25.0, 10.0));
        assert!(!misestimated(10.0, 19.0));
        // Sub-unit absolute values never flag.
        assert!(!misestimated(0.01, 0.9));
    }

    #[test]
    fn render_is_deterministic_and_skips_query_id() {
        let mk = |qid| QueryTrace {
            query_id: qid,
            path: "UpiHeap".into(),
            spans: vec![
                TraceSpan::label_only("TopK(3)", 0),
                TraceSpan {
                    label: "ChainMerge(point)".into(),
                    depth: 1,
                    stats: Some(CursorStats {
                        rows: 3,
                        decodes: 3,
                        suppressed: 0,
                        pointer_fetches: 1,
                    }),
                    demand_pages: Some(2),
                    prefetch_pages: Some(1),
                    device_ms: Some(12.5),
                    est_rows: Some(3.0),
                    est_pages: Some(10.0),
                    est_ms: Some(11.0),
                    start_ms: 0.0,
                    end_ms: 12.5,
                },
            ],
        };
        let a = mk(1).render();
        let b = mk(999).render();
        assert_eq!(a, b, "query id must not leak into the rendering");
        assert!(a.contains("rows=3 (est 3)"), "{a}");
        assert!(a.contains("pages=3 (est 10 !)"), "{a}");
        assert!(a.contains("span=[0.00..12.50ms]"), "{a}");
    }
}
