//! Query results and the helpers every access path shares: the result
//! row, the canonical result order, cursor counters and `GROUP BY` counts.
//! The cost-based planner and streaming operator tree live in the
//! `upi-query` crate.

use upi_uncertain::{Datum, Field, Tuple};

/// One row of a probabilistic threshold query answer: the tuple plus the
/// confidence that it satisfies the predicate (`existence × P(value)`,
/// e.g. `(Alice, 18%)` for Query 1 of the paper).
#[derive(Debug, Clone)]
pub struct PtqResult {
    /// The qualifying tuple.
    pub tuple: Tuple,
    /// Confidence that the tuple satisfies the query predicate.
    pub confidence: f64,
}

/// Per-cursor instrumentation counters, accumulated by every streaming
/// cursor (`HeapRun`, `PointRun`, `RangeRun`, `SecondaryRun`, scans and
/// the fractured merges) as it pulls rows. Allocation-free — plain
/// increments on the cursor — and harvested by the query layer's trace
/// spans after execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorStats {
    /// Rows emitted to the consumer.
    pub rows: u64,
    /// Tuples decoded from heap pages.
    pub decodes: u64,
    /// Candidates skipped by a suppression / residual predicate before
    /// any heap fetch.
    pub suppressed: u64,
    /// Pointer dereferences into the clustered heap (cutoff or secondary
    /// entries resolved to their tuple).
    pub pointer_fetches: u64,
}

impl CursorStats {
    /// Component-wise sum (merging a child cursor's counters into its
    /// parent's).
    pub fn merged(self, other: CursorStats) -> CursorStats {
        CursorStats {
            rows: self.rows + other.rows,
            decodes: self.decodes + other.decodes,
            suppressed: self.suppressed + other.suppressed,
            pointer_fetches: self.pointer_fetches + other.pointer_fetches,
        }
    }
}

/// A structure a cursor left unopened, with the bound that ruled it
/// out — the note a trace span ends with. Each is sound: the structure
/// provably holds no row the query could return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skip {
    /// A chain component whose confidence bound for the value is below
    /// the confidence the merge still needs (`qt` or the top-k floor).
    Component {
        /// The component's bound for the value.
        bound: f64,
        /// The confidence needed when the span was harvested.
        floor: f64,
    },
    /// A chain component that never stored a row for the value's bucket.
    NoRow,
    /// An opened component's cutoff list: every cutoff entry is below
    /// `C`, and the floor is above that.
    CutoffList {
        /// The floor that ruled the list out.
        floor: f64,
    },
    /// A range's cutoff phase: no cutoff-only tuple can reach `qt`.
    CutoffPhase {
        /// The phase's confidence bound.
        bound: f64,
        /// The query threshold.
        qt: f64,
    },
}

impl std::fmt::Display for Skip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Skip::Component { bound, floor } => {
                write!(f, "not opened: bound {bound:.3} < floor {floor:.3}")
            }
            Skip::NoRow => write!(f, "not opened: no row for value"),
            Skip::CutoffList { floor } => write!(f, "cutoff not opened: floor {floor:.3} ≥ C"),
            Skip::CutoffPhase { bound, qt } => {
                write!(f, "cutoff phase skipped: bound {bound:.3} < qt {qt:.3}")
            }
        }
    }
}

/// Typed executor errors (library code must not panic on malformed
/// queries — a bad field index or type comes from the caller, not a bug).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The referenced field index is out of bounds for the tuple.
    FieldOutOfBounds {
        /// The requested field index.
        field: usize,
        /// The tuple's arity.
        arity: usize,
    },
    /// A grouping field was not a certain `U64` column.
    NotCertainU64 {
        /// The requested field index.
        field: usize,
        /// Debug rendering of the offending field value.
        got: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::FieldOutOfBounds { field, arity } => {
                write!(
                    f,
                    "field index {field} out of bounds for arity-{arity} tuple"
                )
            }
            ExecError::NotCertainU64 { field, got } => {
                write!(
                    f,
                    "group_count expects a certain u64 field at index {field}, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Canonical PTQ result ordering: descending confidence, ties broken by
/// ascending tuple id. Every access path presents rows this way.
pub fn sort_results(rows: &mut [PtqResult]) {
    rows.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then_with(|| a.tuple.id.cmp(&b.tuple.id))
    });
}

/// Read the certain `U64` grouping key of `field` from a tuple.
pub fn group_key(tuple: &Tuple, field: usize) -> std::result::Result<u64, ExecError> {
    match tuple.fields.get(field) {
        Some(Field::Certain(Datum::U64(v))) => Ok(*v),
        Some(other) => Err(ExecError::NotCertainU64 {
            field,
            got: format!("{other:?}"),
        }),
        None => Err(ExecError::FieldOutOfBounds {
            field,
            arity: tuple.fields.len(),
        }),
    }
}

/// `SELECT field, COUNT(*) ... GROUP BY field` over PTQ results — the shape
/// of Queries 2 and 3 ("Publication Aggregate on Institution/Country").
/// Returns `(value, count)` sorted by value. `field` must be a certain
/// `U64` column (the journal id); anything else is a typed [`ExecError`].
pub fn group_count(
    results: &[PtqResult],
    field: usize,
) -> std::result::Result<Vec<(u64, u64)>, ExecError> {
    let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for r in results {
        *counts.entry(group_key(&r.tuple, field)?).or_insert(0) += 1;
    }
    let mut out: Vec<(u64, u64)> = counts.into_iter().collect();
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use upi_uncertain::TupleId;

    fn result(journal: u64, conf: f64) -> PtqResult {
        PtqResult {
            tuple: Tuple::new(
                TupleId(journal * 100),
                1.0,
                vec![Field::Certain(Datum::U64(journal))],
            ),
            confidence: conf,
        }
    }

    #[test]
    fn group_count_counts_per_value() {
        let rows = vec![
            result(3, 0.9),
            result(1, 0.5),
            result(3, 0.2),
            result(2, 0.8),
        ];
        assert_eq!(group_count(&rows, 0).unwrap(), vec![(1, 1), (2, 1), (3, 2)]);
    }

    #[test]
    fn group_count_empty() {
        assert!(group_count(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn group_count_rejects_wrong_field_type() {
        let r = PtqResult {
            tuple: Tuple::new(
                TupleId(0),
                1.0,
                vec![Field::Certain(Datum::Str("x".into()))],
            ),
            confidence: 1.0,
        };
        match group_count(&[r], 0) {
            Err(ExecError::NotCertainU64 { field: 0, .. }) => {}
            other => panic!("expected NotCertainU64, got {other:?}"),
        }
    }

    #[test]
    fn group_count_rejects_out_of_bounds_field() {
        let r = result(1, 0.5);
        match group_count(&[r], 9) {
            Err(ExecError::FieldOutOfBounds { field: 9, arity: 1 }) => {}
            other => panic!("expected FieldOutOfBounds, got {other:?}"),
        }
    }
}
