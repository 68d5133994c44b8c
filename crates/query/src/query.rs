//! The logical query description.

use crate::catalog::Catalog;
use crate::error::{PlanError, QueryError};
use crate::exec::QueryOutput;
use crate::plan::PhysicalPlan;

/// The predicate of a probabilistic threshold query.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `attr = value` on a discrete uncertain attribute.
    Eq {
        /// Field index of the attribute.
        attr: usize,
        /// The queried value.
        value: u64,
    },
    /// `attr BETWEEN lo AND hi` (inclusive) on a discrete attribute.
    /// Alternative probabilities *sum* under possible-world semantics.
    Range {
        /// Field index of the attribute.
        attr: usize,
        /// Lower bound (inclusive).
        lo: u64,
        /// Upper bound (inclusive).
        hi: u64,
    },
    /// `Distance(attr, (x, y)) ≤ radius` on a continuous (point)
    /// attribute — the paper's Query 4.
    Circle {
        /// Field index of the point attribute.
        attr: usize,
        /// Query-circle center x.
        x: f64,
        /// Query-circle center y.
        y: f64,
        /// Query-circle radius.
        radius: f64,
    },
}

impl Predicate {
    /// The predicated field index.
    pub fn attr(&self) -> usize {
        match *self {
            Predicate::Eq { attr, .. }
            | Predicate::Range { attr, .. }
            | Predicate::Circle { attr, .. } => attr,
        }
    }
}

/// A logical probabilistic threshold query:
/// `SELECT [fields] FROM t WHERE <predicate> (confidence ≥ qt)`
/// optionally with `GROUP BY field → COUNT(*)` or `LIMIT k` (top-k by
/// confidence).
///
/// Build with [`PtqQuery::eq`] / [`PtqQuery::range`] /
/// [`PtqQuery::circle`] plus the `with_*` builders, then call
/// [`plan`](Self::plan) against a [`Catalog`].
#[derive(Debug, Clone, PartialEq)]
pub struct PtqQuery {
    /// The predicate.
    pub predicate: Predicate,
    /// Confidence threshold `QT` (results must satisfy the predicate with
    /// at least this probability).
    pub qt: f64,
    /// Keep only the `k` most confident results.
    pub top_k: Option<usize>,
    /// `SELECT field, COUNT(*) … GROUP BY field` over a certain `U64`
    /// column (Queries 2–3).
    pub group_count: Option<usize>,
}

impl PtqQuery {
    /// Point PTQ: `WHERE attr = value`.
    pub fn eq(attr: usize, value: u64) -> PtqQuery {
        PtqQuery {
            predicate: Predicate::Eq { attr, value },
            qt: 0.0,
            top_k: None,
            group_count: None,
        }
    }

    /// Range PTQ: `WHERE attr BETWEEN lo AND hi`.
    pub fn range(attr: usize, lo: u64, hi: u64) -> PtqQuery {
        PtqQuery {
            predicate: Predicate::Range { attr, lo, hi },
            qt: 0.0,
            top_k: None,
            group_count: None,
        }
    }

    /// Circle PTQ: `WHERE Distance(attr, (x, y)) ≤ radius`.
    pub fn circle(attr: usize, x: f64, y: f64, radius: f64) -> PtqQuery {
        PtqQuery {
            predicate: Predicate::Circle { attr, x, y, radius },
            qt: 0.0,
            top_k: None,
            group_count: None,
        }
    }

    /// Set the confidence threshold.
    pub fn with_qt(mut self, qt: f64) -> PtqQuery {
        self.qt = qt;
        self
    }

    /// Keep only the `k` most confident results.
    pub fn with_top_k(mut self, k: usize) -> PtqQuery {
        self.top_k = Some(k);
        self
    }

    /// Aggregate to `(group value, count)` pairs over a certain `U64`
    /// field.
    pub fn with_group_count(mut self, field: usize) -> PtqQuery {
        self.group_count = Some(field);
        self
    }

    /// Validate the query shape.
    pub(crate) fn validate(&self) -> Result<(), PlanError> {
        if !(0.0..=1.0).contains(&self.qt) {
            return Err(PlanError::InvalidQuery {
                reason: format!("QT {} outside [0, 1]", self.qt),
            });
        }
        if let Predicate::Range { lo, hi, .. } = self.predicate {
            if lo > hi {
                return Err(PlanError::InvalidQuery {
                    reason: format!("inverted range [{lo}, {hi}]"),
                });
            }
        }
        if let Predicate::Circle { radius, .. } = self.predicate {
            if radius < 0.0 {
                return Err(PlanError::InvalidQuery {
                    reason: format!("negative radius {radius}"),
                });
            }
        }
        if self.top_k == Some(0) {
            return Err(PlanError::InvalidQuery {
                reason: "top-k of 0 returns nothing".into(),
            });
        }
        Ok(())
    }

    /// Enumerate candidate access paths over `catalog`, price each with
    /// the §6 cost models and live statistics, and return the cheapest as
    /// an executable [`PhysicalPlan`].
    pub fn plan(&self, catalog: &Catalog<'_>) -> Result<PhysicalPlan, PlanError> {
        crate::planner::plan(self, catalog)
    }

    /// Plan and execute in one call.
    pub fn run(&self, catalog: &Catalog<'_>) -> Result<QueryOutput, QueryError> {
        self.plan(catalog)?.execute(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upi_storage::DiskConfig;

    #[test]
    fn builders_compose() {
        let q = PtqQuery::eq(1, 7)
            .with_qt(0.4)
            .with_top_k(3)
            .with_group_count(0);
        assert_eq!(q.predicate, Predicate::Eq { attr: 1, value: 7 });
        assert_eq!(q.qt, 0.4);
        assert_eq!(q.top_k, Some(3));
        assert_eq!(q.group_count, Some(0));
        assert!(q.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(PtqQuery::eq(1, 7).with_qt(1.5).validate().is_err());
        assert!(PtqQuery::range(1, 5, 2).validate().is_err());
        assert!(PtqQuery::circle(1, 0.0, 0.0, -1.0).validate().is_err());
        assert!(PtqQuery::eq(1, 7).with_top_k(0).validate().is_err());
    }

    #[test]
    fn empty_catalog_has_no_access_path() {
        let disk = DiskConfig::default();
        let catalog = Catalog::new(&disk);
        match PtqQuery::eq(1, 7).plan(&catalog) {
            Err(crate::PlanError::NoAccessPath { .. }) => {}
            other => panic!("expected NoAccessPath, got {other:?}"),
        }
    }
}
