//! The answer oracle: a brute-force possible-worlds filter over the
//! harness's in-memory tuple set (paper §2), run outside every timed
//! window.
//!
//! A tuple's confidence for a predicate is `existence × P(predicate)`:
//! `P(value)` for an equality, the sum over in-range alternatives for a
//! range, the constrained Gaussian's mass inside the circle for a circle.
//! Answers are compared as sets of `(tuple id, confidence)`.

use std::collections::HashMap;

use upi::PtqResult;
use upi_uncertain::Tuple;

use crate::workloads::QueryOp;

/// Confidence slack per probability term. The index stores confidences
/// on a `u32` grid (quantum 2.3e-10, rounded to nearest), so a stored
/// value is within 1.2e-10 of the exact one per alternative summed.
pub const EPS: f64 = 1e-9;

/// What the query keeps of the matching tuples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Want {
    /// Every tuple with confidence ≥ `qt`.
    Threshold(f64),
    /// The `k` most confident tuples.
    TopK(usize),
}

/// `(id, exact confidence)` of every tuple with non-zero confidence for
/// a discrete op, and the slack its confidences are compared with.
pub fn discrete_matches<'a>(
    tuples: impl Iterator<Item = &'a Tuple>,
    op: &QueryOp,
    primary: usize,
    secondary: usize,
) -> (Vec<(u64, f64)>, f64) {
    let mut terms = 1usize;
    let matching = tuples
        .filter_map(|t| {
            let conf = match *op {
                QueryOp::Point { value, .. } | QueryOp::TopK { value, .. } => {
                    t.confidence_eq(primary, value)
                }
                QueryOp::Secondary { value, .. } => t.confidence_eq(secondary, value),
                QueryOp::Range { lo, hi, .. } => {
                    let alts = t.discrete(primary).alternatives();
                    let in_range = alts.iter().filter(|(v, _)| (lo..=hi).contains(v));
                    terms = terms.max(in_range.clone().count());
                    t.exist * in_range.map(|(_, p)| p).sum::<f64>()
                }
            };
            (conf > 0.0).then_some((t.id.0, conf))
        })
        .collect();
    (matching, EPS * terms as f64)
}

/// `(id, confidence)` of every tuple whose location can fall inside the
/// circle. A tuple farther than `radius + bound` has confidence exactly 0.
pub fn circle_matches<'a>(
    tuples: impl Iterator<Item = &'a Tuple>,
    attr: usize,
    x: f64,
    y: f64,
    radius: f64,
) -> Vec<(u64, f64)> {
    tuples
        .filter_map(|t| {
            let g = t.point(attr);
            let reach = radius + g.bound;
            if (g.cx - x).abs() > reach || (g.cy - y).abs() > reach {
                return None;
            }
            let conf = t.exist * g.prob_in_circle(x, y, radius);
            (conf > 0.0).then_some((t.id.0, conf))
        })
        .collect()
}

/// What the op asks for.
pub fn want_of(op: &QueryOp) -> Want {
    match *op {
        QueryOp::Point { qt, .. } | QueryOp::Range { qt, .. } | QueryOp::Secondary { qt, .. } => {
            Want::Threshold(qt)
        }
        QueryOp::TopK { k, .. } => Want::TopK(k),
    }
}

/// Compare the rows a query returned with the oracle's matching set.
/// A tuple within `eps` of the threshold (or tied with the k-th row) may
/// legitimately fall on either side.
pub fn check(
    matching: &[(u64, f64)],
    want: Want,
    eps: f64,
    rows: &[PtqResult],
) -> Result<(), String> {
    let model: HashMap<u64, f64> = matching.iter().copied().collect();
    let mut returned: HashMap<u64, f64> = HashMap::with_capacity(rows.len());
    for r in rows {
        let id = r.tuple.id.0;
        let Some(&exact) = model.get(&id) else {
            return Err(format!("returned tuple {id} does not match the predicate"));
        };
        if (exact - r.confidence).abs() > eps {
            return Err(format!(
                "tuple {id}: confidence {} but the oracle computes {exact}",
                r.confidence
            ));
        }
        if returned.insert(id, exact).is_some() {
            return Err(format!("tuple {id} returned twice"));
        }
    }
    // Every matching tuple the answer left out must be allowed out.
    let floor = match want {
        Want::Threshold(qt) => {
            if let Some((id, c)) = returned.iter().find(|(_, &c)| c < qt - eps) {
                return Err(format!(
                    "tuple {id} returned below the threshold ({c} < {qt})"
                ));
            }
            qt
        }
        Want::TopK(k) => {
            let expect = k.min(model.len());
            if rows.len() != expect {
                return Err(format!(
                    "top-{k} returned {} rows, expected {expect}",
                    rows.len()
                ));
            }
            returned.values().copied().fold(f64::INFINITY, f64::min)
        }
    };
    // (A top-k that returned fewer than k rows returned every match: the
    // count check above and the distinct-member checks leave no other.)
    for (&id, &c) in &model {
        let must_return = match want {
            Want::Threshold(_) => c >= floor + eps,
            Want::TopK(_) => c > floor + eps,
        };
        if must_return && !returned.contains_key(&id) {
            return Err(format!(
                "tuple {id} (confidence {c}) is missing from the answer (floor {floor})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use upi_uncertain::{Datum, DiscretePmf, Field, TupleId};

    fn tuple(id: u64, exist: f64, alts: Vec<(u64, f64)>) -> Tuple {
        Tuple::new(
            TupleId(id),
            exist,
            vec![
                Field::Certain(Datum::U64(id)),
                Field::Discrete(DiscretePmf::new(alts)),
            ],
        )
    }

    fn rows(tuples: &[Tuple], picks: &[(u64, f64)]) -> Vec<PtqResult> {
        picks
            .iter()
            .map(|&(id, confidence)| PtqResult {
                tuple: tuples.iter().find(|t| t.id.0 == id).unwrap().clone(),
                confidence,
            })
            .collect()
    }

    fn table() -> Vec<Tuple> {
        vec![
            tuple(1, 1.0, vec![(7, 0.9), (8, 0.1)]),
            tuple(2, 0.5, vec![(7, 0.8)]),
            tuple(3, 1.0, vec![(8, 0.6), (9, 0.3)]),
            tuple(4, 1.0, vec![(7, 0.2), (9, 0.7)]),
        ]
    }

    #[test]
    fn threshold_answers_are_checked_both_ways() {
        let t = table();
        let op = QueryOp::Point { value: 7, qt: 0.3 };
        let (m, eps) = discrete_matches(t.iter(), &op, 1, 1);
        assert_eq!(m.len(), 3);
        let want = want_of(&op);
        assert!(check(&m, want, eps, &rows(&t, &[(1, 0.9), (2, 0.4)])).is_ok());
        // Missing row, extra row, wrong confidence, below threshold.
        assert!(check(&m, want, eps, &rows(&t, &[(1, 0.9)])).is_err());
        assert!(check(&m, want, eps, &rows(&t, &[(1, 0.9), (2, 0.4), (3, 0.6)])).is_err());
        assert!(check(&m, want, eps, &rows(&t, &[(1, 0.9), (2, 0.41)])).is_err());
        assert!(check(&m, want, eps, &rows(&t, &[(1, 0.9), (2, 0.4), (4, 0.2)])).is_err());
    }

    #[test]
    fn range_confidence_sums_alternatives() {
        let t = table();
        let op = QueryOp::Range {
            lo: 8,
            hi: 9,
            qt: 0.5,
        };
        let (m, eps) = discrete_matches(t.iter(), &op, 1, 1);
        assert_eq!(eps, 2.0 * EPS);
        let got = rows(&t, &[(3, 0.6 + 0.3), (4, 0.7)]);
        assert!(check(&m, want_of(&op), eps, &got).is_ok());
    }

    #[test]
    fn top_k_allows_ties_but_not_gaps() {
        let t = table();
        let op = QueryOp::TopK { value: 7, k: 2 };
        let (m, eps) = discrete_matches(t.iter(), &op, 1, 1);
        let want = want_of(&op);
        assert!(check(&m, want, eps, &rows(&t, &[(1, 0.9), (2, 0.4)])).is_ok());
        // Skipping the second-best row for the third is a wrong answer.
        assert!(check(&m, want, eps, &rows(&t, &[(1, 0.9), (4, 0.2)])).is_err());
        assert!(check(&m, want, eps, &rows(&t, &[(1, 0.9)])).is_err());
        // Fewer matches than k: all of them must come back.
        let all = QueryOp::TopK { value: 9, k: 10 };
        let (m9, eps9) = discrete_matches(t.iter(), &all, 1, 1);
        assert!(check(&m9, want_of(&all), eps9, &rows(&t, &[(4, 0.7), (3, 0.3)])).is_ok());
        assert!(check(&m9, want_of(&all), eps9, &rows(&t, &[(4, 0.7)])).is_err());
    }
}
