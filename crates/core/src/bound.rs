//! Sound per-value confidence upper bounds.
//!
//! One [`ConfidenceBound`] sketch answers "can any row with primary value
//! `v` here reach confidence `c`?" without reading a page. Two owners
//! keep one: every [`DiscreteUpi`](crate::DiscreteUpi) component (so a
//! chain merge opens only the components, and a range only the cutoff
//! phase, that a bound says can qualify) and every shard of
//! `upi_query::ShardedDb` (so a scatter skips whole shards).

use upi_storage::codec::{dequantize_prob, quantize_prob};
use upi_uncertain::{Field, Tuple};

/// Buckets in the per-value max-confidence sketch: small enough to sit
/// in RAM per component or shard (2 KB), wide enough that a handful of
/// hot values rarely collide.
pub(crate) const SKETCH_BUCKETS: usize = 256;

/// The maximum confidence any alternative noted here could reach,
/// overall and per hashed primary value.
///
/// Both are **sound upper bounds**, never exact: every insert/load/update
/// raises them, deletes and updates never lower them (rebuilding from
/// live tuples is the only tightening operation). A reader may therefore
/// skip *opening* a structure whose bound is **strictly** below the
/// confidence it still needs — qualifying rows have `confidence >= qt`,
/// so a bound equal to the threshold must still be visited. Bounds are
/// rounded up to the storage quantization grid ([`quantize_prob`] rounds
/// to nearest, so a stored row's keyed confidence can exceed the exact
/// one), and a noted alternative always leaves a bound above zero, so a
/// zero bound means no row for the value's bucket was ever noted.
#[derive(Debug, Clone)]
pub struct ConfidenceBound {
    max_conf: f64,
    sketch: [f64; SKETCH_BUCKETS],
}

impl Default for ConfidenceBound {
    fn default() -> ConfidenceBound {
        ConfidenceBound {
            max_conf: 0.0,
            sketch: [0.0; SKETCH_BUCKETS],
        }
    }
}

impl ConfidenceBound {
    /// Empty bounds (0 everywhere: an empty structure can be skipped by
    /// any query with `qt > 0`).
    pub fn new() -> ConfidenceBound {
        ConfidenceBound::default()
    }

    fn bucket(value: u64) -> usize {
        // Same fibonacci-hash family as `ShardLayout::HashTid`, taking
        // the top 8 bits.
        (value.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize % SKETCH_BUCKETS
    }

    /// Raise the bounds for one `(value, confidence)` alternative.
    pub fn note(&mut self, value: u64, conf: f64) {
        // A stored confidence is quantized to-nearest and may round UP:
        // bound the quantized form too, or a stored row could beat the
        // sketch by half a quantum and a sound-looking skip would drop it.
        let conf = conf
            .max(dequantize_prob(quantize_prob(conf)))
            .max(f64::MIN_POSITIVE);
        if conf > self.max_conf {
            self.max_conf = conf;
        }
        let b = Self::bucket(value);
        if conf > self.sketch[b] {
            self.sketch[b] = conf;
        }
    }

    /// Raise the bounds for every alternative of `t`'s attribute `attr`.
    /// Non-discrete or out-of-range attributes saturate every bound to
    /// 1.0 — no pruning rather than unsound pruning.
    pub fn note_tuple(&mut self, attr: usize, t: &Tuple) {
        match t.fields.get(attr) {
            Some(Field::Discrete(pmf)) => {
                for &(v, p) in pmf.alternatives() {
                    self.note(v, t.exist * p);
                }
            }
            _ => {
                self.max_conf = 1.0;
                self.sketch = [1.0; SKETCH_BUCKETS];
            }
        }
    }

    /// Upper bound on the confidence any row with primary value `value`
    /// can reach.
    pub fn bound(&self, value: u64) -> f64 {
        self.sketch[Self::bucket(value)]
    }

    /// Upper bound on any confidence, regardless of value.
    pub fn max_conf(&self) -> f64 {
        self.max_conf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_noted_row_never_leaves_a_zero_bound() {
        let mut st = ConfidenceBound::new();
        st.note(3, 0.0);
        assert!(st.bound(3) > 0.0, "zero means no row was noted");
    }
}
