//! Sound per-value confidence upper bounds.
//!
//! One [`ConfidenceBound`] sketch answers "can any row with primary value
//! `v` here reach confidence `c`?" without reading a page. Every
//! [`DiscreteUpi`](crate::DiscreteUpi) component owns one, noted as it
//! stores rows and rebuilt with it, so a chain merge opens only the
//! components, and a range only the cutoff phase, that a bound says can
//! qualify. A table's bound is read off its chain
//! ([`UncertainTable::confidence_bound`](crate::UncertainTable::confidence_bound)),
//! and a shard of `upi_query::ShardedDb` skips by its table's bound.

use upi_storage::codec::{dequantize_prob, quantize_prob};

/// Buckets in the per-value max-confidence sketch: small enough to sit
/// in RAM per component (2 KB), wide enough that a handful of
/// hot values rarely collide.
pub(crate) const SKETCH_BUCKETS: usize = 256;

/// The maximum confidence any alternative noted here could reach, per
/// hashed primary value.
///
/// It is a **sound upper bound**, never exact: every insert/load/update
/// raises it, deletes and updates never lower it (the owner's rebuild —
/// a fold, a flush into a new component, a recovery — is the only
/// tightening operation). A reader may therefore
/// skip *opening* a structure whose bound is **strictly** below the
/// confidence it still needs — qualifying rows have `confidence >= qt`,
/// so a bound equal to the threshold must still be visited. Bounds are
/// rounded up to the storage quantization grid ([`quantize_prob`] rounds
/// to nearest, so a stored row's keyed confidence can exceed the exact
/// one), and a noted alternative always leaves a bound above zero, so a
/// zero bound means no row for the value's bucket was ever noted.
#[derive(Debug, Clone)]
pub struct ConfidenceBound {
    sketch: [f64; SKETCH_BUCKETS],
}

impl Default for ConfidenceBound {
    fn default() -> ConfidenceBound {
        ConfidenceBound {
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

    /// Raise the bound for one `(value, confidence)` alternative.
    pub fn note(&mut self, value: u64, conf: f64) {
        // A stored confidence is quantized to-nearest and may round UP:
        // bound the quantized form too, or a stored row could beat the
        // sketch by half a quantum and a sound-looking skip would drop it.
        let conf = conf
            .max(dequantize_prob(quantize_prob(conf)))
            .max(f64::MIN_POSITIVE);
        let b = Self::bucket(value);
        if conf > self.sketch[b] {
            self.sketch[b] = conf;
        }
    }

    /// Upper bound on the confidence any row with primary value `value`
    /// can reach.
    pub fn bound(&self, value: u64) -> f64 {
        self.sketch[Self::bucket(value)]
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

    #[test]
    fn bounds_cover_every_alternative_and_round_up_to_the_quantization_grid() {
        let mut st = ConfidenceBound::new();
        assert_eq!(st.bound(7), 0.0);
        // One row with alternatives 7 at 0.9*0.61 and 107 at the rest.
        st.note(7, 0.9 * 0.61);
        st.note(107, 0.9 * (1.0 - 0.61) * 0.5);
        assert!(st.bound(7) >= 0.9 * 0.61);
        assert!(st.bound(107) >= 0.9 * (1.0 - 0.61) * 0.5);
        // The bound also covers the quantized (stored) confidence, which
        // rounds to nearest and may exceed the exact one.
        let q = dequantize_prob(quantize_prob(0.9 * 0.61));
        assert!(st.bound(7) >= q);
        // Raise-only: noting a weaker row never lowers a bound.
        let before = st.bound(7);
        st.note(7, 0.1 * 0.2);
        assert!(st.bound(7) >= before);
    }
}
