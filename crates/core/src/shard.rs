//! Horizontal partitioning: one logical table over N independent stores.
//!
//! `upi_query::ShardedDb` splits one logical
//! [`UncertainTable`](crate::table::UncertainTable) across N shards, each
//! a full table over its **own** store — its own simulated disk, buffer
//! pool, WAL, statistics and calibrated cost model. This module holds the
//! piece of that design that is a pure function of the data: how tuple
//! ids map to shards ([`ShardLayout`]). Each shard's max-confidence
//! bounds, which a scatter prunes by, are a
//! [`ConfidenceBound`](crate::ConfidenceBound). The split
//! is by **tuple id**, never by attribute value: a tuple's alternatives
//! must stay together (possible-world semantics are per tuple), and id
//! routing keeps every layout — unclustered, UPI, fractured — valid per
//! shard with zero cross-shard coordination on DML.

/// How tuple ids map to shards. Both variants are pure functions of the
/// id, so routing is deterministic across sessions and recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardLayout {
    /// Multiplicative hashing of the tuple id over `n` shards — spreads
    /// any id sequence (dense auto-increment included) evenly.
    HashTid(usize),
    /// Range partitioning by ascending id boundaries: shard `i` holds
    /// ids below `boundaries[i]`; one final shard holds the rest, so
    /// `boundaries.len() + 1` shards total.
    RangeTid(Vec<u64>),
}

impl ShardLayout {
    /// Number of shards this layout routes over.
    pub fn n_shards(&self) -> usize {
        match self {
            ShardLayout::HashTid(n) => *n,
            ShardLayout::RangeTid(bounds) => bounds.len() + 1,
        }
    }

    /// The shard holding tuple `tid`.
    pub fn route(&self, tid: u64) -> usize {
        match self {
            ShardLayout::HashTid(n) => {
                // Fibonacci hashing: multiply by 2^64/phi, take the top
                // bits' remainder — cheap, deterministic, well-spread.
                (tid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize % n.max(&1)
            }
            ShardLayout::RangeTid(bounds) => bounds.partition_point(|&b| b <= tid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfidenceBound;
    use upi_storage::codec::{dequantize_prob, quantize_prob};
    use upi_uncertain::{Datum, DiscretePmf, Field, Tuple, TupleId};

    fn row(inst: u64, p: f64, country: u64) -> Vec<Field> {
        vec![
            Field::Certain(Datum::Str("x".into())),
            Field::Discrete(DiscretePmf::new(vec![
                (inst, p),
                (inst + 100, (1.0 - p) * 0.5),
            ])),
            Field::Discrete(DiscretePmf::new(vec![(country, 1.0)])),
        ]
    }

    #[test]
    fn routing_is_deterministic_total_and_balanced() {
        for layout in [
            ShardLayout::HashTid(4),
            ShardLayout::RangeTid(vec![250, 500, 750]),
        ] {
            assert_eq!(layout.n_shards(), 4);
            let mut per_shard = [0usize; 4];
            for tid in 0..1000u64 {
                let s = layout.route(tid);
                assert_eq!(s, layout.route(tid), "routing must be a pure function");
                per_shard[s] += 1;
            }
            for (i, &n) in per_shard.iter().enumerate() {
                assert!(
                    n > 150,
                    "{layout:?}: shard {i} got {n}/1000 — unbalanced split"
                );
            }
        }
    }

    #[test]
    fn range_routing_honors_boundaries() {
        let l = ShardLayout::RangeTid(vec![10, 20]);
        assert_eq!(l.route(0), 0);
        assert_eq!(l.route(9), 0);
        assert_eq!(l.route(10), 1);
        assert_eq!(l.route(19), 1);
        assert_eq!(l.route(20), 2);
        assert_eq!(l.route(u64::MAX), 2);
    }

    #[test]
    fn shard_stats_bound_rows_and_round_up_to_the_quantization_grid() {
        let mut st = ConfidenceBound::new();
        assert_eq!(st.bound(7), 0.0);
        let t = Tuple::new(TupleId(0), 0.9, row(7, 0.61, 1));
        st.note_tuple(1, &t);
        // Every alternative is bounded: 7 at 0.9*0.61, 107 at the rest.
        assert!(st.bound(7) >= 0.9 * 0.61);
        assert!(st.bound(107) >= 0.9 * (1.0 - 0.61) * 0.5);
        assert!(st.max_conf() >= 0.9 * 0.61);
        // The bound also covers the quantized (stored) confidence, which
        // rounds to nearest and may exceed the exact one.
        let q = dequantize_prob(quantize_prob(0.9 * 0.61));
        assert!(st.bound(7) >= q);
        // Raise-only: noting a weaker row never lowers a bound.
        let before = st.bound(7);
        st.note_tuple(1, &Tuple::new(TupleId(1), 0.1, row(7, 0.2, 1)));
        assert!(st.bound(7) >= before);
        // Non-discrete primary attribute: saturate, never prune.
        let mut s2 = ConfidenceBound::new();
        s2.note_tuple(0, &t);
        assert_eq!(s2.bound(12345), 1.0);
        assert_eq!(s2.max_conf(), 1.0);
    }
}
