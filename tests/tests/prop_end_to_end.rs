//! Property-based end-to-end tests: arbitrary small uncertain tables and
//! query mixes; every index must agree with a brute-force oracle, and the
//! cutoff partition invariant must hold for every cutoff threshold.

use proptest::prelude::*;
use std::sync::Arc;

use upi::{DiscreteUpi, Pii, UnclusteredHeap, UpiConfig};
use upi_storage::codec::{dequantize_prob, quantize_prob};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, Tuple, TupleId};

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
}

/// Strategy: a tuple with 1–4 alternatives over a small value domain.
fn tuple_strategy(id: u64) -> impl Strategy<Value = Tuple> {
    (
        0.05f64..=1.0,
        proptest::collection::vec((0u64..8, 0.01f64..1.0), 1..4),
    )
        .prop_map(move |(exist, raw)| {
            // Dedupe values and normalize probabilities to sum <= 1.
            let mut alts: Vec<(u64, f64)> = Vec::new();
            for (v, w) in raw {
                match alts.iter_mut().find(|(av, _)| *av == v) {
                    Some((_, aw)) => *aw += w,
                    None => alts.push((v, w)),
                }
            }
            let total: f64 = alts.iter().map(|(_, w)| w).sum();
            let scale = 0.999 / total.max(1.0);
            let alts: Vec<(u64, f64)> = alts
                .into_iter()
                .map(|(v, w)| (v, (w * scale).max(1e-6)))
                .collect();
            Tuple::new(
                TupleId(id),
                exist,
                vec![
                    Field::Certain(Datum::U64(id)),
                    Field::Discrete(DiscretePmf::new(alts)),
                ],
            )
        })
}

fn table_strategy() -> impl Strategy<Value = Vec<Tuple>> {
    (1usize..40).prop_flat_map(|n| (0..n as u64).map(tuple_strategy).collect::<Vec<_>>())
}

fn oracle(tuples: &[Tuple], value: u64, qt: f64) -> Vec<u64> {
    let mut out: Vec<u64> = tuples
        .iter()
        .filter(|t| {
            let conf = t.confidence_eq(1, value);
            conf > 0.0 && dequantize_prob(quantize_prob(conf)) >= qt
        })
        .map(|t| t.id.0)
        .collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn upi_and_pii_match_oracle(
        tuples in table_strategy(),
        cutoff in 0.0f64..=0.8,
        value in 0u64..8,
        qt in 0.0f64..=0.9,
    ) {
        let st = store();
        let mut upi = DiscreteUpi::create(
            st.clone(),
            "u",
            1,
            UpiConfig { cutoff, page_size: 1024, ..UpiConfig::default() },
        ).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let mut heap = UnclusteredHeap::create(st.clone(), "h", 1024).unwrap();
        heap.bulk_load(&tuples).unwrap();
        let mut pii = Pii::create(st, "p", 1, 1024).unwrap();
        pii.bulk_load(&tuples).unwrap();

        let want = oracle(&tuples, value, qt);
        let mut got_upi: Vec<u64> = upi.ptq(value, qt).unwrap()
            .iter().map(|r| r.tuple.id.0).collect();
        got_upi.sort_unstable();
        let mut got_pii: Vec<u64> = pii.ptq(&heap, value, qt).unwrap()
            .iter().map(|r| r.tuple.id.0).collect();
        got_pii.sort_unstable();
        prop_assert_eq!(&got_upi, &want, "upi cutoff={}", cutoff);
        prop_assert_eq!(&got_pii, &want, "pii");
    }

    #[test]
    fn cutoff_partition_invariant(
        tuples in table_strategy(),
        cutoff in 0.0f64..=1.0,
    ) {
        // heap entries + cutoff entries == total alternatives, and the
        // first alternative of every tuple is always heap-resident.
        let st = store();
        let mut upi = DiscreteUpi::create(
            st,
            "u",
            1,
            UpiConfig { cutoff, page_size: 1024, ..UpiConfig::default() },
        ).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let total_alts: u64 = tuples
            .iter()
            .map(|t| t.discrete(1).support_len() as u64)
            .sum();
        prop_assert_eq!(
            upi.heap_stats().entries + upi.cutoff_index().len(),
            total_alts
        );
        for t in &tuples {
            let (v, p) = t.discrete(1).first();
            let folded = p * t.exist;
            prop_assert!(
                upi.fetch_by_pointer(v, folded, t.id.0).unwrap().is_some(),
                "first alternative of {:?} must be in the heap", t.id
            );
        }
        // Every cutoff pointer dereferences to the right tuple.
        for value in 0..8u64 {
            for cp in upi.cutoff_index().scan(value, 0.0).unwrap() {
                let t = upi
                    .fetch_by_pointer(cp.first_value, cp.first_prob, cp.tid)
                    .unwrap();
                prop_assert!(t.is_some(), "dangling cutoff pointer");
                prop_assert_eq!(t.unwrap().id.0, cp.tid);
            }
        }
    }

    #[test]
    fn top_k_is_prefix_of_full_sort(
        tuples in table_strategy(),
        value in 0u64..8,
        k in 1usize..10,
    ) {
        let st = store();
        let mut upi = DiscreteUpi::create(
            st,
            "u",
            1,
            UpiConfig { page_size: 1024, ..UpiConfig::default() },
        ).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let top: Vec<_> = upi
            .chain()
            .point_run(value, 0.0, Some(k))
            .unwrap()
            .take(k)
            .collect::<Result<_, _>>()
            .unwrap();
        let all = upi.ptq(value, 0.0).unwrap();
        prop_assert_eq!(top.len(), all.len().min(k));
        for (a, b) in top.iter().zip(all.iter()) {
            prop_assert!((a.confidence - b.confidence).abs() < 1e-9);
        }
    }
}
