//! Shard equivalence oracle: a [`ShardedDb`] — one logical table hash-
//! or range-partitioned across N independent stores, each shard with its
//! own buffer pool, statistics, and planner — must be *byte-equal* to a
//! single-table [`UncertainDb`] facade holding the same rows, for every
//! classic query shape (`ptq`, `ptq_range`, `ptq_secondary`, `top_k`),
//! across randomized shard counts, routing layouts, physical layouts,
//! and interleaved insert/delete/update DML.
//!
//! "Byte-equal" is literal: fingerprints compare `confidence.to_bits()`,
//! not a rounded value, so the scatter-gather merge (including the
//! shared-watermark top-k fast path) may not differ from the unsharded
//! answer even in the last ULP. Nothing is flushed before comparison:
//! auto-flush boundaries differ between one table and N shards, so the
//! same row may sit in a fractured insert buffer on one side and in a
//! flushed component on the other, and both score it on the same grid.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

use upi::{FracturedConfig, ShardLayout, TableLayout, UpiConfig};
use upi_query::{PtqResult, ShardedDb, UncertainDb};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema, Tuple, TupleId};

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
}

fn schema() -> Schema {
    Schema::new(vec![
        ("g", FieldKind::U64),
        ("prim", FieldKind::Discrete),
        ("sec", FieldKind::Discrete),
    ])
}

/// A random PMF over a small value domain, deduped and normalized.
fn pmf_strategy(domain: u64) -> impl Strategy<Value = DiscretePmf> {
    proptest::collection::vec((0u64..domain, 0.01f64..1.0), 1..4).prop_map(|raw| {
        let mut alts: Vec<(u64, f64)> = Vec::new();
        for (v, w) in raw {
            match alts.iter_mut().find(|(av, _)| *av == v) {
                Some((_, aw)) => *aw += w,
                None => alts.push((v, w)),
            }
        }
        let total: f64 = alts.iter().map(|(_, w)| w).sum();
        let scale = 0.999 / total.max(1.0);
        DiscretePmf::new(
            alts.into_iter()
                .map(|(v, w)| (v, (w * scale).max(1e-6)))
                .collect(),
        )
    })
}

fn tuple_strategy(id: u64) -> impl Strategy<Value = Tuple> {
    (0.05f64..=1.0, pmf_strategy(8), pmf_strategy(6)).prop_map(move |(exist, prim, sec)| {
        Tuple::new(
            TupleId(id),
            exist,
            vec![
                Field::Certain(Datum::U64(id % 4)),
                Field::Discrete(prim),
                Field::Discrete(sec),
            ],
        )
    })
}

fn table_strategy() -> impl Strategy<Value = Vec<Tuple>> {
    (1usize..30).prop_flat_map(|n| (0..n as u64).map(tuple_strategy).collect::<Vec<_>>())
}

/// A tuple with a random id from a small domain, so later rounds update
/// (same id, newer version shadows) or revive (delete then re-insert)
/// earlier rows as often as they add fresh ones.
fn any_tuple_strategy() -> impl Strategy<Value = Tuple> {
    (0u64..40).prop_flat_map(tuple_strategy)
}

/// One maintenance round: tuples to insert/update, then ids to delete.
fn rounds_strategy() -> impl Strategy<Value = Vec<(Vec<Tuple>, Vec<u64>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(any_tuple_strategy(), 0..8),
            proptest::collection::vec(0u64..40, 0..6),
        ),
        1..=3,
    )
}

/// Random id-routing layout: hash-partitioned over 1–5 shards, or
/// range-partitioned by random sorted bounds over the id domain.
fn shard_layout_strategy() -> impl Strategy<Value = ShardLayout> {
    prop_oneof![
        (1usize..=5).prop_map(ShardLayout::HashTid),
        proptest::collection::btree_set(1u64..40, 1..4)
            .prop_map(|bounds| ShardLayout::RangeTid(bounds.into_iter().collect())),
    ]
}

/// Random physical layout shared by every shard and the facade: a plain
/// clustered UPI, or a fractured UPI whose auto-flush threshold differs
/// per choice (so the sharded and unsharded sides fracture at different
/// points in the same history).
fn table_layout_strategy() -> impl Strategy<Value = TableLayout> {
    (
        0.0f64..=0.8,
        prop_oneof![Just(None), (0usize..10).prop_map(Some)],
    )
        .prop_map(|(cutoff, buffer_ops)| {
            let cfg = UpiConfig {
                cutoff,
                ..UpiConfig::default()
            };
            match buffer_ops {
                None => TableLayout::Upi(cfg),
                Some(buffer_ops) => TableLayout::FracturedUpi(FracturedConfig {
                    upi: cfg,
                    buffer_ops,
                }),
            }
        })
}

/// Byte-exact fingerprint: `(tid, confidence bits)` in result order.
/// Both sides emit the canonical order (confidence descending, ties by
/// ascending tuple id), so the comparison covers ordering too.
fn fingerprint(rows: &[PtqResult]) -> Vec<(u64, u64)> {
    rows.iter()
        .map(|r| (r.tuple.id.0, r.confidence.to_bits()))
        .collect()
}

/// Recovery must re-seed the global id horizon from the per-shard
/// `next_id` high-water marks, not from the surviving rows: deleting
/// the highest-id tuple before the crash leaves the live maximum
/// *below* an id the table has already issued, and a post-recovery
/// insert that rescanned live tuples would re-issue it — silently
/// shadowing (or colliding with) history on a hash layout.
#[test]
fn recovered_sharded_db_never_reuses_a_deleted_id() {
    let sts: Vec<Store> = (0..3).map(|_| store()).collect();
    let layout = ShardLayout::HashTid(3);
    let mut sharded = ShardedDb::create(
        sts.clone(),
        "rec",
        schema(),
        1,
        TableLayout::Upi(UpiConfig::default()),
        layout.clone(),
    )
    .unwrap();
    sharded.enable_durability().unwrap();
    let fields = |v: u64| {
        vec![
            Field::Certain(Datum::U64(0)),
            Field::Discrete(DiscretePmf::new(vec![(v, 0.9)])),
            Field::Discrete(DiscretePmf::new(vec![(v % 6, 0.5)])),
        ]
    };
    let mut last = TupleId(0);
    for i in 0..30u64 {
        last = sharded.insert(1.0, fields(i % 8)).unwrap();
    }
    let victim = sharded
        .live_tuples()
        .unwrap()
        .into_iter()
        .max_by_key(|t| t.id.0)
        .unwrap();
    assert_eq!(victim.id, last, "inserts issue ascending ids");
    sharded.delete(&victim).unwrap();
    sharded.sync_wal().unwrap();
    drop(sharded);

    let (mut recovered, _) = ShardedDb::recover(sts, "rec", layout).unwrap();
    let before = recovered.ptq(3, 0.0).unwrap().len();
    let id = recovered.insert(1.0, fields(3)).unwrap();
    assert!(
        id.0 > last.0,
        "post-recovery insert re-issued id {} (the deleted horizon was {})",
        id.0,
        last.0
    );
    let after = recovered.ptq(3, 0.0).unwrap();
    assert_eq!(
        after.len(),
        before + 1,
        "the fresh row must coexist with every recovered one"
    );
    assert_eq!(
        after.iter().filter(|r| r.tuple.id == id).count(),
        1,
        "exactly one row carries the fresh id"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    #[test]
    fn sharded_queries_byte_equal_single_table(
        initial in table_strategy(),
        rounds in rounds_strategy(),
        shard_layout in shard_layout_strategy(),
        table_layout in table_layout_strategy(),
        value in 0u64..8,
        sec_value in 0u64..6,
        qt in 0.0f64..=0.9,
        k in 1usize..6,
        lo in 0u64..8,
        width in 0u64..4,
    ) {
        let n = shard_layout.n_shards();
        let mut sharded = ShardedDb::create(
            (0..n).map(|_| store()).collect(),
            "t",
            schema(),
            1,
            table_layout.clone(),
            shard_layout,
        )
        .unwrap();
        sharded.add_secondary(2).unwrap();

        let mut single =
            UncertainDb::create(store(), "t", schema(), 1, table_layout).unwrap();
        single.add_secondary(2).unwrap();

        sharded.load(&initial).unwrap();
        single.load(&initial).unwrap();
        let mut model: BTreeMap<u64, Tuple> = BTreeMap::new();
        for t in &initial {
            model.insert(t.id.0, t.clone());
        }

        for (inserts, deletes) in rounds {
            for t in inserts {
                match model.insert(t.id.0, t.clone()) {
                    // Same id alive on both sides: an in-place update.
                    Some(old) => {
                        sharded.update(&old, &t).unwrap();
                        single.update(&old, &t).unwrap();
                    }
                    None => {
                        sharded.insert_tuple(&t).unwrap();
                        single.insert_tuple(&t).unwrap();
                    }
                }
            }
            for id in deletes {
                if let Some(old) = model.remove(&id) {
                    sharded.delete(&old).unwrap();
                    single.delete(&old).unwrap();
                }
            }
        }

        let hi = (lo + width).min(7);
        prop_assert_eq!(
            fingerprint(&sharded.ptq(value, qt).unwrap()),
            fingerprint(&single.ptq(value, qt).unwrap()),
            "ptq({value}, {qt}) diverged over {n} shards",
        );
        prop_assert_eq!(
            fingerprint(&sharded.ptq_range(lo, hi, qt).unwrap()),
            fingerprint(&single.ptq_range(lo, hi, qt).unwrap()),
            "ptq_range({lo}, {hi}, {qt}) diverged over {n} shards",
        );
        prop_assert_eq!(
            fingerprint(&sharded.ptq_secondary(0, sec_value, qt).unwrap()),
            fingerprint(&single.ptq_secondary(0, sec_value, qt).unwrap()),
            "ptq_secondary(0, {sec_value}, {qt}) diverged over {n} shards",
        );
        // The scatter-gather fast path: per-shard confidence-ordered
        // cursors under one shared top-k watermark.
        prop_assert_eq!(
            fingerprint(&sharded.top_k(value, k).unwrap()),
            fingerprint(&single.top_k(value, k).unwrap()),
            "top_k({value}, {k}) diverged over {n} shards",
        );
    }
}
