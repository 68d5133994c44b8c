//! Model-based property test: the B+Tree must behave exactly like
//! `std::collections::BTreeMap` under arbitrary operation sequences.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use upi_btree::BTree;
use upi_storage::{DiskConfig, SimDisk, Store};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
    Seek(Vec<u8>),
    FullScan,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet and lengths maximize collisions between operations.
    proptest::collection::vec(0u8..4, 0..5)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (key_strategy(), proptest::collection::vec(any::<u8>(), 0..12))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        2 => key_strategy().prop_map(Op::Delete),
        2 => key_strategy().prop_map(Op::Get),
        1 => key_strategy().prop_map(Op::Seek),
        1 => Just(Op::FullScan),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 1 << 20);
        // Tiny pages force frequent splits/merges even with short keys.
        let mut tree = BTree::create(store, "model", 256).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let was_new = tree.insert(&k, &v).unwrap();
                    let model_new = model.insert(k, v).is_none();
                    prop_assert_eq!(was_new, model_new);
                }
                Op::Delete(k) => {
                    let removed = tree.delete(&k).unwrap();
                    prop_assert_eq!(removed, model.remove(&k).is_some());
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned());
                }
                Op::Seek(k) => {
                    let c = tree.seek(&k).unwrap();
                    let expect = model.range(k.clone()..).next();
                    match expect {
                        Some((mk, mv)) => {
                            prop_assert!(c.valid());
                            prop_assert_eq!(c.key(), mk.as_slice());
                            prop_assert_eq!(c.value(), mv.as_slice());
                        }
                        None => prop_assert!(!c.valid()),
                    }
                }
                Op::FullScan => {
                    let got: Vec<_> = tree.iter().unwrap().map(Result::unwrap).collect();
                    let want: Vec<_> = model
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len() as usize, model.len());
        }
        // Final full check.
        let got: Vec<_> = tree.iter().unwrap().map(Result::unwrap).collect();
        let want: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bulk_load_equals_incremental(
        mut keys in proptest::collection::btree_set(
            proptest::collection::vec(any::<u8>(), 1..10), 0..300)
    ) {
        let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 1 << 20);
        let items: Vec<(Vec<u8>, Vec<u8>)> = std::mem::take(&mut keys)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, format!("v{i}").into_bytes()))
            .collect();

        let mut bulk = BTree::create(store.clone(), "bulk", 256).unwrap();
        bulk.bulk_load(items.clone()).unwrap();

        let mut incr = BTree::create(store, "incr", 256).unwrap();
        for (k, v) in &items {
            incr.insert(k, v).unwrap();
        }

        let a: Vec<_> = bulk.iter().unwrap().map(Result::unwrap).collect();
        let b: Vec<_> = incr.iter().unwrap().map(Result::unwrap).collect();
        prop_assert_eq!(a, b);
        prop_assert_eq!(bulk.len(), incr.len());
    }
}

/// A long seeded interleaving of insert / replace / delete / get / seek +
/// bounded scan, checked against `BTreeMap` after every op, at a page size
/// that keeps the tree four or five levels deep (512 B) and at the
/// production one (8 KB). Where the proptest above exercises tiny trees
/// exhaustively, this one grows a tree through thousands of splits and
/// shrinks it back through merges, with records up to `max_record`-ish
/// sizes and every read going through in-place page views.
fn seeded_interleaving(page_size: u32, seed: u64, ops: usize) {
    let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 2 << 20);
    let mut tree = BTree::create(store, "interleave", page_size).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let key_space = 4_000u64;
    let key = |i: u64| {
        // Variable-length keys sharing long prefixes; `i % 7 == 0` keys
        // are a prefix of their successor's spelling.
        let mut k = format!("user/{:05}", i / 7 * 7).into_bytes();
        k.resize(k.len() + (i % 7) as usize, b'x');
        k
    };
    let max_value = (tree.max_record() - 16).min(200);

    for step in 0..ops {
        // Grow for the first half, shrink for the second.
        let insert_weight = if step < ops / 2 { 6 } else { 2 };
        let k = key(rng.gen_range(0..key_space));
        match rng.gen_range(0..10) {
            r if r < insert_weight => {
                let v = vec![rng.gen::<u8>(); rng.gen_range(0..=max_value)];
                let was_new = tree.insert(&k, &v).unwrap();
                assert_eq!(was_new, model.insert(k, v).is_none(), "step {step}");
            }
            r if r < 8 => {
                let removed = tree.delete(&k).unwrap();
                assert_eq!(removed, model.remove(&k).is_some(), "step {step}");
            }
            8 => {
                assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned(), "step {step}");
                let len = tree.get_with(&k, |v| v.len()).unwrap();
                assert_eq!(len, model.get(&k).map(Vec::len), "step {step}");
            }
            _ => {
                let mut cur = tree.seek(&k).unwrap();
                let mut want = model.range(k.clone()..);
                for _ in 0..40 {
                    match want.next() {
                        Some((mk, mv)) => {
                            assert!(cur.valid(), "step {step}");
                            assert_eq!(cur.key(), mk.as_slice(), "step {step}");
                            assert_eq!(cur.value(), mv.as_slice(), "step {step}");
                            cur.advance().unwrap();
                        }
                        None => {
                            assert!(!cur.valid(), "step {step}");
                            break;
                        }
                    }
                }
            }
        }
        assert_eq!(tree.len() as usize, model.len(), "step {step}");
        if step % 1_000 == 999 {
            let got: Vec<_> = tree.iter().unwrap().map(Result::unwrap).collect();
            let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(got, want, "full scan at step {step}");
        }
    }
    // Drain what is left: a scan over the (possibly still multi-level)
    // empty tree must hop its empty leaves and end.
    for k in model.keys() {
        assert!(tree.delete(k).unwrap());
    }
    assert!(tree.is_empty());
    assert!(!tree.first().unwrap().valid());
}

#[test]
fn seeded_interleaving_small_pages() {
    seeded_interleaving(512, 0x0512, 12_000);
}

#[test]
fn seeded_interleaving_production_pages() {
    seeded_interleaving(8192, 0x8192, 12_000);
}
