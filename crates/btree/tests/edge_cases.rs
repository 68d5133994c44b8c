//! B+Tree edge cases: record-size limits, deep trees, adversarial key
//! shapes, and interleaved-tree fragmentation.

use std::sync::Arc;
use upi_btree::BTree;
use upi_storage::{DiskConfig, SimDisk, Store};

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
}

#[test]
fn records_at_the_size_limit_roundtrip() {
    let mut t = BTree::create(store(), "t", 512).unwrap();
    let max = t.max_record();
    let key = vec![7u8; max / 2];
    let val = vec![9u8; max - key.len()];
    t.insert(&key, &val).unwrap();
    assert_eq!(t.get(&key).unwrap().unwrap(), val);
    // One byte more must fail cleanly.
    let too_big = vec![1u8; max - key.len() + 1];
    assert!(t.insert(&key, &too_big).is_err());
    // The original record is intact after the failed insert.
    assert_eq!(t.get(&key).unwrap().unwrap(), val);
}

#[test]
fn max_size_records_force_minimal_fanout() {
    // Every record fills half a page: fanout 2 everywhere, maximal height.
    let mut t = BTree::create(store(), "t", 512).unwrap();
    let max = t.max_record();
    for i in 0u8..40 {
        let key = vec![i; 16];
        let val = vec![i; max - 16];
        t.insert(&key, &val).unwrap();
    }
    assert_eq!(t.len(), 40);
    // Two records per leaf => ~20 leaves => at least one internal level.
    assert!(t.height() >= 3, "height {} too small", t.height());
    assert!(t.stats().leaf_pages >= 15);
    for i in 0u8..40 {
        let key = vec![i; 16];
        assert_eq!(t.get(&key).unwrap().unwrap()[0], i);
    }
}

#[test]
fn shared_prefix_keys() {
    // Long shared prefixes stress separator choice.
    let mut t = BTree::create(store(), "t", 512).unwrap();
    let prefix = "x".repeat(60);
    let mut keys: Vec<String> = (0..500).map(|i| format!("{prefix}{i:05}")).collect();
    for k in &keys {
        t.insert(k.as_bytes(), b"v").unwrap();
    }
    keys.sort();
    let got: Vec<Vec<u8>> = t.iter().unwrap().map(|e| e.unwrap().0).collect();
    let want: Vec<Vec<u8>> = keys.iter().map(|k| k.as_bytes().to_vec()).collect();
    assert_eq!(got, want);
}

#[test]
fn empty_keys_and_values() {
    let mut t = BTree::create(store(), "t", 512).unwrap();
    t.insert(b"", b"empty-key").unwrap();
    t.insert(b"k", b"").unwrap();
    assert_eq!(t.get(b"").unwrap().unwrap(), b"empty-key");
    assert_eq!(t.get(b"k").unwrap().unwrap(), b"");
    assert!(t.delete(b"").unwrap());
    assert_eq!(t.get(b"").unwrap(), None);
    assert_eq!(t.len(), 1);
}

#[test]
fn descending_insertion_order() {
    // Left-edge splits are the asymmetric case.
    let mut t = BTree::create(store(), "t", 512).unwrap();
    for i in (0u32..2000).rev() {
        t.insert(&i.to_be_bytes(), b"v").unwrap();
    }
    assert_eq!(t.len(), 2000);
    let keys: Vec<Vec<u8>> = t.iter().unwrap().map(|e| e.unwrap().0).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn two_trees_interleaving_allocations_fragment_each_other() {
    // The §4.1 premise: multiple growing indexes on one device scatter each
    // other's pages.
    let st = store();
    let mut a = BTree::create(st.clone(), "a", 4096).unwrap();
    let mut b = BTree::create(st.clone(), "b", 4096).unwrap();
    for i in 0u32..4000 {
        a.insert(&i.to_be_bytes(), &[0u8; 128]).unwrap();
        b.insert(&i.to_be_bytes(), &[1u8; 128]).unwrap();
    }
    st.go_cold();
    let before = st.disk.stats();
    let n = a.iter().unwrap().count();
    let delta = st.disk.stats().since(&before);
    assert_eq!(n, 4000);
    // Scanning tree `a` must hop over tree `b`'s pages: many seeks even
    // though `a`'s keys arrived in order.
    assert!(
        delta.seeks as usize > a.stats().leaf_pages / 2,
        "interleaved trees must fragment: {} seeks over {} leaves",
        delta.seeks,
        a.stats().leaf_pages
    );
}

#[test]
fn reinserting_after_full_deletion_reuses_freed_pages() {
    let st = store();
    let mut t = BTree::create(st.clone(), "t", 512).unwrap();
    for round in 0..3 {
        for i in 0u32..1000 {
            t.insert(&i.to_be_bytes(), format!("r{round}").as_bytes())
                .unwrap();
        }
        for i in 0u32..1000 {
            t.delete(&i.to_be_bytes()).unwrap();
        }
        assert_eq!(t.len(), 0, "round {round}");
    }
    // The file must not have grown unboundedly: freed pages were recycled.
    let file_bytes = st.disk.file_bytes(t.file()).unwrap();
    assert!(
        file_bytes <= 64 * 512,
        "file kept {file_bytes} bytes after full deletions"
    );
}
