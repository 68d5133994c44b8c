//! Device-identity pin: the B+Tree's page-access sequence is part of its
//! contract. Every simulated-device figure in the repo (the paper's
//! numbers) is a function of which pages the tree asks the pool for and
//! in what order, so a change to how nodes are *read* in memory must
//! leave these counts exactly where they are. The constants below were
//! recorded on the commit before nodes were searched in place; change
//! them only together with a deliberate change to the on-page format or
//! the access pattern, and say so.

use std::sync::Arc;
use upi_btree::BTree;
use upi_storage::{DiskConfig, SimDisk, Store};

/// Deterministic 64-bit LCG (no external RNG, so the script is the same
/// on every toolchain).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

fn key(i: u64) -> Vec<u8> {
    format!("k{:09}", i * 10).into_bytes()
}

#[test]
fn page_access_sequence_is_pinned() {
    // 512 KB pool against a ~2 MB tree: misses, evictions and dirty
    // write-backs all happen, so the pin covers them.
    let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 512 << 10);
    let mut tree = BTree::create(store.clone(), "pin", 8192).unwrap();
    let value = [0xabu8; 72];
    tree.bulk_load((0..20_000u64).map(|i| (key(i), value.to_vec())))
        .unwrap();
    store.go_cold();
    let pool0 = store.pool.counters();
    let disk0 = store.disk.stats();

    let mut rng = Lcg(0x5eed_0012);
    let mut seen = 0u64;
    for _ in 0..500 {
        let mut cur = tree.seek(&key(rng.next(20_000))).unwrap();
        for _ in 0..50 {
            if !cur.valid() {
                break;
            }
            seen += cur.value().len() as u64;
            cur.advance().unwrap();
        }
    }
    for _ in 0..500 {
        // Odd suffix: always a new key, landing between two loaded ones.
        let mut k = key(rng.next(20_000));
        k.push(b'5');
        tree.insert(&k, &value).unwrap();
    }
    let mut removed = 0u64;
    for _ in 0..500 {
        removed += tree.delete(&key(rng.next(20_000))).unwrap() as u64;
    }
    store.pool.flush_all();

    let pool = store.pool.counters().since(&pool0);
    let disk = store.disk.stats().since(&disk0);
    let got = (
        seen,
        removed,
        tree.len(),
        tree.stats().pages,
        pool.hits,
        pool.misses,
        disk.page_reads,
        disk.page_writes,
    );
    assert_eq!(
        got, PINNED,
        "(seen, removed, len, pages, hits, misses, page_reads, page_writes)"
    );
}

/// Recorded on the parent commit (decode-on-read `Node`).
const PINNED: (u64, u64, u64, usize, u64, u64, u64, u64) =
    (1_800_000, 496, 20_001, 237, 2_994, 1_286, 2_682, 793);
