//! Watermark-bounded fracture-parallel top-k.
//!
//! A fractured point merge cannot bound any single component's cutoff
//! scan by k: a newer fracture's delete set may suppress arbitrarily
//! many of that component's most-confident candidates (which is why
//! the fractured point merge historically scanned each cutoff list
//! unbounded). The sound bound is *global*: the running k-th-highest
//! confidence over surviving rows already seen — suppression only ever
//! removes rows, so once k survivors sit at/above the watermark, every
//! probability-descending component list is irrelevant from its first
//! below-watermark entry onward.
//!
//! These tests pin both halves of the claim:
//! * for random k, fracture counts, delete patterns, and insert-buffer
//!   shapes, the bounded merge's first k rows are **byte-identical**
//!   (tid and confidence bits) to the unbounded merge's top k and to the
//!   batch `ptq` prefix;
//! * on a suppression-heavy table — thousands of cutoff entries whose
//!   tuples a newer fracture deleted — `PoolCounters` shows strictly
//!   fewer pages read once the components' cutoff lists exceed the k
//!   surviving rows the query needs.

use std::sync::Arc;

use upi::{FracturedConfig, FracturedUpi, PtqResult, UpiConfig};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, Tuple, TupleId};

/// The queried primary value every interesting row targets.
const QV: u64 = 7;

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 16 << 20)
}

/// A tuple whose *first* alternative is `(first_v, first_p)`, optionally
/// with a second (lower-probability) alternative.
fn tuple(id: u64, first_v: u64, first_p: f64, second: Option<(u64, f64)>) -> Tuple {
    let mut alts = vec![(first_v, first_p)];
    if let Some(s) = second {
        alts.push(s);
    }
    Tuple::new(
        TupleId(id),
        1.0,
        vec![
            Field::Certain(Datum::Str(format!("t{id}"))),
            Field::Discrete(DiscretePmf::new(alts)),
        ],
    )
}

/// Deterministic splitmix-style generator for the randomized shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn key(r: &PtqResult) -> (u64, u64) {
    (r.tuple.id.0, r.confidence.to_bits())
}

/// The top `k` rows of the point merge: bounded (the first k rows of the
/// confidence-ordered top-k merge) or unbounded (every row, each
/// component running Algorithm 2, sorted afterwards).
fn first_k(f: &FracturedUpi, qt: f64, k: usize, bounded: bool) -> Vec<(u64, u64)> {
    let run = f
        .chain()
        .point_run(QV, qt, bounded.then_some(k), &[])
        .unwrap();
    if bounded {
        return run.take(k).map(|r| key(&r.unwrap())).collect();
    }
    let mut rows: Vec<PtqResult> = run.collect::<Result<_, _>>().unwrap();
    upi::sort_results(&mut rows);
    rows.iter().take(k).map(key).collect()
}

#[test]
fn bounded_topk_is_byte_identical_for_random_shapes() {
    let mut rng = Rng(0x5eed_cafe);
    for trial in 0..12 {
        let st = store();
        let cfg = UpiConfig {
            cutoff: 0.5,
            page_size: 4096,
            ..UpiConfig::default()
        };
        let mut f = FracturedUpi::create(
            st.clone(),
            &format!("wm{trial}"),
            1,
            &[],
            FracturedConfig {
                upi: cfg,
                buffer_ops: 0,
            },
        )
        .unwrap();

        // Main: a few high-confidence heap rows at QV plus a long
        // descending cutoff list (second alternatives below C).
        let n_donors = 300 + rng.below(300) as usize;
        let n_heads = rng.below(5) as usize;
        let mut initial = Vec::new();
        for i in 0..n_donors as u64 {
            let p = 0.45 - 0.44 * i as f64 / n_donors as f64;
            initial.push(tuple(i, 1_000 + i, 0.55, Some((QV, p))));
        }
        for i in 0..n_heads as u64 {
            initial.push(tuple(10_000 + i, QV, 0.9 - i as f64 * 0.02, None));
        }
        f.load_initial(&initial).unwrap();

        // 1–3 fracture events of interleaved deletes (suppressing donor
        // cutoff entries) and fresh inserts at QV.
        let n_fractures = 1 + rng.below(3);
        for event in 0..n_fractures {
            for _ in 0..(n_donors as u64 / (n_fractures * 2)) {
                f.delete(TupleId(rng.below(n_donors as u64))).unwrap();
            }
            for i in 0..rng.below(4) {
                let id = 20_000 + event * 100 + i;
                f.insert(tuple(id, QV, 0.6 + (id % 7) as f64 * 0.05, None))
                    .unwrap();
            }
            f.flush().unwrap();
        }
        // Sometimes leave rows in the insert buffer (they seed the
        // watermark before any on-disk component is read).
        for i in 0..rng.below(10) {
            f.insert(tuple(30_000 + i, QV, 0.95 - i as f64 * 0.01, None))
                .unwrap();
        }

        for k in [1usize, 2, 3, 5, 9, 17] {
            for qt in [0.0, 0.2] {
                let unbounded = first_k(&f, qt, k, false);
                let bounded = first_k(&f, qt, k, true);
                assert_eq!(
                    bounded, unbounded,
                    "trial {trial} k={k} qt={qt}: bounded merge diverged"
                );
                let batch: Vec<(u64, u64)> =
                    f.ptq(QV, qt).unwrap().iter().take(k).map(key).collect();
                assert_eq!(
                    bounded, batch,
                    "trial {trial} k={k} qt={qt}: merge prefix != batch prefix"
                );
            }
        }
    }
}

#[test]
fn watermark_cuts_cutoff_page_reads_under_suppression() {
    let st = store();
    let cfg = UpiConfig {
        cutoff: 0.5,
        page_size: 4096,
        ..UpiConfig::default()
    };
    let mut f = FracturedUpi::create(
        st.clone(),
        "wmio",
        1,
        &[],
        FracturedConfig {
            upi: cfg,
            buffer_ops: 0,
        },
    )
    .unwrap();

    // Main: two high-confidence heap rows at QV and 4000 cutoff entries
    // (descending 0.45 → 0.01) from donor tuples clustered elsewhere.
    const N_DONORS: u64 = 4_000;
    let mut initial = Vec::new();
    for i in 0..N_DONORS {
        let p = 0.45 - 0.44 * i as f64 / N_DONORS as f64;
        initial.push(tuple(i, 1_000_000 + i, 0.55, Some((QV, p))));
    }
    initial.push(tuple(100_000, QV, 0.90, None));
    initial.push(tuple(100_001, QV, 0.88, None));
    f.load_initial(&initial).unwrap();

    // A newer fracture deletes EVERY donor: main's whole cutoff list at
    // QV is suppressed, which the unbounded merge can only prove by
    // scanning it end to end.
    for i in 0..N_DONORS {
        f.delete(TupleId(i)).unwrap();
    }
    f.flush().unwrap();

    // Six buffered survivors above every cutoff entry: with k = 8 the
    // watermark (8th-highest surviving confidence, 0.85) is active
    // before any component's cutoff list is consulted, so the bounded
    // scan stops at the first entry (0.45 < 0.85).
    for i in 0..6u64 {
        f.insert(tuple(200_000 + i, QV, 0.95 - i as f64 * 0.02, None))
            .unwrap();
    }

    const K: usize = 8;
    let measure = |bounded: bool| -> (Vec<(u64, u64)>, u64) {
        st.go_cold();
        let before = st.pool.counters();
        let rows = first_k(&f, 0.0, K, bounded);
        (rows, st.pool.counters().since(&before).pages_read())
    };
    let (unbounded_rows, unbounded_pages) = measure(false);
    let (bounded_rows, bounded_pages) = measure(true);

    assert_eq!(
        bounded_rows, unbounded_rows,
        "the watermark must not change the top-{K} answer"
    );
    assert_eq!(
        bounded_rows.len(),
        K,
        "8 survivors exist (6 buffered + 2 heap)"
    );
    assert!(
        bounded_pages < unbounded_pages,
        "watermark must cut cutoff-list page reads: bounded {bounded_pages} \
         vs unbounded {unbounded_pages}"
    );
    assert!(
        unbounded_pages - bounded_pages >= 10,
        "the 4000-entry suppressed cutoff list spans dozens of pages; the \
         bound should skip nearly all of them: bounded {bounded_pages} vs \
         unbounded {unbounded_pages}"
    );
}

#[test]
fn watermark_cuts_suppressed_heap_run_reads_pre_decode() {
    // The companion bound on the *heap run*: a long stretch of a
    // component's heap run whose tuples a newer delete suppressed used to
    // be scanned entry-by-entry (decode, test, discard) while hunting the
    // next survivor. The keyed entries carry their confidence, so the
    // below-watermark cutoff applies **before decoding**: the first keyed
    // entry under the watermark ends the component's run outright, page
    // reads included.
    let st = store();
    let cfg = UpiConfig {
        cutoff: 0.5,
        page_size: 4096,
        ..UpiConfig::default()
    };
    let mut f = FracturedUpi::create(
        st.clone(),
        "wmheap",
        1,
        &[],
        FracturedConfig {
            upi: cfg,
            buffer_ops: 0,
        },
    )
    .unwrap();

    // Main: a long heap run at QV — 3000 single-alternative tuples with
    // confidences descending 0.45 → 0.01 (first alternatives are always
    // heap-resident; no second alternatives, so the cutoff list is empty
    // and every page the query reads belongs to the heap run).
    const N_RUN: u64 = 3_000;
    let initial: Vec<Tuple> = (0..N_RUN)
        .map(|i| tuple(i, QV, 0.45 - 0.44 * i as f64 / N_RUN as f64, None))
        .collect();
    f.load_initial(&initial).unwrap();

    // Buffered deletes suppress the ENTIRE run; buffered survivors above
    // it seed the watermark (k of them, all at confidence > 0.45).
    for i in 0..N_RUN {
        f.delete(TupleId(i)).unwrap();
    }
    const K: usize = 4;
    for i in 0..K as u64 {
        f.insert(tuple(300_000 + i, QV, 0.95 - i as f64 * 0.02, None))
            .unwrap();
    }

    let measure = |bounded: bool| -> (Vec<(u64, u64)>, u64) {
        st.go_cold();
        let before = st.pool.counters();
        let rows = first_k(&f, 0.0, K, bounded);
        (rows, st.pool.counters().since(&before).pages_read())
    };
    let (unbounded_rows, unbounded_pages) = measure(false);
    let (bounded_rows, bounded_pages) = measure(true);

    assert_eq!(
        bounded_rows, unbounded_rows,
        "the pre-decode bound must not change the top-{K} answer"
    );
    assert_eq!(bounded_rows.len(), K, "the buffered survivors qualify");
    assert!(
        bounded_pages < unbounded_pages,
        "the suppressed heap stretch must not be scanned: bounded \
         {bounded_pages} vs unbounded {unbounded_pages}"
    );
    assert!(
        unbounded_pages - bounded_pages >= 10,
        "3000 suppressed heap entries span dozens of pages; the bound \
         should read at most the run's first leaf: bounded {bounded_pages} \
         vs unbounded {unbounded_pages}"
    );
}
