//! The fractured range merge must *interleave* its per-component runs.
//!
//! Every component's `RangeRun` is constructed up front (each
//! construction seeks to the run start, arming that component's prefetch
//! hint on the leaf it lands on and pulling a read-ahead window into the
//! pool).
//! Draining the components one after another — the old chained
//! behavior — lets the later components' prefetched windows age out of
//! a pressured pool while the first component streams, so their pages
//! are evicted unread and must be demanded again. Round-robin
//! interleaving consumes every window while it is hot: same rows, fewer
//! demand misses, less wasted read-ahead.

use std::sync::Arc;

use upi::cost::estimate_range_run_pages;
use upi::{FracturedConfig, FracturedUpi, UpiConfig};
use upi_storage::{DiskConfig, PoolCounters, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, Tuple, TupleId};

const LO: u64 = 0;
const HI: u64 = 999;
const QT: f64 = 0.3;
const ROWS_PER_COMPONENT: u64 = 9_600;

fn author(id: u64, value: u64, p: f64) -> Tuple {
    let spill = ((1.0 - p) / 2.0).max(0.01);
    Tuple::new(
        TupleId(id),
        0.95,
        vec![
            // Sized so a component's run spans several hundred pages:
            // long runs are what read-ahead windows exist for.
            Field::Certain(Datum::Str(format!("author-{id}-{}", "x".repeat(420)))),
            Field::Discrete(DiscretePmf::new(vec![(value, p), (value + 2000, spill)])),
            Field::Discrete(DiscretePmf::new(vec![(value % 7, 1.0)])),
        ],
    )
}

/// Main + three fractures, each holding an equally long run inside
/// `[LO, HI]`, over a pool small enough that all four prefetch windows
/// cannot survive one full component drain.
fn build() -> (Store, FracturedUpi) {
    let store = Store::new(
        Arc::new(SimDisk::new(DiskConfig::default())),
        // ~320 pages: holds the four in-flight read-ahead windows of an
        // interleaved merge, but not a whole 600-page component drain.
        (5 << 20) / 2,
    );
    let cfg = FracturedConfig {
        upi: UpiConfig::default(),
        buffer_ops: 0,
    };
    let mut f = FracturedUpi::create(store.clone(), "il", 1, &[2], cfg).unwrap();
    let rows: Vec<Tuple> = (0..ROWS_PER_COMPONENT)
        .map(|i| author(i, i % (HI + 1), 0.8))
        .collect();
    f.load_initial(&rows).unwrap();
    for batch in 1..=3u64 {
        for i in 0..ROWS_PER_COMPONENT {
            let id = batch * 100_000 + i;
            f.insert(author(id, i % (HI + 1), 0.8)).unwrap();
        }
        f.flush().unwrap();
    }
    assert_eq!(f.n_fractures(), 3);
    (store, f)
}

/// The per-component run estimates the planner hands `FracturedRange`;
/// each component's seek arms its own as it opens.
fn range_hints(f: &FracturedUpi) -> Vec<usize> {
    f.chain()
        .components()
        .map(|u| estimate_range_run_pages(u, LO, HI))
        .collect()
}

/// Old behavior, reproduced by hand: construct every component's range
/// run (as `Chain::range_run` does), then drain them one by one.
fn drain_sequentially(store: &Store, f: &FracturedUpi) -> (usize, PoolCounters) {
    store.go_cold();
    let before = store.pool.counters();
    let hints = range_hints(f);
    let mut runs: Vec<_> = f
        .chain()
        .components()
        .zip(hints)
        .map(|(u, pages)| u.range_run(LO, HI, QT, Some(pages)).unwrap())
        .collect();
    let mut rows = 0usize;
    for run in &mut runs {
        for r in run {
            r.unwrap();
            rows += 1;
        }
    }
    (rows, store.pool.counters().since(&before))
}

/// New behavior: the fractured merge itself, pulling round-robin.
fn drain_interleaved(store: &Store, f: &FracturedUpi) -> (usize, PoolCounters) {
    store.go_cold();
    let before = store.pool.counters();
    let rows = f
        .chain()
        .range_run(LO, HI, QT, &range_hints(f))
        .unwrap()
        .map(|r| r.map(|_| 1usize))
        .sum::<Result<usize, _>>()
        .unwrap();
    (rows, store.pool.counters().since(&before))
}

#[test]
fn interleaved_range_merge_beats_sequential_chaining_under_pool_pressure() {
    let (store, f) = build();
    let (seq_rows, seq) = drain_sequentially(&store, &f);
    let (int_rows, int) = drain_interleaved(&store, &f);
    eprintln!(
        "sequential: {} demand + {} readahead ({} wasted); interleaved: {} demand + {} readahead ({} wasted)",
        seq.demand_pages(), seq.readahead, seq.readahead_wasted,
        int.demand_pages(), int.readahead, int.readahead_wasted,
    );
    assert_eq!(seq_rows, int_rows, "interleaving must not change the rows");
    assert!(seq_rows as u64 >= 4 * ROWS_PER_COMPONENT - 1);
    assert!(
        int.demand_pages() < seq.demand_pages(),
        "interleaved merge must demand fewer pages: {} vs {} sequential \
         (wasted read-ahead {} vs {})",
        int.demand_pages(),
        seq.demand_pages(),
        int.readahead_wasted,
        seq.readahead_wasted,
    );
    assert!(
        int.readahead_wasted <= seq.readahead_wasted,
        "interleaving must not waste more prefetch than chaining: {} vs {}",
        int.readahead_wasted,
        seq.readahead_wasted,
    );
}
