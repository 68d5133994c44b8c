//! Micro-benchmarks for the substrate data structures (CPU-side costs,
//! complementing the simulated-I/O figure benches). Each case prints one
//! line: `name  median/iter  (samples)`, wall clock on the host.
//!
//! Run: `cargo bench -p upi-bench --bench micro_structures`

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use upi_btree::BTree;
use upi_rtree::{LeafEntry, Point, RTree, Rect};
use upi_storage::codec::KeyBuf;
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_uncertain::ConstrainedGaussian;

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 64 << 20)
}

/// Time `routine` over `samples` fresh inputs from `setup` (setup is not
/// timed), batching cheap routines so one sample takes about 1 ms, and
/// print the median time per call.
fn bench<I, O>(
    name: &str,
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) {
    let t0 = Instant::now();
    black_box(routine(setup()));
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((1e-3 / once) as usize).clamp(1, 100_000);
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let t = Instant::now();
            inputs.into_iter().for_each(|i| drop(black_box(routine(i))));
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    println!(
        "{name:<40} {:>12.0} ns/iter  ({samples} samples)",
        ns[samples / 2]
    );
}

fn main() {
    bench(
        "btree/insert_8k_pages",
        20,
        || BTree::create(store(), "t", 8192).unwrap(),
        |mut t| {
            for i in 0u32..2000 {
                t.insert(&i.to_be_bytes(), b"value-bytes-here").unwrap();
            }
            t
        },
    );

    let items: Vec<(Vec<u8>, Vec<u8>)> = (0u32..20_000)
        .map(|i| (i.to_be_bytes().to_vec(), b"value-bytes-here".to_vec()))
        .collect();
    bench(
        "btree/bulk_load_20k",
        20,
        || (BTree::create(store(), "t", 8192).unwrap(), items.clone()),
        |(mut t, items)| {
            t.bulk_load(items).unwrap();
            t
        },
    );

    let mut t = BTree::create(store(), "probe", 8192).unwrap();
    t.bulk_load(
        (0u32..50_000)
            .map(|i| (i.to_be_bytes().to_vec(), b"v".to_vec()))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let mut i = 0u32;
    bench(
        "btree/point_get_50k",
        20,
        || {
            i = (i.wrapping_mul(2654435761)) % 50_000;
            i
        },
        |i| t.get(&i.to_be_bytes()).unwrap(),
    );

    let entries: Vec<LeafEntry> = (0..20_000u64)
        .map(|i| {
            let x = (i % 141) as f64 * 35.0;
            let y = (i / 141) as f64 * 35.0;
            LeafEntry {
                rect: Rect::new(x, y, x + 10.0, y + 10.0),
                tid: i,
                aux: [x, y, 3.0, 10.0],
            }
        })
        .collect();
    let mut rt = RTree::create(store(), "rt", 4096).unwrap();
    rt.bulk_load(entries).unwrap();
    bench(
        "rtree/circle_query_20k",
        20,
        || (),
        |()| rt.query_circle(Point::new(2500.0, 2500.0), 300.0).unwrap(),
    );

    let g2 = ConstrainedGaussian::new(0.0, 0.0, 10.0, 50.0);
    bench(
        "gaussian_prob_in_circle",
        10,
        || (),
        |()| g2.prob_in_circle(20.0, 5.0, 15.0),
    );

    bench(
        "codec_composite_key",
        10,
        || (),
        |()| {
            let mut k = KeyBuf::new();
            k.u64(123456).prob_desc(0.37).u64(98765);
            k.into_bytes()
        },
    );
}
