//! Layer probes: fixed-count loops that time one layer's public
//! functions directly, on the workload's own store, after its measured
//! phase. They give the per-call host cost that, multiplied by the
//! per-op counts the counted window reports, predicts each layer's share
//! of an op.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upi_btree::BTree;
use upi_rtree::{LeafEntry, Point, RTree, Rect};
use upi_storage::codec::KeyBuf;
use upi_storage::{PageId, Store, Wal};
use upi_uncertain::{decode_tuple, encode_tuple, Tuple};

use crate::harness::{put, Metrics};

/// Pages touched by the disk and pool probes (4 MB at 8 KB: fits the pool).
const PROBE_PAGES: usize = 512;
/// Stride between probed pages, so no two are adjacent and the pool's
/// read-ahead never arms: every cold get is a plain demand miss.
const PROBE_STRIDE: usize = 4;
const WAL_APPENDS: usize = 20_000;
const KEY_ENCODES: usize = 200_000;
const BTREE_KEYS: u64 = 20_000;
const TUPLE_SAMPLE: usize = 2_000;
const RTREE_INSERTS: usize = 5_000;
const RTREE_QUERIES: usize = 500;
const GAUSSIAN_CALLS: usize = 5_000;

fn ns_per(t0: Instant, n: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / n as f64
}

fn err(e: impl std::fmt::Display) -> String {
    format!("probe: {e}")
}

/// Non-adjacent pages of the store's largest file.
fn probe_pages(store: &Store) -> Result<Vec<PageId>, String> {
    let (file, _, _) = store
        .disk
        .file_inventory()
        .into_iter()
        .max_by_key(|&(id, _, bytes)| (bytes, std::cmp::Reverse(id.0)))
        .ok_or("probe: the store has no file")?;
    // `file_pages` lists freed slots too; keep the readable ones.
    let pages = store.disk.file_pages(file).map_err(err)?;
    Ok(pages
        .into_iter()
        .step_by(PROBE_STRIDE)
        .filter(|&p| store.disk.read_page(p).is_ok())
        .take(PROBE_PAGES)
        .collect())
}

/// `storage.disk`, `storage.pool`, `storage.wal` and `storage.codec`.
pub fn storage(store: &Store, m: &mut Metrics) -> Result<(), String> {
    let pages = probe_pages(store)?;

    store.go_cold();
    let t0 = Instant::now();
    for &p in &pages {
        black_box(store.disk.read_page(p).map_err(err)?);
    }
    put(
        m,
        "storage.disk.host_ns_per_read_page",
        ns_per(t0, pages.len()),
        "ns",
    );

    store.go_cold();
    let t0 = Instant::now();
    for &p in &pages {
        black_box(store.pool.get(p).map_err(err)?);
    }
    put(
        m,
        "storage.pool.host_ns_per_get_miss",
        ns_per(t0, pages.len()),
        "ns",
    );
    const HIT_PASSES: usize = 20;
    let t0 = Instant::now();
    for _ in 0..HIT_PASSES {
        for &p in &pages {
            black_box(store.pool.get(p).map_err(err)?);
        }
    }
    put(
        m,
        "storage.pool.host_ns_per_get_hit",
        ns_per(t0, pages.len() * HIT_PASSES),
        "ns",
    );

    let wal = Wal::create(store.disk.clone(), "probe.wal", 8192, 1);
    let payload = vec![0x5au8; 600];
    let t0 = Instant::now();
    for _ in 0..WAL_APPENDS {
        black_box(wal.append(&payload).map_err(err)?);
    }
    put(
        m,
        "storage.wal.host_ns_per_append",
        ns_per(t0, WAL_APPENDS),
        "ns",
    );

    let t0 = Instant::now();
    for i in 0..KEY_ENCODES as u64 {
        let mut k = KeyBuf::new();
        k.u64(black_box(i % 2_000))
            .prob_desc(black_box((i % 1_000) as f64 / 1_000.0))
            .u64(i);
        black_box(k.as_bytes());
    }
    put(
        m,
        "storage.codec.host_ns_per_key_encode",
        ns_per(t0, KEY_ENCODES),
        "ns",
    );
    Ok(())
}

fn probe_key(i: u64) -> Vec<u8> {
    let mut k = KeyBuf::new();
    k.u64(i % 500).prob_desc((i % 997) as f64 / 997.0).u64(i);
    k.into_bytes()
}

/// `btree.host_ns_per_*` on a scratch tree in the workload's store.
pub fn btree(store: &Store, m: &mut Metrics) -> Result<(), String> {
    let mut tree = BTree::create(store.clone(), "probe.btree", 8192).map_err(err)?;
    let mut order: Vec<u64> = (0..BTREE_KEYS).collect();
    let mut rng = StdRng::seed_from_u64(0xB7EE);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let value = [7u8; 64];
    let t0 = Instant::now();
    for &i in &order {
        tree.insert(&probe_key(i), &value).map_err(err)?;
    }
    put(m, "btree.host_ns_per_insert", ns_per(t0, order.len()), "ns");

    let keys: Vec<Vec<u8>> = order.iter().map(|&i| probe_key(i)).collect();
    let t0 = Instant::now();
    for k in &keys {
        black_box(tree.get(k).map_err(err)?);
    }
    put(m, "btree.host_ns_per_get", ns_per(t0, keys.len()), "ns");

    let t0 = Instant::now();
    let mut cur = tree.first().map_err(err)?;
    let mut steps = 0usize;
    while cur.valid() {
        black_box(cur.value());
        cur.advance().map_err(err)?;
        steps += 1;
    }
    put(
        m,
        "btree.host_ns_per_cursor_step",
        ns_per(t0, steps.max(1)),
        "ns",
    );
    Ok(())
}

/// `uncertain.host_ns_per_tuple_{encode,decode}` over the workload's tuples.
pub fn tuples(all: &[Tuple], m: &mut Metrics) {
    let sample: Vec<&Tuple> = all
        .iter()
        .step_by((all.len() / TUPLE_SAMPLE).max(1))
        .take(TUPLE_SAMPLE)
        .collect();
    const PASSES: usize = 10;
    let t0 = Instant::now();
    let mut encoded = Vec::new();
    for _ in 0..PASSES {
        encoded = sample.iter().map(|t| encode_tuple(black_box(t))).collect();
    }
    put(
        m,
        "uncertain.host_ns_per_tuple_encode",
        ns_per(t0, sample.len() * PASSES),
        "ns",
    );
    let t0 = Instant::now();
    for _ in 0..PASSES {
        for bytes in &encoded {
            black_box(decode_tuple(black_box(bytes)));
        }
    }
    put(
        m,
        "uncertain.host_ns_per_tuple_decode",
        ns_per(t0, sample.len() * PASSES),
        "ns",
    );
}

/// `rtree.host_us_per_*` on a scratch tree and
/// `uncertain.host_ns_per_prob_in_circle`, over the workload's
/// observations (field `attr` is their location).
pub fn spatial(
    store: &Store,
    observations: &[Tuple],
    attr: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let sample: Vec<&Tuple> = observations
        .iter()
        .step_by((observations.len() / RTREE_INSERTS).max(1))
        .take(RTREE_INSERTS)
        .collect();
    let mut tree = RTree::create(store.clone(), "probe.rtree", 4096).map_err(err)?;
    let mut events = Vec::new();
    let t0 = Instant::now();
    for t in &sample {
        let g = t.point(attr);
        let (x0, y0, x1, y1) = g.mbr();
        let entry = LeafEntry {
            rect: Rect::new(x0, y0, x1, y1),
            tid: t.id.0,
            aux: [g.cx, g.cy, g.sigma, g.bound],
        };
        tree.insert(entry, &mut events).map_err(err)?;
    }
    put(
        m,
        "rtree.host_us_per_insert",
        ns_per(t0, sample.len()) / 1e3,
        "us",
    );

    let t0 = Instant::now();
    for t in sample.iter().take(RTREE_QUERIES) {
        let g = t.point(attr);
        black_box(
            tree.query_circle(Point::new(g.cx, g.cy), 500.0)
                .map_err(err)?,
        );
    }
    put(
        m,
        "rtree.host_us_per_query_circle",
        ns_per(t0, RTREE_QUERIES.min(sample.len())) / 1e3,
        "us",
    );

    // A circle whose edge crosses the uncertainty region, so the ray
    // integration runs in full (disjoint and contained cases return early).
    let t0 = Instant::now();
    for t in sample.iter().cycle().take(GAUSSIAN_CALLS) {
        let g = t.point(attr);
        black_box(g.prob_in_circle(g.cx + 300.0, g.cy, black_box(300.0 + g.bound / 2.0)));
    }
    put(
        m,
        "uncertain.host_ns_per_prob_in_circle",
        ns_per(t0, GAUSSIAN_CALLS),
        "ns",
    );
    Ok(())
}
