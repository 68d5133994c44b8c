//! Sharded scatter-gather scaling — one logical fractured table hash-
//! partitioned across N independent stores (each its own simulated
//! device and 8 MB buffer pool), queried through the shared-watermark
//! top-k scatter-gather path, for N ∈ {1, 2, 4, 8}.
//!
//! The workload is two passes of top-k point PTQs over every primary
//! value. The physics under test:
//!
//! 1. **Watermark-bounded cold reads** — a cold top-k touches each
//!    component for its descent plus a head leaf (O(1) pages per
//!    component), *not* the value's full clustered run. Checked per
//!    shard count against a forced full-run PTQ of the same value.
//! 2. **Partitioned working set** — the single-store table's per-value
//!    touched set (one head leaf per fracture × every value) overflows
//!    one buffer pool, so the second pass re-misses; partitioned across
//!    N stores, each shard's share fits its own pool and the second
//!    pass runs from RAM. Total demand pages over the workload must be
//!    **strictly lower at 4 shards than at 1** — the acceptance gate.
//! 3. **Parallel scatter latency** — the shards are independent
//!    devices, so a query's latency is the *max* of its per-shard
//!    attributed windows while calibration keeps seeing the *sum*. Over
//!    the workload, Σ max (`parallel_ms`) must undercut Σ sum
//!    (`device_ms`, the serial-drain cost) by ≥ 40% at 4 shards.
//! 4. **Pruned cold shards** — on a skewed range layout whose last
//!    shard holds only low-confidence rows, the per-shard `ShardStats`
//!    bounds let every scatter skip *opening* it: the pruned shard's
//!    device sees zero page reads while the answers stay byte-equal to
//!    an exhaustive scatter. Checked at every scale (routing is
//!    deterministic).
//!
//! Emits `BENCH_shard.json` (override the path with
//! `UPI_BENCH_SHARD_JSON`): per shard count, demand pages per pass,
//! prefetched pages, simulated device milliseconds (serial sum and
//! parallel max-composed), the cold top-k-vs-full-run page counts, and
//! the skewed-workload pruning record.
//!
//! Page/latency gates are enforced at `UPI_BENCH_SCALE` ≥ 0.5 (at smoke
//! scales the table fits every pool and the curve flattens by design);
//! the pruning gate is enforced at every scale.

use std::sync::Arc;

use upi::{FracturedConfig, ShardLayout, TableLayout, UpiConfig};
use upi_bench::{banner, header, scale, summary, POOL_BYTES};
use upi_query::{PtqQuery, ShardedDb};
use upi_storage::{DiskConfig, IoStats, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema, Tuple, TupleId};

/// Distinct primary values (each queried twice per workload).
const VALUES: u64 = 24;
/// Fracture events accumulated by the single-store table; N shards
/// auto-flush at the same per-shard threshold, so each ends up with
/// ~1/N of them.
const FRACTURES: usize = 48;
/// Top-k of the workload queries.
const K: usize = 10;

struct Series {
    shards: usize,
    components: usize,
    pass1_pages: u64,
    pass2_pages: u64,
    prefetch_pages: u64,
    device_ms: f64,
    parallel_ms: f64,
    cold_topk_pages: u64,
    full_run_pages: u64,
}

/// The skewed-workload pruning record: 4 range shards, the last holding
/// only low-confidence rows, every primary value queried once.
struct Skew {
    queries: u64,
    shards_skipped: u64,
    pruned_shard_pages: u64,
    answers_match: bool,
}

fn rows(n: usize) -> Vec<Tuple> {
    (0..n as u64)
        .map(|i| {
            // Deterministic per-row confidence in [0.50, 0.95): well above
            // the cutoff, so point runs stream from the clustered heap.
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let p = 0.50 + (h % 4500) as f64 / 10_000.0;
            Tuple::new(
                TupleId(i),
                1.0,
                vec![
                    Field::Certain(Datum::Str(format!("pad-{i}-{}", "x".repeat(224)))),
                    Field::Discrete(DiscretePmf::new(vec![(i % VALUES, p)])),
                ],
            )
        })
        .collect()
}

fn build(tuples: &[Tuple], n_shards: usize, buffer_ops: usize) -> ShardedDb {
    let stores: Vec<Store> = (0..n_shards)
        .map(|_| Store::new(Arc::new(SimDisk::new(DiskConfig::default())), POOL_BYTES))
        .collect();
    let schema = Schema::new(vec![
        ("pad", FieldKind::Str),
        ("value", FieldKind::Discrete),
    ]);
    let mut db = ShardedDb::create(
        stores,
        "shard_scaling",
        schema,
        1,
        TableLayout::FracturedUpi(FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops,
        }),
        ShardLayout::HashTid(n_shards),
    )
    .unwrap();
    // Half bulk-loaded into the main components, half inserted through
    // the auto-flushing buffer — the fracture history under test.
    let half = tuples.len() / 2;
    db.load(&tuples[..half]).unwrap();
    for t in &tuples[half..] {
        db.insert_tuple(t).unwrap();
    }
    db.flush().unwrap();
    db
}

fn go_cold(db: &ShardedDb) {
    for s in db.shards() {
        s.table().store().go_cold();
    }
}

fn disk_stats(db: &ShardedDb) -> Vec<IoStats> {
    db.shards()
        .iter()
        .map(|s| s.table().store().disk.stats())
        .collect()
}

fn device_ms_since(db: &ShardedDb, before: &[IoStats]) -> f64 {
    db.shards()
        .iter()
        .zip(before)
        .map(|(s, b)| s.table().store().disk.stats().since(b).total_ms())
        .sum()
}

fn run_series(tuples: &[Tuple], n_shards: usize, buffer_ops: usize) -> Series {
    let db = build(tuples, n_shards, buffer_ops);
    let components: usize = db
        .shards()
        .iter()
        .map(|s| match s.table().as_fractured() {
            Some(f) => f.n_fractures() + 1,
            None => 1,
        })
        .sum();

    // Cold watermark check: device pages (demand + read-ahead) a cold
    // top-k reads vs. the value's full clustered run. The watermark
    // stops every component at its descent plus a head leaf, so the
    // top-k side must stay O(components), not O(run).
    let topk = |v: u64| PtqQuery::eq(1, v).with_qt(0.5).with_top_k(K);
    let device_reads = |db: &ShardedDb, q: &PtqQuery| {
        go_cold(db);
        let before = disk_stats(db);
        db.query(q).unwrap();
        db.shards()
            .iter()
            .zip(&before)
            .map(|(s, b)| s.table().store().disk.stats().since(b).page_reads)
            .sum::<u64>()
    };
    let cold_topk_pages = device_reads(&db, &topk(0));
    let full_run_pages = device_reads(&db, &PtqQuery::eq(1, 0).with_qt(0.5));

    // The workload: two passes of top-k over every value. Pass 1 is
    // cold; pass 2 re-misses only what the pools could not retain.
    go_cold(&db);
    let before = disk_stats(&db);
    let mut pass_pages = [0u64; 2];
    let mut prefetch_pages = 0u64;
    let mut parallel_ms = 0.0f64;
    for (pass, pages) in pass_pages.iter_mut().enumerate() {
        for v in 0..VALUES {
            let out = db.query(&topk(v)).unwrap();
            let io = out.io.as_ref().expect("scatter reports io");
            *pages += io.misses;
            prefetch_pages += io.readahead;
            // The shards' devices work in parallel: the query's
            // wall-clock cost is the max per-shard window, not their sum.
            parallel_ms += out.latency_ms.expect("scatter reports parallel latency");
            assert_eq!(
                out.rows.len(),
                K,
                "pass {pass}, value {v}: every value holds ≥ {K} qualifying rows"
            );
        }
    }
    let device_ms = device_ms_since(&db, &before);

    Series {
        shards: n_shards,
        components,
        pass1_pages: pass_pages[0],
        pass2_pages: pass_pages[1],
        prefetch_pages,
        device_ms,
        parallel_ms,
        cold_topk_pages,
        full_run_pages,
    }
}

/// Skewed pruning experiment, always at 4 shards: range layout whose
/// last shard stores only confidences ≤ ~0.3, so its `ShardStats`
/// bounds sit strictly below the workload's `qt = 0.5` and every
/// scatter skips opening it. Routing and bounds are deterministic, so
/// this holds at any scale.
fn run_skew(n_rows: usize) -> Skew {
    let quarter = (n_rows / 4).max(1) as u64;
    let layout = ShardLayout::RangeTid(vec![quarter, 2 * quarter, 3 * quarter]);
    let stores: Vec<Store> = (0..4)
        .map(|_| Store::new(Arc::new(SimDisk::new(DiskConfig::default())), POOL_BYTES))
        .collect();
    let schema = Schema::new(vec![
        ("pad", FieldKind::Str),
        ("value", FieldKind::Discrete),
    ]);
    let mut db = ShardedDb::create(
        stores,
        "shard_skew",
        schema,
        1,
        TableLayout::Upi(UpiConfig::default()),
        layout,
    )
    .unwrap();
    let tuples: Vec<Tuple> = (0..n_rows as u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            // The last quarter of the id range — shard 3 — holds only
            // low-confidence alternatives; the rest mirror `rows()`.
            let p = if i >= 3 * quarter {
                0.05 + (h % 2500) as f64 / 10_000.0
            } else {
                0.50 + (h % 4500) as f64 / 10_000.0
            };
            Tuple::new(
                TupleId(i),
                1.0,
                vec![
                    Field::Certain(Datum::Str(format!("pad-{i}-{}", "x".repeat(224)))),
                    Field::Discrete(DiscretePmf::new(vec![(i % VALUES, p)])),
                ],
            )
        })
        .collect();
    db.load(&tuples).unwrap();
    assert!(
        db.stats()[3].max_conf() < 0.5,
        "the skewed shard's bound must sit below qt"
    );

    let topk = |v: u64| PtqQuery::eq(1, v).with_qt(0.5).with_top_k(K);
    let fp = |out: &upi_query::QueryOutput| -> Vec<(u64, u64)> {
        out.rows
            .iter()
            .map(|r| (r.tuple.id.0, r.confidence.to_bits()))
            .collect()
    };

    // Exhaustive baseline first, then the pruned run from cold.
    db.set_pruning(false);
    go_cold(&db);
    let baseline: Vec<_> = (0..VALUES)
        .map(|v| fp(&db.query(&topk(v)).unwrap()))
        .collect();

    db.set_pruning(true);
    go_cold(&db);
    let skipped_before = db.shards_skipped();
    let cold_before = db.shards()[3].table().store().disk.stats();
    let mut answers_match = true;
    for v in 0..VALUES {
        answers_match &= fp(&db.query(&topk(v)).unwrap()) == baseline[v as usize];
    }
    Skew {
        queries: VALUES,
        shards_skipped: db.shards_skipped() - skipped_before,
        pruned_shard_pages: db.shards()[3]
            .table()
            .store()
            .disk
            .stats()
            .since(&cold_before)
            .page_reads,
        answers_match,
    }
}

fn write_json(series: &[Series], skew: &Skew, gate_enforced: bool) {
    let json_path = std::env::var("UPI_BENCH_SHARD_JSON").unwrap_or_else(|_| {
        std::env::var("CARGO_MANIFEST_DIR")
            .map(|d| format!("{d}/../../BENCH_shard.json"))
            .unwrap_or_else(|_| "BENCH_shard.json".to_string())
    });
    let one = series.iter().find(|s| s.shards == 1).unwrap();
    let four = series.iter().find(|s| s.shards == 4).unwrap();
    let mut json = String::from("{\n  \"series\": [\n");
    for (i, s) in series.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"components\": {}, \"demand_pages\": {}, \
             \"pass1_pages\": {}, \"pass2_pages\": {}, \"prefetch_pages\": {}, \
             \"device_ms\": {:.1}, \"parallel_ms\": {:.1}, \
             \"parallel_vs_serial\": {:.4}, \
             \"cold_topk_pages\": {}, \"full_run_pages\": {}}}{}\n",
            s.shards,
            s.components,
            s.pass1_pages + s.pass2_pages,
            s.pass1_pages,
            s.pass2_pages,
            s.prefetch_pages,
            s.device_ms,
            s.parallel_ms,
            s.parallel_ms / s.device_ms.max(1e-9),
            s.cold_topk_pages,
            s.full_run_pages,
            if i + 1 < series.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let pages = |s: &Series| s.pass1_pages + s.pass2_pages;
    json.push_str(&format!(
        "  \"skew\": {{\"shards\": 4, \"queries\": {}, \"shards_skipped\": {}, \
         \"pruned_shard_pages\": {}, \"answers_match\": {}}},\n",
        skew.queries, skew.shards_skipped, skew.pruned_shard_pages, skew.answers_match,
    ));
    json.push_str(&format!(
        "  \"summary\": {{\"scale\": {}, \"gate_enforced\": {}, \
         \"pages_4_shards\": {}, \"pages_1_shard\": {}, \
         \"four_shards_fewer_pages\": {}, \
         \"device_ms_4_vs_1\": {:.4}, \
         \"parallel_vs_serial_4_shards\": {:.4}, \
         \"worst_cold_topk_vs_full_run\": {:.4}}}\n",
        scale(),
        gate_enforced,
        pages(four),
        pages(one),
        pages(four) < pages(one),
        four.device_ms / one.device_ms.max(1e-9),
        four.parallel_ms / four.device_ms.max(1e-9),
        series
            .iter()
            .map(|s| s.cold_topk_pages as f64 / (s.full_run_pages as f64).max(1.0))
            .fold(0.0f64, f64::max),
    ));
    json.push('}');
    std::fs::write(&json_path, json).expect("write BENCH_shard.json");
    println!("# wrote {json_path}");
}

fn main() {
    banner(
        "shard_scaling",
        "scatter-gather top-k over N partitioned stores",
        "demand pages, serial vs parallel device-ms, and pruned cold shards",
    );
    let s = scale();
    let n_rows = ((80_000.0 * s) as usize).max(2_000);
    // Per-shard auto-flush threshold sized so the SINGLE-store build
    // accumulates `FRACTURES` fracture events; N shards split the same
    // insert stream, so each shard ends up with ~FRACTURES/N of them.
    let buffer_ops = ((n_rows / 2) / FRACTURES).max(10);
    let tuples = rows(n_rows);

    header(&[
        "shards",
        "components",
        "pass1_pages",
        "pass2_pages",
        "demand_pages",
        "prefetch",
        "device_ms",
        "parallel_ms",
        "cold_topk",
        "full_run",
    ]);
    let mut series = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let rec = run_series(&tuples, n, buffer_ops);
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{:.1}\t{:.1}\t{}\t{}",
            rec.shards,
            rec.components,
            rec.pass1_pages,
            rec.pass2_pages,
            rec.pass1_pages + rec.pass2_pages,
            rec.prefetch_pages,
            rec.device_ms,
            rec.parallel_ms,
            rec.cold_topk_pages,
            rec.full_run_pages
        );
        series.push(rec);
    }

    let one = series.iter().find(|s| s.shards == 1).unwrap();
    let four = series.iter().find(|s| s.shards == 4).unwrap();
    let pages = |s: &Series| s.pass1_pages + s.pass2_pages;
    summary("pages_1_shard", pages(one));
    summary("pages_4_shards", pages(four));
    summary(
        "device_ms_4_vs_1",
        format!("{:.3}", four.device_ms / one.device_ms.max(1e-9)),
    );
    summary(
        "parallel_vs_serial_4_shards",
        format!("{:.3}", four.parallel_ms / four.device_ms.max(1e-9)),
    );

    // The pruning record is deterministic (static bounds, fixed
    // routing): gate it at every scale, smoke runs included.
    let skew = run_skew(n_rows);
    summary("skew_shards_skipped", skew.shards_skipped);
    summary("skew_pruned_shard_pages", skew.pruned_shard_pages);
    assert!(
        skew.shards_skipped > 0,
        "the skewed workload must skip the cold shard at least once"
    );
    assert!(
        skew.shards_skipped >= skew.queries,
        "every skewed query must statically skip the cold shard          ({} skips over {} queries)",
        skew.shards_skipped,
        skew.queries
    );
    assert_eq!(
        skew.pruned_shard_pages, 0,
        "the pruned shard must never be opened"
    );
    assert!(
        skew.answers_match,
        "pruned scatters must stay byte-equal to exhaustive ones"
    );

    let gate_enforced = s >= 0.5;
    if gate_enforced {
        assert!(
            pages(four) < pages(one),
            "acceptance gate: top-k over 4 shards must read strictly fewer \
             total demand pages than 1 shard ({} vs {})",
            pages(four),
            pages(one)
        );
        assert!(
            four.parallel_ms <= 0.6 * four.device_ms,
            "acceptance gate: at 4 shards the parallel scatter latency              (max-composed, {:.1} ms) must be ≤ 0.6x the serial drain              ({:.1} ms)",
            four.parallel_ms,
            four.device_ms
        );
        for rec in &series {
            assert!(
                rec.cold_topk_pages < rec.full_run_pages,
                "{} shards: a cold watermark-bounded top-k ({} pages) must \
                 read less than the value's full run ({} pages)",
                rec.shards,
                rec.cold_topk_pages,
                rec.full_run_pages
            );
        }
        summary(
            "gate",
            "PASS (fewer pages and ≤ 0.6x serial latency at 4 shards)",
        );
    } else {
        summary(
            "gate",
            format!("page/latency gates skipped at scale {s} (< 0.5)"),
        );
    }
    write_json(&series, &skew, gate_enforced);
}
