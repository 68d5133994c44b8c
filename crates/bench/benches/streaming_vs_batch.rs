//! Streaming vs batch execution: pages read and simulated time for
//! fig05/fig06-style range and top-k workloads.
//!
//! The streaming executor's claim is that early-terminating,
//! cursor-driven operators touch strictly less of the disk than
//! materialize-then-truncate batch evaluation:
//!
//! * **Point top-k (fig05-style, Query 2 shape)** — the chain's point
//!   merge streams the heap run in confidence order and stops after k rows;
//!   the batch path materializes the whole run (plus the cutoff merge)
//!   and truncates.
//! * **Secondary top-k (fig06-style, Query 3 shape)** — the secondary
//!   probe reads only the k most-confident entries of the compact entry run
//!   and dereferences k heap pointers; the batch path fetches every
//!   qualifying tuple.
//! * **Range (fig05-style)** — both read the same sequential run (no
//!   sound early exit under summing semantics); reported for parity and
//!   to show read-ahead keeping the run sequential.
//!
//! Pages read are **buffer-pool** counters (demand misses + read-ahead);
//! both sides run cold. Results are asserted identical before anything
//! is reported. A machine-readable `BENCH_streaming.json` is written for
//! the perf-trajectory tooling (override the path with
//! `UPI_BENCH_JSON`).

use upi::{PtqResult, TableLayout, UpiConfig};
use upi_bench::setups::publication_setup;
use upi_bench::{banner, committed_json_path, fresh_store, header, ms, scale, summary};
use upi_query::{AccessPath, Catalog, PhysicalPlan, PtqQuery, UncertainDb};
use upi_storage::{PoolCounters, Store};
use upi_workloads::dblp::{publication_fields, DblpData};

/// One cold measurement attributed through the buffer pool.
struct PoolMeasured {
    pool: PoolCounters,
    sim_ms: f64,
    bytes_read: u64,
    rows: Vec<PtqResult>,
}

fn measure_pool(store: &Store, f: impl FnOnce() -> Vec<PtqResult>) -> PoolMeasured {
    store.go_cold();
    let pool_before = store.pool.counters();
    let io_before = store.disk.stats();
    let rows = f();
    let io = store.disk.stats().since(&io_before);
    PoolMeasured {
        pool: store.pool.counters().since(&pool_before),
        sim_ms: io.total_ms(),
        bytes_read: io.bytes_read,
        rows,
    }
}

fn assert_same_rows(label: &str, a: &[PtqResult], b: &[PtqResult]) {
    assert_eq!(a.len(), b.len(), "{label}: row counts diverge");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.tuple.id, y.tuple.id, "{label}: ids diverge");
        assert!(
            (x.confidence - y.confidence).abs() < 1e-9,
            "{label}: confidences diverge"
        );
    }
}

/// Force a specific access path of a plan.
fn forced(plan: &PhysicalPlan, path: &AccessPath) -> PhysicalPlan {
    let mut p = plan.clone();
    p.candidates.retain(|c| &c.path == path);
    assert!(!p.candidates.is_empty(), "path {path:?} not enumerated");
    p
}

struct Case {
    name: &'static str,
    streaming_pages: u64,
    batch_pages: u64,
    streaming_ms: f64,
    batch_ms: f64,
    streaming_bytes: u64,
    batch_bytes: u64,
    /// Read-ahead pages prefetched by the streaming side but evicted
    /// unused — nonzero means the pool speculated past what the plan
    /// consumed (the scatter-shaped regression this bench gates on).
    streaming_wasted: u64,
    /// The same streaming plan on the durability-enabled twin table:
    /// reads never touch the WAL, so these must price like `streaming_*`.
    wal_pages: u64,
    wal_ms: f64,
    rows: usize,
}

/// The instrumented executor must not cost I/O or device time: within
/// 5% of the committed baseline, per case.
const OVERHEAD_GATE: f64 = 1.05;

/// Pull `"key": <number>` out of a one-line JSON object (fixed-shape
/// extractor for the committed baseline, not a JSON parser).
fn extract_num(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The committed baseline for case `name`: streaming `(pages_read,
/// elapsed_ms)`.
fn baseline_case(json: &str, name: &str) -> Option<(f64, f64)> {
    let pat = format!("\"name\": \"{name}\"");
    let start = json.find(&pat)?;
    let line_end = json[start..]
        .find('\n')
        .map(|e| start + e)
        .unwrap_or(json.len());
    let obj = &json[start..line_end];
    let spos = obj.find("\"streaming\"")?;
    let send = obj[spos..].find('}').map(|e| spos + e).unwrap_or(obj.len());
    let sobj = &obj[spos..send];
    Some((
        extract_num(sobj, "pages_read")?,
        extract_num(sobj, "elapsed_ms")?,
    ))
}

fn main() {
    let s = publication_setup(0.1);
    let mit = s.data.popular_institution();
    let japan = s.data.query_country();
    let catalog = Catalog::new(s.store.disk.config())
        .with_upi(&s.upi)
        .with_pool(&s.store.pool);
    let k = 10;
    let mut cases: Vec<Case> = Vec::new();
    let mut kept_rows: Vec<Vec<PtqResult>> = Vec::new();

    banner(
        "streaming_vs_batch",
        "streaming executor vs materialize-then-truncate (pages via pool counters)",
        "streaming top-k reads >=2x fewer pages; identical result sets",
    );
    header(&[
        "case",
        "stream_pages",
        "batch_pages",
        "ratio",
        "stream_ms",
        "batch_ms",
        "rows",
    ]);

    // --- Point top-k (fig05-style): the point merge vs full run + truncate.
    {
        let q = PtqQuery::eq(publication_fields::INSTITUTION, mit)
            .with_qt(0.1)
            .with_top_k(k);
        let plan = forced(
            &q.plan(&catalog).unwrap(),
            &AccessPath::UpiHeap {
                use_cutoff: false,
                fractured: false,
            },
        );
        let streaming = measure_pool(&s.store, || plan.execute(&catalog).unwrap().rows);
        let batch = measure_pool(&s.store, || {
            let mut rows = s.upi.ptq(mit, 0.1).unwrap();
            rows.truncate(k);
            rows
        });
        assert_same_rows("point top-k", &streaming.rows, &batch.rows);
        cases.push(Case {
            name: "point_topk",
            streaming_pages: streaming.pool.pages_read(),
            batch_pages: batch.pool.pages_read(),
            streaming_ms: streaming.sim_ms,
            batch_ms: batch.sim_ms,
            streaming_bytes: streaming.bytes_read,
            batch_bytes: batch.bytes_read,
            streaming_wasted: streaming.pool.readahead_wasted,
            wal_pages: 0,
            wal_ms: 0.0,
            rows: streaming.rows.len(),
        });
        kept_rows.push(streaming.rows);
    }

    // --- Secondary top-k (fig06-style): the secondary probe with limit
    //     pushdown vs full tailored access + truncate.
    {
        let q = PtqQuery::eq(publication_fields::COUNTRY, japan)
            .with_qt(0.1)
            .with_top_k(k);
        let plan = forced(
            &q.plan(&catalog).unwrap(),
            &AccessPath::UpiSecondary {
                index: 0,
                tailored: true,
                fractured: false,
            },
        );
        let streaming = measure_pool(&s.store, || plan.execute(&catalog).unwrap().rows);
        let batch = measure_pool(&s.store, || {
            let mut rows = s.upi.ptq_secondary(0, japan, 0.1, true).unwrap();
            rows.truncate(k);
            rows
        });
        assert_same_rows("secondary top-k", &streaming.rows, &batch.rows);
        cases.push(Case {
            name: "secondary_topk",
            streaming_pages: streaming.pool.pages_read(),
            batch_pages: batch.pool.pages_read(),
            streaming_ms: streaming.sim_ms,
            batch_ms: batch.sim_ms,
            streaming_bytes: streaming.bytes_read,
            batch_bytes: batch.bytes_read,
            streaming_wasted: streaming.pool.readahead_wasted,
            wal_pages: 0,
            wal_ms: 0.0,
            rows: streaming.rows.len(),
        });
        kept_rows.push(streaming.rows);
    }

    // --- Range (fig05-style): same sequential run either way; streaming
    //     keeps memory bounded and read-ahead keeps it sequential.
    {
        let hi = mit + 3;
        let q = PtqQuery::range(publication_fields::INSTITUTION, mit, hi).with_qt(0.2);
        let plan = forced(
            &q.plan(&catalog).unwrap(),
            &AccessPath::UpiRange { fractured: false },
        );
        let streaming = measure_pool(&s.store, || plan.execute(&catalog).unwrap().rows);
        let batch = measure_pool(&s.store, || s.upi.ptq_range(mit, hi, 0.2).unwrap());
        assert_same_rows("range", &streaming.rows, &batch.rows);
        cases.push(Case {
            name: "range",
            streaming_pages: streaming.pool.pages_read(),
            batch_pages: batch.pool.pages_read(),
            streaming_ms: streaming.sim_ms,
            batch_ms: batch.sim_ms,
            streaming_bytes: streaming.bytes_read,
            batch_bytes: batch.bytes_read,
            streaming_wasted: streaming.pool.readahead_wasted,
            wal_pages: 0,
            wal_ms: 0.0,
            rows: streaming.rows.len(),
        });
        kept_rows.push(streaming.rows);
    }

    // --- WAL-on twin: the same data behind a durability-enabled session.
    //     Queries never touch the log, so every streaming read path must
    //     price within the same 5% gate as the instrumented executor —
    //     durability may tax writes, never reads.
    {
        let wal_store = fresh_store();
        let mut wdb = UncertainDb::create(
            wal_store.clone(),
            "pub_wal",
            DblpData::publication_schema(),
            publication_fields::INSTITUTION,
            TableLayout::Upi(UpiConfig {
                cutoff: 0.1,
                ..UpiConfig::default()
            }),
        )
        .unwrap();
        wdb.add_secondary(publication_fields::COUNTRY).unwrap();
        wdb.enable_durability().unwrap();
        wdb.load(&s.data.publications).unwrap();
        wdb.sync_wal().unwrap();
        let wal_catalog = Catalog::new(wal_store.disk.config())
            .with_upi(wdb.table().as_upi().unwrap())
            .with_pool(&wal_store.pool);
        let shapes: Vec<(PtqQuery, AccessPath)> = vec![
            (
                PtqQuery::eq(publication_fields::INSTITUTION, mit)
                    .with_qt(0.1)
                    .with_top_k(k),
                AccessPath::UpiHeap {
                    use_cutoff: false,
                    fractured: false,
                },
            ),
            (
                PtqQuery::eq(publication_fields::COUNTRY, japan)
                    .with_qt(0.1)
                    .with_top_k(k),
                AccessPath::UpiSecondary {
                    index: 0,
                    tailored: true,
                    fractured: false,
                },
            ),
            (
                PtqQuery::range(publication_fields::INSTITUTION, mit, mit + 3).with_qt(0.2),
                AccessPath::UpiRange { fractured: false },
            ),
        ];
        for (i, (q, path)) in shapes.into_iter().enumerate() {
            let plan = forced(&q.plan(&wal_catalog).unwrap(), &path);
            let m = measure_pool(&wal_store, || plan.execute(&wal_catalog).unwrap().rows);
            assert_same_rows(
                &format!("{} (wal twin)", cases[i].name),
                &m.rows,
                &kept_rows[i],
            );
            cases[i].wal_pages = m.pool.pages_read();
            cases[i].wal_ms = m.sim_ms;
        }
        for c in &cases {
            assert!(
                c.wal_pages as f64 <= c.streaming_pages as f64 * OVERHEAD_GATE + 1.0,
                "{}: WAL-on read path touched {} pages vs {} without a log \
                 (5% gate) — durability must not tax reads",
                c.name,
                c.wal_pages,
                c.streaming_pages
            );
            assert!(
                c.wal_ms <= c.streaming_ms * OVERHEAD_GATE + 1.0,
                "{}: WAL-on read path took {:.3} ms vs {:.3} without a log (5% gate)",
                c.name,
                c.wal_ms,
                c.streaming_ms
            );
            summary(
                &format!("streaming.{}_wal_on", c.name),
                format!(
                    "{} pages vs {} wal-off, {:.1} ms vs {:.1}",
                    c.wal_pages, c.streaming_pages, c.wal_ms, c.streaming_ms
                ),
            );
        }
    }

    for c in &cases {
        let ratio = c.batch_pages as f64 / c.streaming_pages.max(1) as f64;
        println!(
            "{}\t{}\t{}\t{:.1}x\t{}\t{}\t{}",
            c.name,
            c.streaming_pages,
            c.batch_pages,
            ratio,
            ms(c.streaming_ms),
            ms(c.batch_ms),
            c.rows
        );
    }

    // Machine-readable trajectory record, at the workspace root by
    // default (cargo bench runs with the package dir as cwd).
    let json_path = committed_json_path("UPI_BENCH_JSON", "BENCH_streaming.json");
    // Overhead gate: the always-on trace/attribution instrumentation may
    // not cost I/O or simulated time — every streaming measurement must
    // stay within 5% of the committed baseline (one-sided: improvements,
    // like the scatter-shaped read-ahead fix, pass). Read the committed
    // file *before* overwriting it.
    match std::fs::read_to_string(&json_path) {
        // Page counts and simulated times are only comparable at the
        // same dataset scale. Baselines predating the scale field were
        // recorded at 0.05 (see CHANGES.md, PR 4).
        Ok(baseline)
            if (extract_num(&baseline, "scale").unwrap_or(0.05) - scale()).abs() < 1e-9 =>
        {
            for c in &cases {
                let Some((base_pages, base_ms)) = baseline_case(&baseline, c.name) else {
                    eprintln!("[gate] no baseline entry for {}; skipped", c.name);
                    continue;
                };
                assert!(
                    c.streaming_pages as f64 <= base_pages * OVERHEAD_GATE + 1.0,
                    "{}: instrumented streaming read {} pages vs baseline {} (5% gate)",
                    c.name,
                    c.streaming_pages,
                    base_pages
                );
                assert!(
                    c.streaming_ms <= base_ms * OVERHEAD_GATE + 1.0,
                    "{}: instrumented streaming took {:.3} ms vs baseline {:.3} (5% gate)",
                    c.name,
                    c.streaming_ms,
                    base_ms
                );
                summary(
                    &format!("streaming.{}_vs_baseline", c.name),
                    format!(
                        "{} pages vs {:.0} baseline, {:.1} ms vs {:.1}",
                        c.streaming_pages, base_pages, c.streaming_ms, base_ms
                    ),
                );
            }
        }
        Ok(_) => eprintln!(
            "[gate] baseline at a different scale than {}; overhead gate skipped",
            scale()
        ),
        Err(_) => eprintln!("[gate] no committed baseline at {json_path}; overhead gate skipped"),
    }

    let mut json = format!("{{\n  \"scale\": {:.3},\n  \"cases\": [\n", scale());
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"streaming\": {{\"pages_read\": {}, \"bytes_read\": {}, \"elapsed_ms\": {:.3}, \"readahead_wasted\": {}}}, \"batch\": {{\"pages_read\": {}, \"bytes_read\": {}, \"elapsed_ms\": {:.3}}}, \"wal_on\": {{\"pages_read\": {}, \"elapsed_ms\": {:.3}}}, \"rows\": {}}}{}\n",
            c.name,
            c.streaming_pages,
            c.streaming_bytes,
            c.streaming_ms,
            c.streaming_wasted,
            c.batch_pages,
            c.batch_bytes,
            c.batch_ms,
            c.wal_pages,
            c.wal_ms,
            c.rows,
            if i + 1 == cases.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&json_path, json).expect("write BENCH_streaming.json");
    eprintln!("[json] wrote {json_path}");

    // Acceptance: the top-k streaming paths must read >=2x fewer pages.
    for c in &cases {
        if c.name.ends_with("topk") {
            let ratio = c.batch_pages as f64 / c.streaming_pages.max(1) as f64;
            summary(
                &format!("streaming.{}_page_ratio", c.name),
                format!("{ratio:.1}x"),
            );
            assert!(
                ratio >= 2.0,
                "{}: streaming read {} pages vs batch {} — expected >=2x fewer",
                c.name,
                c.streaming_pages,
                c.batch_pages
            );
        }
    }
    summary("streaming.cases", cases.len());
}
