//! Per-query device-time attribution, proven at both layers.
//!
//! The simulated device keeps one store-wide clock, so before/after
//! snapshots taken by concurrent queries inflate each other. The
//! attribution layer gives every query its own window: a scoped
//! `BufferPool::attributed(query_id)` guard routes each device charge to
//! the owning query's slot as well as the store-wide ledger. These tests
//! pin the partition identity — **the sum of the attributed slots equals
//! the store-wide delta** — for raw interleaved pool access, for
//! sequential alternating session queries, and for genuinely concurrent
//! sessions on two threads; plus the determinism corollary: trace
//! timestamps come from the *per-query* attributed clock only, so two
//! identical cold runs render byte-identical span trees even though the
//! store-wide clock has moved between them.

use std::sync::Arc;

use upi::{FracturedConfig, ShardLayout, TableLayout, UpiConfig};
use upi_query::{PtqQuery, ShardedDb, UncertainDb};
use upi_storage::{DiskConfig, QueryId, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema};

const ATTR: usize = 1;

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
}

/// A UPI-clustered facade table: 12k rows over 5 values, ~290-byte
/// payloads, so each value's clustered run spans dozens of pages.
fn build() -> UncertainDb {
    let schema = Schema::new(vec![
        ("pad", FieldKind::Str),
        ("value", FieldKind::Discrete),
    ]);
    let mut db = UncertainDb::create(
        store(),
        "attrib",
        schema,
        ATTR,
        TableLayout::Upi(UpiConfig::default()),
    )
    .unwrap();
    let tuples: Vec<upi_uncertain::Tuple> = (0..12_000u64)
        .map(|i| {
            let p = 0.55 + (i % 400) as f64 / 1000.0;
            upi_uncertain::Tuple::new(
                upi_uncertain::TupleId(i),
                1.0,
                vec![
                    Field::Certain(Datum::Str(format!("pad-{i}-{}", "x".repeat(256)))),
                    Field::Discrete(DiscretePmf::new(vec![(i % 5, p)])),
                ],
            )
        })
        .collect();
    db.load(&tuples).unwrap();
    db
}

/// A fractured facade table: main holds 4k rows like [`build`]'s, one
/// fracture holds 200 more of value 2, all at confidence 0.3 — below any
/// top-k floor main's value-2 run sets.
fn build_fractured() -> UncertainDb {
    let schema = Schema::new(vec![
        ("pad", FieldKind::Str),
        ("value", FieldKind::Discrete),
    ]);
    let mut db = UncertainDb::create(
        store(),
        "attrib_fractured",
        schema,
        ATTR,
        TableLayout::FracturedUpi(FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        }),
    )
    .unwrap();
    let row = |i: u64, value: u64, p: f64| {
        upi_uncertain::Tuple::new(
            upi_uncertain::TupleId(i),
            1.0,
            vec![
                Field::Certain(Datum::Str(format!("pad-{i}-{}", "x".repeat(256)))),
                Field::Discrete(DiscretePmf::new(vec![(value, p)])),
            ],
        )
    };
    let main: Vec<upi_uncertain::Tuple> = (0..4_000u64)
        .map(|i| row(i, i % 5, 0.55 + (i % 400) as f64 / 1000.0))
        .collect();
    db.load(&main).unwrap();
    for i in 100_000..100_200u64 {
        db.insert_tuple(&row(i, 2, 0.3)).unwrap();
    }
    db.flush().unwrap();
    db
}

/// Raw pool level: two queries interleave page-at-a-time on one pool;
/// each slot sees exactly its own pages, and the slots partition the
/// store-wide delta.
#[test]
fn interleaved_pool_access_partitions_the_device_clock() {
    let st = store();
    let f = st.disk.create_file("raw", 8192);
    let pages: Vec<_> = (0..32).map(|_| st.disk.alloc_page(f).unwrap()).collect();
    for &p in &pages {
        st.disk
            .write_page(p, bytes::Bytes::from(vec![7u8; 8192]))
            .unwrap();
    }
    st.go_cold();

    let qa = QueryId::next();
    let qb = QueryId::next();
    let before = st.disk.stats();
    // Interleave A and B page-at-a-time. Run detection is suppressed so
    // neither query speculates into the other's pages and the per-slot
    // page counts stay exact.
    for pair in pages.chunks(2) {
        {
            let _g = st.pool.attributed(qa).suppress_run_detection();
            st.pool.get(pair[0]).unwrap();
        }
        {
            let _g = st.pool.attributed(qb).suppress_run_detection();
            st.pool.get(pair[1]).unwrap();
        }
    }
    let delta = st.disk.stats().since(&before);
    let a = st.pool.take_attributed(qa);
    let b = st.pool.take_attributed(qb);

    assert_eq!(a.page_reads, 16, "A reads exactly its own 16 pages");
    assert_eq!(b.page_reads, 16, "B reads exactly its own 16 pages");
    assert_eq!(a.page_reads + b.page_reads, delta.page_reads);
    assert!(a.total_ms() > 0.0 && b.total_ms() > 0.0);
    let sum = a.total_ms() + b.total_ms();
    assert!(
        (sum - delta.total_ms()).abs() < 1e-6,
        "attributed windows must partition the store delta: {sum} vs {}",
        delta.total_ms()
    );
}

/// Session level, alternating: an expensive full-run PTQ and a cheap
/// early-terminating top-k take turns on one pool. Each `QueryOutput`
/// carries only its own device window, and the windows sum to the
/// store-wide delta across the whole phase.
#[test]
fn alternating_session_queries_observe_only_their_own_device_ms() {
    let db = build();
    let st = db.table().store().clone();
    st.go_cold();

    let before = st.disk.stats();
    let mut sum = 0.0;
    let mut pages = 0u64;
    for round in 0..3 {
        // Fresh cold cache per round: the previous round's read-ahead
        // would otherwise pre-warm this round's pages (dropping clean
        // pages costs no device time, so the partition identity below
        // still spans all rounds).
        st.go_cold();
        let expensive = db
            .query(&PtqQuery::eq(ATTR, round % 5).with_qt(0.56))
            .unwrap();
        let cheap = db
            .query(
                &PtqQuery::eq(ATTR, (round + 2) % 5)
                    .with_qt(0.56)
                    .with_top_k(3),
            )
            .unwrap();
        let e = expensive.device.expect("session attributes device time");
        let c = cheap.device.expect("session attributes device time");
        assert!(
            e.total_ms() > 4.0 * c.total_ms(),
            "round {round}: the full run ({:.2} ms) must dwarf the \
             early-terminated top-k ({:.2} ms)",
            e.total_ms(),
            c.total_ms()
        );
        sum += e.total_ms() + c.total_ms();
        pages += e.page_reads + c.page_reads;
    }
    let delta = st.disk.stats().since(&before);
    assert_eq!(pages, delta.page_reads, "every page read is attributed");
    assert!(
        (sum - delta.total_ms()).abs() < 1e-6,
        "attributed windows must sum to the store delta: {sum} vs {}",
        delta.total_ms()
    );
}

/// Two threads race real queries on one shared pool. The thread-local
/// attribution stacks keep the windows disjoint without coordination:
/// the sum of every query's attributed window equals the store-wide
/// delta exactly.
#[test]
fn concurrent_queries_on_one_pool_partition_the_device_clock() {
    let db = build();
    let st = db.table().store().clone();
    st.go_cold();

    let before = st.disk.stats();
    let totals: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let db = &db;
                scope.spawn(move || {
                    let mut sum = 0.0;
                    for round in 0..3u64 {
                        let out = db
                            .query(&PtqQuery::eq(ATTR, (2 * round + t) % 5).with_qt(0.56))
                            .unwrap();
                        // A zero window is legitimate here: the racing
                        // thread's read-ahead may have served this
                        // query's pages entirely from RAM — the point
                        // is that such a query observes *no* device
                        // time, not the store-wide clock.
                        let dev = out.device.expect("session attributes device time");
                        sum += dev.total_ms();
                    }
                    sum
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let delta = st.disk.stats().since(&before);
    assert!(delta.page_reads > 0, "the racing phase must do real I/O");
    let sum: f64 = totals.iter().sum();
    assert!(
        (sum - delta.total_ms()).abs() < 1e-6,
        "across two racing threads the attributed windows must still \
         partition the store delta: {sum} vs {}",
        delta.total_ms()
    );
    // No thread observed more than the store spent overall.
    for t in &totals {
        assert!(*t >= 0.0 && *t <= delta.total_ms() + 1e-6);
    }
}

/// Three-shard twin of [`build`]: same 12k rows, hash-routed across
/// three independent stores (own disk clocks).
fn build_sharded(name: &str) -> ShardedDb {
    let schema = Schema::new(vec![
        ("pad", FieldKind::Str),
        ("value", FieldKind::Discrete),
    ]);
    let mut db = ShardedDb::create(
        (0..3).map(|_| store()).collect(),
        name,
        schema,
        ATTR,
        TableLayout::Upi(UpiConfig::default()),
        ShardLayout::HashTid(3),
    )
    .unwrap();
    let tuples: Vec<upi_uncertain::Tuple> = (0..12_000u64)
        .map(|i| {
            let p = 0.55 + (i % 400) as f64 / 1000.0;
            upi_uncertain::Tuple::new(
                upi_uncertain::TupleId(i),
                1.0,
                vec![
                    Field::Certain(Datum::Str(format!("pad-{i}-{}", "x".repeat(256)))),
                    Field::Discrete(DiscretePmf::new(vec![(i % 5, p)])),
                ],
            )
        })
        .collect();
    db.load(&tuples).unwrap();
    db
}

/// Sharded scatter-gather level: one logical table partitioned across
/// three stores, each with its own simulated device clock, raced by two
/// session threads mixing the watermark-bounded top-k fast path with
/// full scatter PTQs. Every `QueryOutput.device` window is the sum of
/// that query's per-shard attributed slots, so across the whole racing
/// phase **Σ per-query windows = Σ per-shard store-wide deltas** — the
/// partition identity survives the scatter-gather fan-out.
#[test]
fn racing_sharded_queries_partition_every_shard_clock() {
    let db = build_sharded("attrib_sh");

    let stores: Vec<Store> = db
        .shards()
        .iter()
        .map(|s| s.table().store().clone())
        .collect();
    for st in &stores {
        st.go_cold();
    }

    let before: Vec<_> = stores.iter().map(|st| st.disk.stats()).collect();
    let totals: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let db = &db;
                scope.spawn(move || {
                    let mut sum = 0.0;
                    for round in 0..3u64 {
                        // The shared-watermark top-k fast path...
                        let topk = db
                            .query(
                                &PtqQuery::eq(ATTR, (2 * round + t) % 5)
                                    .with_qt(0.56)
                                    .with_top_k(5),
                            )
                            .unwrap();
                        // ...racing a full scatter over every shard.
                        let full = db
                            .query(&PtqQuery::eq(ATTR, (2 * round + t + 1) % 5).with_qt(0.56))
                            .unwrap();
                        for out in [&topk, &full] {
                            let dev = out.device.expect("scatter attributes device time");
                            // As in the single-pool race, a zero window
                            // is legitimate (the rival's read-ahead may
                            // serve a whole shard from RAM).
                            sum += dev.total_ms();
                        }
                    }
                    sum
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let deltas: Vec<_> = stores
        .iter()
        .zip(&before)
        .map(|(st, b)| st.disk.stats().since(b))
        .collect();
    let delta_sum: f64 = deltas.iter().map(|d| d.total_ms()).sum();
    let delta_pages: u64 = deltas.iter().map(|d| d.page_reads).sum();
    assert!(delta_pages > 0, "the racing phase must do real I/O");
    for d in &deltas {
        assert!(
            d.page_reads > 0,
            "every shard must be touched by the scatter phase"
        );
    }
    let sum: f64 = totals.iter().sum();
    assert!(
        (sum - delta_sum).abs() < 1e-6,
        "across two racing sessions and three shard clocks the attributed \
         windows must partition the combined store delta: {sum} vs {delta_sum}"
    );
    // Every shard bounds every value above qt = 0.56: the exact skip set
    // is empty, however the two sessions interleave.
    assert_eq!(db.shards_skipped(), 0);
}

/// The trace of one cold `run`: every store is dropped to cold first,
/// so only the per-query attributed clock can reach the trace.
fn cold_trace(stores: &[Store], run: impl Fn() -> upi_query::QueryOutput) -> upi_query::QueryTrace {
    for st in stores {
        st.go_cold();
    }
    run().trace.expect("facade queries trace")
}

/// Satellite: trace timestamps come from the per-query attributed device
/// clock only. Two identical cold runs — with the *store-wide* clock
/// advanced in between — must render byte-identical span trees. That
/// holds for a sharded top-k and a sharded whole scatter too: the shards
/// advance in rounds on the caller's thread, so how far each one reads,
/// and why it finished, is a function of the data alone. So does a
/// fractured top-k that leaves a component unopened — and its span says
/// which bound ruled the component out.
#[test]
fn identical_cold_runs_render_byte_identical_traces() {
    let db = build();
    let fractured = build_fractured();
    let fractured_store = [fractured.table().store().clone()];
    let sharded = build_sharded("attrib_trace");
    let stores: Vec<Store> = sharded
        .shards()
        .iter()
        .map(|s| s.table().store().clone())
        .collect();
    let single = [db.table().store().clone()];
    let topk = PtqQuery::eq(ATTR, 2).with_qt(0.6).with_top_k(7);
    let whole = PtqQuery::eq(ATTR, 2).with_qt(0.6);
    let pairs = [
        (
            cold_trace(&single, || db.query(&topk).unwrap()),
            cold_trace(&single, || db.query(&topk).unwrap()),
        ),
        (
            cold_trace(&stores, || sharded.query(&topk).unwrap()),
            cold_trace(&stores, || sharded.query(&topk).unwrap()),
        ),
        (
            cold_trace(&stores, || sharded.query(&whole).unwrap()),
            cold_trace(&stores, || sharded.query(&whole).unwrap()),
        ),
        (
            cold_trace(&fractured_store, || fractured.query(&topk).unwrap()),
            cold_trace(&fractured_store, || fractured.query(&topk).unwrap()),
        ),
    ];

    for (first, second) in &pairs {
        let (a, b) = (first.render(), second.render());
        assert!(
            a.contains("device_ms="),
            "trace must carry per-operator device time:\n{a}"
        );
        assert_ne!(
            first.query_id, second.query_id,
            "each execution gets its own query id"
        );
        assert_eq!(
            a, b,
            "same plan, same cold cache, new store-clock epoch: the rendered \
             trace may not change"
        );
    }
    // The sharded roots record their round count, and every shard span
    // says why the shard finished.
    for (trace, _) in &pairs[1..3] {
        assert!(
            trace.spans[0].label.contains("rounds="),
            "{}",
            trace.render()
        );
        for span in trace.spans.iter().filter(|s| s.depth == 1) {
            assert!(span.label.ends_with(']'), "{}", span.label);
        }
    }
    // The fracture's bound for value 2 (0.3) is below main's seventh
    // best: it was never opened, and its span says why.
    let fractured_trace = pairs[3].0.render();
    assert!(
        fractured_trace.contains("Component#1(fracture) [not opened: bound 0.300 < floor 0.9"),
        "{fractured_trace}"
    );
}

/// Attribution *within* one query: a scatter runs every shard on the
/// caller's thread under one attribution id, and each shard's device
/// charges land in that id's slot of its own pool. For a single query
/// the partition identity must hold — `QueryOutput.device` (the
/// gathered sum of the per-shard slots) equals the sum of the per-shard
/// store-wide deltas, the depth-1 trace spans partition that sum
/// shard-by-shard, and `latency_ms` is their max, strictly below the sum
/// when several shards do real I/O.
#[test]
fn shard_workers_within_one_query_partition_their_own_clocks() {
    let db = build_sharded("attrib_par");
    let stores: Vec<Store> = db
        .shards()
        .iter()
        .map(|s| s.table().store().clone())
        .collect();

    let queries = [
        PtqQuery::eq(ATTR, 2).with_qt(0.56),
        PtqQuery::eq(ATTR, 4).with_qt(0.56).with_top_k(5),
    ];
    for q in &queries {
        for st in &stores {
            st.go_cold();
        }
        let before: Vec<_> = stores.iter().map(|st| st.disk.stats()).collect();
        let out = db.query(q).unwrap();
        let deltas: Vec<_> = stores
            .iter()
            .zip(&before)
            .map(|(st, b)| st.disk.stats().since(b))
            .collect();
        for d in &deltas {
            assert!(d.page_reads > 0, "round 0 opens every live shard");
        }

        let dev = out.device.expect("scatter attributes device time");
        let delta_pages: u64 = deltas.iter().map(|d| d.page_reads).sum();
        let delta_sum: f64 = deltas.iter().map(|d| d.total_ms()).sum();
        let delta_max = deltas.iter().map(|d| d.total_ms()).fold(0.0, f64::max);
        assert_eq!(
            dev.page_reads, delta_pages,
            "every page the shards read is attributed to this query"
        );
        assert!(
            (dev.total_ms() - delta_sum).abs() < 1e-6,
            "one query's shards must partition its shard clocks: \
             {} vs {delta_sum}",
            dev.total_ms()
        );

        // The gathered trace exposes the same partition per shard...
        let trace = out.trace.expect("scatter traces");
        let windows: Vec<f64> = trace
            .spans
            .iter()
            .filter(|s| s.depth == 1)
            .map(|s| s.device_ms.expect("shard spans carry device windows"))
            .collect();
        assert_eq!(windows.len(), stores.len());
        let span_sum: f64 = windows.iter().sum();
        assert!((span_sum - delta_sum).abs() < 1e-6);

        // ...and latency is the max window (parallel semantics), not
        // the calibration-facing sum.
        let latency = out.latency_ms.expect("scatter reports parallel latency");
        let span_max = windows.iter().copied().fold(0.0, f64::max);
        assert!((latency - span_max).abs() < 1e-6);
        assert!((latency - delta_max).abs() < 1e-6);
        assert!(
            latency < delta_sum,
            "with three shards doing real I/O the max must undercut the sum"
        );
    }
    // Pruning stayed on: every shard bounds both values above qt, so the
    // exact skip set is empty.
    assert_eq!(db.shards_skipped(), 0);
}

/// Seeded pruning oracle: a range-sharded table whose second shard
/// stores only low-confidence alternatives for a seeded mix of values.
/// An `Eq` query above that shard's bound skips *opening* it — its disk
/// sees zero reads — yet the answer is byte-equal (ids and confidence
/// bits) to the same query on the unsharded twin, which visits every row.
#[test]
fn skipped_cold_shard_answers_are_byte_equal_to_unskipped() {
    let schema = Schema::new(vec![
        ("pad", FieldKind::Str),
        ("value", FieldKind::Discrete),
    ]);
    let layout = TableLayout::Upi(UpiConfig::default());
    let mut db = ShardedDb::create(
        (0..2).map(|_| store()).collect(),
        "attrib_cold",
        schema.clone(),
        ATTR,
        layout.clone(),
        ShardLayout::RangeTid(vec![50_000]),
    )
    .unwrap();
    let mut twin = UncertainDb::create(store(), "attrib_cold", schema, ATTR, layout).unwrap();
    // Seeded LCG (deterministic across runs) drives values and
    // probabilities. Shard 0: hot, confidences up to ~0.95. Shard 1:
    // the same value mix but every confidence <= 0.3, so its sketch
    // bounds sit below qt for every value regardless of bucket
    // collisions.
    let mut seed = 0xDEAD_BEEFu64;
    let mut rng = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed >> 33
    };
    let mut tuples = Vec::new();
    for i in 0..4_000u64 {
        let hot = rng();
        tuples.push(upi_uncertain::Tuple::new(
            upi_uncertain::TupleId(i),
            1.0,
            vec![
                Field::Certain(Datum::Str(format!("pad-{i}-{}", "x".repeat(200)))),
                Field::Discrete(DiscretePmf::new(vec![(
                    hot % 8,
                    0.5 + (hot % 450) as f64 / 1000.0,
                )])),
            ],
        ));
        let cold = rng();
        tuples.push(upi_uncertain::Tuple::new(
            upi_uncertain::TupleId(50_000 + i),
            1.0,
            vec![
                Field::Certain(Datum::Str(format!("pad-{i}-{}", "x".repeat(200)))),
                Field::Discrete(DiscretePmf::new(vec![(
                    cold % 8,
                    0.05 + (cold % 250) as f64 / 1000.0,
                )])),
            ],
        ));
    }
    tuples.sort_by_key(|t| t.id);
    db.load(&tuples).unwrap();
    twin.load(&tuples).unwrap();
    assert!(
        db.shards()[1].table().confidence_bound(3) < 0.5,
        "the seeded cold shard must bound below qt"
    );

    let stores: Vec<Store> = db
        .shards()
        .iter()
        .map(|s| s.table().store().clone())
        .collect();
    let fp = |out: &upi_query::QueryOutput| -> Vec<(u64, u64)> {
        out.rows
            .iter()
            .map(|r| (r.tuple.id.0, r.confidence.to_bits()))
            .collect()
    };
    for q in [
        PtqQuery::eq(ATTR, 3).with_qt(0.5).with_top_k(7),
        PtqQuery::eq(ATTR, 3).with_qt(0.5),
    ] {
        // The twin's answer is the reference; the pruned run starts on a
        // cold cache so "zero reads" can only mean "never opened".
        let unskipped = twin.query(&q).unwrap();
        for st in &stores {
            st.go_cold();
        }
        let skipped_before = db.shards_skipped();
        let cold_before = stores[1].disk.stats();
        let pruned = db.query(&q).unwrap();

        assert!(!pruned.rows.is_empty(), "the hot shard must qualify rows");
        assert_eq!(
            fp(&pruned),
            fp(&unskipped),
            "pruning may only skip work, never change the answer"
        );
        assert_eq!(
            db.shards_skipped(),
            skipped_before + 1,
            "exactly the cold shard must be pruned"
        );
        assert_eq!(
            stores[1].disk.stats().since(&cold_before).page_reads,
            0,
            "a pruned shard is never opened"
        );
    }
}
