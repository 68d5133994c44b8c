//! Planner-aware prefetch hints, proven through `PoolCounters`.
//!
//! The unhinted buffer pool only trusts a read pattern after **two**
//! adjacent cold misses; a planner that chose a run-shaped access path
//! knows better *before* execution. These tests pin both behaviours:
//!
//! * at the pool level — a run's first page read with an estimate
//!   (`BufferPool::get_run`) arms read-ahead after a **single** cold miss with a window sized from the estimated run
//!   length, while an unhinted run still pays the two-miss detection
//!   latency;
//! * end-to-end — a planned clustered range run carries its estimated
//!   length (and no page: planning reads none), the seek that opens the
//!   run reads the leaf it lands on with that estimate, and the hinted
//!   execution takes
//!   measurably fewer demand misses than the same plan with the estimate
//!   stripped (same rows either way).

use std::sync::Arc;

use upi::{TableLayout, UpiConfig};
use upi_query::{PhysicalPlan, PtqQuery, UncertainDb};
use upi_storage::{DiskConfig, FaultPlan, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema};

const ATTR: usize = 1;

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
}

/// A UPI-clustered facade table whose per-value runs span hundreds of
/// 8 KiB pages (12k tuples, ~290-byte payloads, 5 values).
fn build() -> UncertainDb {
    let schema = Schema::new(vec![
        ("pad", FieldKind::Str),
        ("value", FieldKind::Discrete),
    ]);
    let mut db = UncertainDb::create(
        store(),
        "hinted",
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

#[test]
fn unhinted_readahead_needs_two_adjacent_misses() {
    let st = store();
    let f = st.disk.create_file("plain", 8192);
    let pages: Vec<_> = (0..16).map(|_| st.disk.alloc_page(f).unwrap()).collect();
    for &p in &pages {
        st.disk
            .write_page(p, bytes::Bytes::from(vec![1u8; 8192]))
            .unwrap();
    }
    st.go_cold();
    let before = st.pool.counters();
    st.pool.get(pages[0]).unwrap();
    let after_one = st.pool.counters().since(&before);
    assert_eq!(after_one.misses, 1);
    assert_eq!(
        after_one.readahead, 0,
        "one miss is not a run: no prefetch yet"
    );
    st.pool.get(pages[1]).unwrap();
    let after_two = st.pool.counters().since(&before);
    assert_eq!(after_two.misses, 2);
    assert!(
        after_two.readahead > 0,
        "the second adjacent miss must arm read-ahead: {after_two}"
    );
}

#[test]
fn hinted_run_arms_on_first_miss_with_run_sized_window() {
    let st = store();
    let f = st.disk.create_file("hinted", 8192);
    let pages: Vec<_> = (0..40).map(|_| st.disk.alloc_page(f).unwrap()).collect();
    for &p in &pages {
        st.disk
            .write_page(p, bytes::Bytes::from(vec![2u8; 8192]))
            .unwrap();
    }
    st.go_cold();
    let before = st.pool.counters();
    st.pool.get_run(pages[0], Some(30)).unwrap();
    let c = st.pool.counters().since(&before);
    assert_eq!(c.misses, 1, "exactly one cold miss so far");
    assert_eq!(c.hinted_runs, 1, "the estimate must arm the run: {c}");
    assert_eq!(
        c.readahead,
        29,
        "window must cover the estimated run, not the fixed {}-page \
         detector window: {c}",
        st.disk.config().readahead_pages
    );
}

#[test]
fn planned_range_run_carries_and_arms_a_hint() {
    let db = build();
    let st = db.table().store().clone();

    let q = PtqQuery::range(ATTR, 1, 3).with_qt(0.1);
    let plan = db.plan(&q).unwrap();
    assert_eq!(plan.path().label(), "UpiRange");
    let hint = *plan.candidates[0]
        .hints
        .first()
        .expect("a clustered range run must carry a prefetch hint");
    assert!(
        hint > 50,
        "three of five values over ~430 heap pages: {hint}"
    );
    assert!(
        plan.explain().contains("prefetch hint:"),
        "{}",
        plan.explain()
    );

    let catalog = db.catalog();

    // Hinted (as planned): the open arms read-ahead on the run's first
    // miss.
    st.go_cold();
    let hinted = plan.execute(&catalog).unwrap();
    let hinted_io = hinted.io.expect("session registers the pool");
    assert_eq!(hinted_io.hinted_runs, 1, "{hinted_io}");
    assert!(hinted_io.readahead > 0, "{hinted_io}");

    // The same physical plan with the hint stripped: identical answer,
    // but the pool falls back to two-miss detection with its fixed
    // window, paying a demand miss every `readahead_pages`.
    let mut stripped = plan.candidates[0].clone();
    stripped.hints.clear();
    let unhinted_plan = PhysicalPlan {
        query: q.clone(),
        candidates: vec![stripped],
    };
    st.go_cold();
    let unhinted = unhinted_plan.execute(&catalog).unwrap();
    let unhinted_io = unhinted.io.unwrap();
    assert_eq!(unhinted_io.hinted_runs, 0, "{unhinted_io}");

    assert_eq!(hinted.rows.len(), unhinted.rows.len());
    for (a, b) in hinted.rows.iter().zip(&unhinted.rows) {
        assert_eq!(a.tuple.id, b.tuple.id);
    }
    assert!(
        hinted_io.misses * 2 < unhinted_io.misses,
        "run-length-sized batches must cut demand misses well below the \
         fixed-window detector: hinted {hinted_io} vs unhinted {unhinted_io}"
    );
    // Both read essentially the run; the hint moves pages from demand
    // misses into large prefetch batches rather than reading more.
    assert!(
        hinted_io.pages_read() <= unhinted_io.pages_read() + hint as u64,
        "hinted {hinted_io} vs unhinted {unhinted_io}"
    );
}

#[test]
fn failed_execution_clears_its_armed_hint() {
    let db = build();
    let st = db.table().store().clone();
    let q = PtqQuery::range(ATTR, 0, 4).with_qt(0.1);
    let plan = db.plan(&q).unwrap();
    // The full scan's seek lands on the heap's first leaf.
    let scan = plan
        .candidates
        .iter()
        .find(|c| c.path.label() == "UpiFullScan")
        .expect("a plain UPI always offers a full scan")
        .clone();
    assert!(!scan.hints.is_empty(), "a full scan carries its run length");
    let mut stripped = scan.clone();
    stripped.hints.clear();
    let scan_plan = PhysicalPlan {
        query: q.clone(),
        candidates: vec![scan],
    };
    let height = db.table().chain().main().heap_stats().height;
    assert!(height > 1, "the seek must descend before its leaf read");

    // From cold, the seek reads `height - 1` internal pages and then the
    // leaf it reads with its run estimate: fail the device on that read.
    // Nothing of the failed read may survive to mis-fire on a later
    // unrelated access of that page.
    st.go_cold();
    let before = st.disk.stats();
    st.disk
        .set_fault_plan(FaultPlan::kill_at(height as u64 - 1));
    assert!(scan_plan.execute(&db.catalog()).is_err());
    st.disk.clear_fault_plan();
    assert_eq!(
        st.disk.stats().since(&before).page_reads,
        height as u64 - 1,
        "the device must die on the leaf read, after the descent"
    );

    // The same scan without its estimate arms nothing and suppresses run
    // detection, and its first miss is that leaf: only a stale estimate
    // could arm there.
    let stripped_plan = PhysicalPlan {
        query: q,
        candidates: vec![stripped],
    };
    let before = st.pool.counters();
    stripped_plan.execute(&db.catalog()).unwrap();
    let after = st.pool.counters().since(&before);
    assert_eq!(
        after.hinted_runs, 0,
        "a failed execution must leave nothing armed: {after}"
    );
    assert_eq!(after.readahead, 0, "{after}");
}

#[test]
fn point_and_scan_plans_carry_hints_pointer_paths_do_not() {
    let db = build();
    let point = db.plan(&PtqQuery::eq(ATTR, 3).with_qt(0.1)).unwrap();
    for cand in &point.candidates {
        let label = cand.path.label();
        if label.starts_with("UpiHeap") || label == "UpiFullScan" {
            let hint = *cand
                .hints
                .first()
                .unwrap_or_else(|| panic!("{label} needs a hint"));
            assert!(hint >= 1);
        }
    }
    // A top-k plan bounds its hinted window by k rows' worth of leaves.
    let topk = db
        .plan(&PtqQuery::eq(ATTR, 3).with_qt(0.1).with_top_k(5))
        .unwrap();
    let full_hint = point.candidates[0].hints[0];
    let topk_hint = topk.candidates[0].hints[0];
    assert!(
        topk_hint <= full_hint,
        "top-k window {topk_hint} must not exceed the full run's {full_hint}"
    );
    assert!(
        topk_hint <= 2,
        "5 rows fit in a couple of leaves: {topk_hint}"
    );
}
