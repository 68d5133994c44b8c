//! Multi-run prefetch hints on the fractured fast path, proven through
//! `PoolCounters`.
//!
//! A fracture-parallel merge interleaves reads across component files,
//! so the buffer pool tracks one run per component. These tests pin that
//! behaviour:
//!
//! * at the pool level — k concurrent runs opened with an estimate
//!   (`BufferPool::get_run`) each arm on their own first miss with no
//!   cross-run interference, and the two-adjacent-miss fallback still
//!   works for unhinted runs even when interleaved with hinted ones;
//! * end-to-end — a fractured plan carries one run-length estimate per
//!   component, each component's open reads the leaf its seek lands on
//!   with its own (`PoolCounters::hinted_runs` equals the component
//!   count), a failed open leaves nothing armed, and the hinted
//!   execution takes measurably fewer demand misses than the same plan
//!   with the hints stripped (same rows either way);
//! * past the estimate — a point probe and a top-k whose component runs
//!   end one leaf past their estimates read that leaf on demand and
//!   prefetch nothing they never read.

use std::sync::Arc;

use upi::{FracturedConfig, TableLayout, UpiConfig};
use upi_query::{AccessPath, PhysicalPlan, PtqQuery, UncertainDb};
use upi_storage::{DiskConfig, FaultPlan, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema};

const ATTR: usize = 1;

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
}

/// A fractured facade table whose components each hold multi-page
/// per-value runs: 12k padded tuples over 5 values, loaded as a main
/// component plus two fractures.
fn build() -> UncertainDb {
    let schema = Schema::new(vec![
        ("pad", FieldKind::Str),
        ("value", FieldKind::Discrete),
    ]);
    let mut db = UncertainDb::create(
        store(),
        "fractured_hinted",
        schema,
        ATTR,
        TableLayout::FracturedUpi(FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        }),
    )
    .unwrap();
    let tuple = |i: u64| {
        let p = 0.55 + (i % 400) as f64 / 1000.0;
        upi_uncertain::Tuple::new(
            upi_uncertain::TupleId(i),
            1.0,
            vec![
                Field::Certain(Datum::Str(format!("pad-{i}-{}", "x".repeat(256)))),
                Field::Discrete(DiscretePmf::new(vec![(i % 5, p)])),
            ],
        )
    };
    let initial: Vec<upi_uncertain::Tuple> = (0..8_000u64).map(tuple).collect();
    db.load(&initial).unwrap();
    for batch in [8_000u64..10_000, 10_000..12_000] {
        for i in batch {
            db.insert_tuple(&tuple(i)).unwrap();
        }
        db.flush().unwrap();
    }
    assert_eq!(db.table().as_fractured().unwrap().n_fractures(), 2);
    db
}

#[test]
fn concurrent_hinted_runs_arm_without_interference() {
    // Three files, three run estimates, reads interleaved the way a k-way
    // merge pulls one row per component: each run must arm on its own
    // first miss and stream from read-ahead from then on.
    let st = store();
    let runs: Vec<Vec<_>> = (0..3)
        .map(|i| {
            let f = st.disk.create_file(&format!("run{i}"), 8192);
            let pages: Vec<_> = (0..24).map(|_| st.disk.alloc_page(f).unwrap()).collect();
            for &p in &pages {
                st.disk
                    .write_page(p, bytes::Bytes::from(vec![i as u8; 8192]))
                    .unwrap();
            }
            pages
        })
        .collect();
    st.go_cold();
    let before = st.pool.counters();
    for run in &runs {
        st.pool.get_run(run[0], Some(run.len())).unwrap();
    }
    for i in 1..runs[0].len() {
        for run in &runs {
            st.pool.get(run[i]).unwrap();
        }
    }
    let c = st.pool.counters().since(&before);
    assert_eq!(c.hinted_runs, 3, "every hint must arm: {c}");
    assert_eq!(c.misses, 3, "one cold miss per run, k runs in flight: {c}");
    assert_eq!(c.readahead, 3 * 23, "{c}");
    assert_eq!(c.readahead_hits, 3 * 23, "{c}");
}

#[test]
fn unhinted_runs_keep_the_two_miss_fallback_beside_hinted_ones() {
    let st = store();
    let make = |name: &str| {
        let f = st.disk.create_file(name, 8192);
        let pages: Vec<_> = (0..16).map(|_| st.disk.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            st.disk
                .write_page(p, bytes::Bytes::from(vec![7u8; 8192]))
                .unwrap();
        }
        pages
    };
    let hinted = make("hinted");
    let plain = make("plain");
    st.go_cold();
    let before = st.pool.counters();
    // Interleave: hinted run arms on its first miss; the unhinted run
    // still needs its own two adjacent misses, unaffected by the hinted
    // traffic in between.
    st.pool.get_run(hinted[0], Some(hinted.len())).unwrap();
    st.pool.get(plain[0]).unwrap();
    let c = st.pool.counters().since(&before);
    assert_eq!(c.hinted_runs, 1, "{c}");
    assert_eq!(
        c.readahead,
        (hinted.len() - 1) as u64,
        "only the hinted run may have prefetched yet: {c}"
    );
    st.pool.get(plain[1]).unwrap();
    let c = st.pool.counters().since(&before);
    assert!(
        c.readahead > (hinted.len() - 1) as u64,
        "the unhinted run's second adjacent miss must arm detection: {c}"
    );
    assert_eq!(c.hinted_runs, 1, "detection is not a hint: {c}");
}

#[test]
fn fractured_plans_carry_one_hint_per_component_and_arm_them_all() {
    let db = build();
    let st = db.table().store().clone();
    let components = db.table().as_fractured().unwrap().n_fractures() + 1;

    let q = PtqQuery::range(ATTR, 1, 3).with_qt(0.1);
    let plan = db.plan(&q).unwrap();
    assert_eq!(plan.path().label(), "FracturedRange");
    let hints = &plan.candidates[0].hints;
    assert_eq!(
        hints.len(),
        components,
        "a fractured range plan must hint every component: {}",
        plan.explain()
    );
    for &h in hints {
        assert!(h >= 1);
    }
    assert!(
        plan.explain().contains("prefetch hints:"),
        "{}",
        plan.explain()
    );

    let catalog = db.catalog();

    // Hinted (as planned): every component's open arms its run's
    // read-ahead on the run's first miss.
    st.go_cold();
    let hinted = plan.execute(&catalog).unwrap();
    let hinted_io = hinted.io.expect("session registers the pool");
    assert_eq!(
        hinted_io.hinted_runs, components as u64,
        "all component hints must be consumed: {hinted_io}"
    );

    // The same physical plan with the hints stripped: identical answer,
    // but every component pays the two-miss detection latency and the
    // fixed window.
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
        "per-component hints must cut demand misses well below the \
         detector: hinted {hinted_io} vs unhinted {unhinted_io}"
    );

    // The point merge gets per-component hints too, and opening every
    // component (each holds rows of the value) consumes all of them.
    let point = db.plan(&PtqQuery::eq(ATTR, 3).with_qt(0.1)).unwrap();
    assert_eq!(
        point.path(),
        &AccessPath::UpiHeap {
            use_cutoff: false,
            fractured: true
        }
    );
    assert_eq!(point.candidates[0].hints.len(), components);
    st.go_cold();
    let out = point.execute(&catalog).unwrap();
    let io = out.io.unwrap();
    assert_eq!(io.hinted_runs, components as u64, "{io}");
}

#[test]
fn failed_open_clears_only_its_own_hints() {
    let db = build();
    let st = db.table().store().clone();
    // [0, 4] starts every component's run at that component's first leaf.
    let q = PtqQuery::range(ATTR, 0, 4).with_qt(0.1);
    let plan = db.plan(&q).unwrap();
    assert_eq!(plan.path().label(), "FracturedRange");
    assert!(plan.candidates[0].hints.len() >= 2);
    let mut stripped = plan.clone();
    for c in &mut stripped.candidates {
        c.hints.clear();
    }
    // Main opens first; from cold its seek reads `height - 1` internal
    // pages, then the leaf it reads with its run estimate.
    let height = db.table().chain().unwrap().main().heap_stats().height;
    assert!(height > 1, "the seek must descend before its leaf read");
    st.go_cold();

    // The device dies on the first leaf read: the open fails on the read
    // that carries its run estimate.
    let before = st.disk.stats();
    st.disk
        .set_fault_plan(FaultPlan::kill_at(height as u64 - 1));
    assert!(plan.execute(&db.catalog()).is_err());
    st.disk.clear_fault_plan();
    assert_eq!(
        st.disk.stats().since(&before).page_reads,
        height as u64 - 1,
        "the device must die on the leaf read, after the descent"
    );

    // Nothing of the failed execution survives to mis-fire later: the
    // same plan without estimates arms nothing, and its first miss on
    // every component is that component's landing leaf.
    let before = st.pool.counters();
    stripped.execute(&db.catalog()).unwrap();
    let after = st.pool.counters().since(&before);
    assert_eq!(
        after.hinted_runs, 0,
        "a failed execution must leave nothing armed: {after}"
    );
}

#[test]
fn runs_past_their_estimates_prefetch_nothing_unread() {
    // Value 4 above 0.6: the component runs cross one leaf past their
    // estimates, onto the leaf that holds the key ending the run, and the
    // reader stops there. That leaf must be read on demand, alone: a
    // blind 8-page window behind it left 12 pages unread for the probe
    // and 8 for the top-k.
    let db = build();
    let st = db.table().store().clone();
    let components = db.table().as_fractured().unwrap().n_fractures() + 1;
    // Tuple `i` has value `i % 5` with confidence `0.55 + (i % 400) / 1000`
    // (see `build`); rows come in descending confidence, then ascending id.
    let mut expected: Vec<(u64, f64)> = (0..12_000u64)
        .filter(|i| i % 5 == 4)
        .map(|i| (i, 0.55 + (i % 400) as f64 / 1000.0))
        .filter(|&(_, p)| p >= 0.6)
        .collect();
    expected.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let point = PtqQuery::eq(ATTR, 4).with_qt(0.6);
    let top_k = point.clone().with_top_k(10);
    for (q, want) in [(point, &expected[..]), (top_k, &expected[..10])] {
        let plan = db.plan(&q).unwrap();
        assert_eq!(plan.candidates[0].hints.len(), components);
        st.go_cold();
        let before = st.pool.counters();
        let out = plan.execute(&db.catalog()).unwrap();
        st.go_cold();
        let c = st.pool.counters().since(&before);
        assert_eq!(c.hinted_runs, components as u64, "{c}");
        assert_eq!(
            c.readahead_wasted,
            0,
            "a read past an estimate must not prefetch: {c}\n{}",
            plan.explain()
        );
        let got: Vec<u64> = out.rows.iter().map(|r| r.tuple.id.0).collect();
        let ids: Vec<u64> = want.iter().map(|&(i, _)| i).collect();
        assert_eq!(got, ids);
        for (r, &(_, p)) in out.rows.iter().zip(want) {
            // Stored probabilities are quantised: equal to 1e-9.
            assert!((r.confidence - p).abs() < 1e-9, "{} vs {p}", r.confidence);
        }
    }
}
