//! Multi-run prefetch hints on the fractured fast path, proven through
//! `PoolCounters`.
//!
//! PR 3's planner hints covered single-run plans only, and the buffer
//! pool tracked a single pending hint and a single detected run — a
//! fracture-parallel merge, which interleaves reads across component
//! files, got neither. These tests pin the generalized behaviour:
//!
//! * at the pool level — k concurrent hinted runs each arm on their own
//!   first miss with no cross-run interference, the two-adjacent-miss
//!   fallback still works for unhinted runs even when interleaved with
//!   hinted ones, and clearing one run's hint leaves its siblings armed;
//! * end-to-end — a fractured plan carries one `AccessHint` per
//!   component, the executor arms all of them before opening the k-way
//!   merge (`PoolCounters::hinted_runs` equals the component count), a
//!   failed open clears exactly the hints it armed, and the hinted
//!   execution takes measurably fewer demand misses than the same plan
//!   with the hints stripped (same rows either way).

use std::sync::Arc;

use upi::{FracturedConfig, TableLayout, UpiConfig};
use upi_query::{AccessPath, PhysicalPlan, PtqQuery, UncertainDb};
use upi_storage::{AccessHint, DiskConfig, SimDisk, Store};
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
    // Three files, three hints, reads interleaved the way a k-way merge
    // pulls one row per component: each run must arm on its own first
    // miss and stream from read-ahead from then on.
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
        st.pool.hint_run(AccessHint {
            start_page: run[0],
            est_run_pages: run.len(),
        });
    }
    for i in 0..runs[0].len() {
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
    st.pool.hint_run(AccessHint {
        start_page: hinted[0],
        est_run_pages: hinted.len(),
    });
    // Interleave: hinted run arms on its first miss; the unhinted run
    // still needs its own two adjacent misses, unaffected by the hinted
    // traffic in between.
    st.pool.get(hinted[0]).unwrap();
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
    for h in hints {
        assert!(h.est_run_pages >= 1);
    }
    assert!(
        plan.explain().contains("prefetch hints:"),
        "{}",
        plan.explain()
    );

    let catalog = db.catalog();

    // Hinted (as planned): every component's run arms on its first miss.
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

    // The point merge gets per-component hints too, and its k-way open
    // consumes all of them.
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
    let q = PtqQuery::range(ATTR, 1, 3).with_qt(0.1);
    let plan = db.plan(&q).unwrap();
    let hints = plan.candidates[0].hints.clone();
    assert!(hints.len() >= 2);

    // An unrelated hint armed by "someone else" (a concurrent query)
    // must survive this plan's failed execution.
    let f = st.disk.create_file("bystander", 8192);
    let pages: Vec<_> = (0..8).map(|_| st.disk.alloc_page(f).unwrap()).collect();
    for &p in &pages {
        st.disk
            .write_page(p, bytes::Bytes::from(vec![9u8; 8192]))
            .unwrap();
    }
    st.pool.hint_run(AccessHint {
        start_page: pages[0],
        est_run_pages: pages.len(),
    });

    // Execute against a catalog that registers the pool but not the
    // fractured UPI: open_source fails after the hints were armed.
    let mismatched = upi_query::Catalog::new(st.disk.config()).with_pool(st.pool.as_ref());
    assert!(plan.execute(&mismatched).is_err());

    // None of the plan's own hints survive to mis-fire later...
    let before = st.pool.counters();
    for h in &hints {
        st.pool.get(h.start_page).unwrap();
    }
    let after = st.pool.counters().since(&before);
    assert_eq!(
        after.hinted_runs, 0,
        "hints armed by a failed execution must all be cleared: {after}"
    );

    // ...while the bystander's hint is still pending and arms normally.
    let before = st.pool.counters();
    st.pool.get(pages[0]).unwrap();
    let after = st.pool.counters().since(&before);
    assert_eq!(after.hinted_runs, 1, "unrelated hint must survive: {after}");
}
