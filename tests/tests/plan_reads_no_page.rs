//! `plan()` reads no page.
//!
//! The planner prices every candidate from in-memory statistics; the
//! opens that execute the chosen one resolve where each run starts. On
//! every layout — UPI, fractured UPI, unclustered heap + PIIs, continuous
//! UPI with its secondaries — and for every query shape — point, top-k,
//! range, secondary, circle — planning on a cold store leaves the
//! device's `IoStats` and the buffer pool's `PoolCounters` untouched.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upi::{
    ContinuousConfig, ContinuousSecondary, ContinuousUpi, FracturedConfig, SecondaryUTree,
    TableLayout, UnclusteredHeap, UpiConfig,
};
use upi_query::{Catalog, PtqQuery, UncertainDb};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema, Tuple, TupleId};
use upi_workloads::cartel::{self, observation_fields as f, CartelConfig};

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
}

fn rows(n: u64, seed: u64) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let a = rng.gen_range(0..20u64);
            let p = rng.gen_range(0.3f64..0.9);
            Tuple::new(
                TupleId(i),
                1.0,
                vec![
                    Field::Certain(Datum::Str(format!("pad-{i}-{}", "x".repeat(64)))),
                    Field::Discrete(DiscretePmf::new(vec![(a, p), ((a + 7) % 20, 1.0 - p)])),
                    Field::Discrete(DiscretePmf::new(vec![(i % 6, 0.95)])),
                ],
            )
        })
        .collect()
}

/// Plan every query against `catalog` on a cold store; nothing may move.
fn assert_plans_read_nothing(label: &str, st: &Store, catalog: &Catalog<'_>, queries: &[PtqQuery]) {
    for q in queries {
        st.go_cold();
        let (disk, pool) = (st.disk.stats(), st.pool.counters());
        let plan = q
            .plan(catalog)
            .unwrap_or_else(|e| panic!("{label}: {q:?}: {e}"));
        assert_eq!(
            st.disk.stats(),
            disk,
            "{label}: planning {q:?} touched the device"
        );
        assert_eq!(
            st.pool.counters(),
            pool,
            "{label}: planning {q:?} touched the pool"
        );
        assert!(!plan.explain().contains("from page"), "{}", plan.explain());
    }
}

fn discrete_queries() -> Vec<PtqQuery> {
    vec![
        PtqQuery::eq(1, 3).with_qt(0.2),
        PtqQuery::eq(1, 3).with_qt(0.05),
        PtqQuery::eq(1, 3).with_qt(0.0).with_top_k(5),
        PtqQuery::range(1, 2, 9).with_qt(0.3),
        PtqQuery::range(1, 0, 19).with_qt(0.01).with_group_count(2),
        PtqQuery::eq(2, 4).with_qt(0.5),
        PtqQuery::eq(2, 4).with_qt(0.1).with_top_k(3),
    ]
}

fn session(layout: TableLayout) -> UncertainDb {
    let schema = Schema::new(vec![
        ("pad", FieldKind::Str),
        ("prim", FieldKind::Discrete),
        ("sec", FieldKind::Discrete),
    ]);
    let mut db = UncertainDb::create(store(), "t", schema, 1, layout).unwrap();
    db.add_secondary(2).unwrap();
    db
}

#[test]
fn planning_reads_no_page_on_discrete_layouts() {
    let fractured = TableLayout::FracturedUpi(FracturedConfig {
        upi: UpiConfig::default(),
        buffer_ops: 0,
    });
    for (label, layout) in [
        ("upi", TableLayout::Upi(UpiConfig::default())),
        ("fractured", fractured),
        ("unclustered", TableLayout::Unclustered),
    ] {
        let mut db = session(layout);
        db.load(&rows(3000, 1)).unwrap();
        if label == "fractured" {
            for (batch, seed) in [(3000..3400u64, 2), (3400..3800, 3)] {
                for t in rows(batch.end, seed).into_iter().skip(batch.start as usize) {
                    db.insert_tuple(&t).unwrap();
                }
                db.flush().unwrap();
            }
        }
        let st = db.table().store().clone();
        assert_plans_read_nothing(label, &st, &db.catalog(), &discrete_queries());
    }
}

#[test]
fn planning_reads_no_page_on_the_continuous_layout() {
    let data = cartel::generate(&CartelConfig::tiny());
    let st = store();
    let mut cupi =
        ContinuousUpi::create(st.clone(), "cupi", f::LOCATION, ContinuousConfig::default())
            .unwrap();
    cupi.bulk_load(&data.observations).unwrap();
    let mut seg = ContinuousSecondary::create(st.clone(), "sc", f::SEGMENT, 8192).unwrap();
    seg.bulk_load(&cupi, &data.observations).unwrap();
    let mut heap = UnclusteredHeap::create(st.clone(), "heap", 8192).unwrap();
    heap.bulk_load(&data.observations).unwrap();
    let mut utree = SecondaryUTree::create(st.clone(), "ut", f::LOCATION, 4096).unwrap();
    utree.bulk_load(&data.observations).unwrap();
    let catalog = Catalog::new(st.disk.config())
        .with_cupi(&cupi)
        .with_cont_secondary(&seg)
        .with_heap(&heap)
        .with_utree(&utree)
        .with_pool(st.pool.as_ref());
    let (cx, cy) = data.query_center();
    let queries = [
        PtqQuery::circle(f::LOCATION, cx, cy, 300.0).with_qt(0.5),
        PtqQuery::circle(f::LOCATION, cx + 500.0, cy, 50.0).with_qt(0.1),
        PtqQuery::eq(f::SEGMENT, data.busy_segment()).with_qt(0.4),
    ];
    assert_plans_read_nothing("continuous", &st, &catalog, &queries);
}
