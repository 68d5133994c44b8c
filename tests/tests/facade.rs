//! Planner-first facade: cross-layout query behaviour through
//! `upi_query::UncertainDb`, the only query entry point over an
//! `UncertainTable`. These are the cross-layout guarantees the old
//! facade's unit tests made for the direct-index entry points, now made
//! for the planned ones — same query, different clustering, identical
//! answers, each checked against the possible-worlds identity over the
//! inserted rows (`confidence = exist × P(value)`) — plus proof that each entry point really went through a
//! `PhysicalPlan` (the chosen path differs per layout, and forcing every
//! losing candidate reproduces the same answer).

use std::sync::Arc;

use upi::{FracturedConfig, PtqResult, TableLayout, UpiConfig};
use upi_query::{PhysicalPlan, PtqQuery, UncertainDb};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema, Tuple, TupleId};

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
}

fn schema() -> Schema {
    Schema::new(vec![
        ("name", FieldKind::Str),
        ("institution", FieldKind::Discrete),
        ("country", FieldKind::Discrete),
    ])
}

fn row(inst: u64, p: f64, country: u64) -> Vec<Field> {
    vec![
        Field::Certain(Datum::Str("x".into())),
        Field::Discrete(DiscretePmf::new(vec![
            (inst, p),
            (inst + 100, (1.0 - p) * 0.5),
        ])),
        Field::Discrete(DiscretePmf::new(vec![(country, 1.0)])),
    ]
}

fn db(layout: TableLayout) -> UncertainDb {
    let mut db = UncertainDb::create(store(), "t", schema(), 1, layout).unwrap();
    // Every layout supports secondaries now — fractured tables build
    // them across components instead of panicking.
    db.add_secondary(2).unwrap();
    db
}

fn layouts() -> Vec<UncertainDb> {
    vec![
        db(TableLayout::Upi(UpiConfig::default())),
        db(TableLayout::FracturedUpi(FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        })),
    ]
}

fn ids(rows: &[PtqResult]) -> Vec<u64> {
    let mut v: Vec<u64> = rows.iter().map(|r| r.tuple.id.0).collect();
    v.sort_unstable();
    v
}

/// The rows `fields(0..n)` as inserted into an empty table (auto ids).
fn inserted(n: u64, fields: impl Fn(u64) -> Vec<Field>) -> Vec<Tuple> {
    (0..n)
        .map(|i| Tuple::new(TupleId(i), 0.9, fields(i)))
        .collect()
}

/// Ids of the rows whose possible-worlds confidence `conf` reaches `qt`
/// — the reference answer of a PTQ, ascending.
fn expected(rows: &[Tuple], conf: impl Fn(&Tuple) -> f64, qt: f64) -> Vec<u64> {
    rows.iter()
        .filter(|t| conf(t) >= qt)
        .map(|t| t.id.0)
        .collect()
}

#[test]
fn all_layouts_answer_identically() {
    let rows = inserted(200, |i| row(i % 7, 0.6, i % 3));
    let mut dbs = layouts();
    for d in &mut dbs {
        for t in &rows {
            d.insert(t.exist, t.fields.clone()).unwrap();
        }
    }
    let point = expected(&rows, |t| t.confidence_eq(1, 3), 0.2);
    assert!(!point.is_empty());
    // Range confidences sum the in-range alternatives.
    let in_range = |t: &Tuple| (2..=5).map(|v| t.confidence_eq(1, v)).sum::<f64>();
    let range = expected(&rows, in_range, 0.3);
    assert!(!range.is_empty());
    for d in &dbs {
        assert_eq!(ids(&d.ptq(3, 0.2).unwrap()), point);
        assert_eq!(ids(&d.ptq_range(2, 5, 0.3).unwrap()), range);
    }
    // And each layout's planner picked a physical story from its own
    // structures — the point of planning over the facade. (On a table
    // this small the cost models may legitimately prefer a single-open
    // full scan to an index descent, so scans are acceptable choices.)
    let q = PtqQuery::eq(1, 3).with_qt(0.2);
    let chosen: Vec<String> = dbs
        .iter()
        .map(|d| d.plan(&q).unwrap().path().label())
        .collect();
    assert!(
        chosen[0].starts_with("UpiHeap") || chosen[0] == "UpiFullScan",
        "upi: {chosen:?}"
    );
    assert!(chosen[1].starts_with("Fractured"), "fractured: {chosen:?}");
}

#[test]
fn secondary_and_topk_paths() {
    let rows = inserted(150, |i| row(i % 5, 0.5 + (i % 4) as f64 * 0.1, i % 3));
    let mut upi = db(TableLayout::Upi(UpiConfig::default()));
    for t in &rows {
        upi.insert(t.exist, t.fields.clone()).unwrap();
    }
    let country = expected(&rows, |t| t.confidence_eq(2, 1), 0.3);
    assert!(!country.is_empty());
    assert_eq!(ids(&upi.ptq_secondary(0, 1, 0.3).unwrap()), country);

    let top = upi.top_k(2, 3).unwrap();
    assert_eq!(top.len(), 3);
    assert!(top.windows(2).all(|w| w[0].confidence >= w[1].confidence));
    // The top-k prefix agrees with the full planned answer.
    let full = upi.ptq(2, 0.0).unwrap();
    for (a, b) in top.iter().zip(&full) {
        assert_eq!(a.tuple.id, b.tuple.id);
        assert!((a.confidence - b.confidence).abs() < 1e-12);
    }
}

#[test]
fn fractured_lifecycle_through_facade() {
    let mut d = db(TableLayout::FracturedUpi(FracturedConfig {
        upi: UpiConfig::default(),
        buffer_ops: 0,
    }));
    for i in 0..100u64 {
        d.insert(0.9, row(i % 5, 0.7, 0)).unwrap();
    }
    let before = d.ptq(2, 0.3).unwrap().len();
    d.flush().unwrap();
    assert_eq!(d.ptq(2, 0.3).unwrap().len(), before);
    d.merge().unwrap();
    assert_eq!(d.ptq(2, 0.3).unwrap().len(), before);
    assert!(d.table().as_upi().is_some());
}

#[test]
fn fractured_secondary_added_after_fractures_is_planned_through() {
    // The old creation-order restriction made this panic: a secondary
    // declared only *after* the table already has a main component, an
    // on-disk fracture, and live buffered rows. It must now be built
    // across every existing component and answer exactly like the same
    // rows in a UPI table whose secondary existed from the start.
    let mut frac = UncertainDb::create(
        store(),
        "late",
        schema(),
        1,
        TableLayout::FracturedUpi(FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        }),
    )
    .unwrap();
    let mut reference = db(TableLayout::Upi(UpiConfig::default()));
    for i in 0..80u64 {
        let r = row(i % 5, 0.5 + (i % 4) as f64 * 0.1, i % 3);
        frac.insert(0.9, r.clone()).unwrap();
        reference.insert(0.9, r).unwrap();
    }
    frac.flush().unwrap(); // first fracture event
    for i in 80..120u64 {
        let r = row(i % 5, 0.5 + (i % 4) as f64 * 0.1, i % 3);
        frac.insert(0.9, r.clone()).unwrap();
        reference.insert(0.9, r).unwrap();
    }
    frac.flush().unwrap(); // second fracture event
    assert_eq!(frac.table().as_fractured().unwrap().n_fractures(), 2);

    // Declare the secondary only now, then add buffered-only rows on top.
    let idx = frac.add_secondary(2).unwrap();
    assert_eq!(idx, 0);
    for i in 120..140u64 {
        let r = row(i % 5, 0.5 + (i % 4) as f64 * 0.1, i % 3);
        frac.insert(0.9, r.clone()).unwrap();
        reference.insert(0.9, r).unwrap();
    }

    for country in 0..3u64 {
        for qt in [0.1, 0.5, 0.9] {
            assert_eq!(
                ids(&frac.ptq_secondary(0, country, qt).unwrap()),
                ids(&reference.ptq_secondary(0, country, qt).unwrap()),
                "country={country} qt={qt}"
            );
        }
    }

    // The planner really routes it through the cross-component secondary:
    // the fractured path is enumerated and agrees with the chosen plan.
    let q = PtqQuery::eq(2, 1).with_qt(0.2);
    let catalog = frac.catalog();
    let plan = q.plan(&catalog).unwrap();
    let labels: Vec<String> = plan.candidates.iter().map(|c| c.path.label()).collect();
    assert!(
        labels.iter().any(|l| l.starts_with("FracturedSecondary#0")),
        "{labels:?}"
    );
    let reference_rows = ids(&plan.execute(&catalog).unwrap().rows);
    for cand in &plan.candidates {
        let forced = PhysicalPlan {
            query: q.clone(),
            candidates: vec![cand.clone()],
        };
        assert_eq!(
            ids(&forced.execute(&catalog).unwrap().rows),
            reference_rows,
            "forced {} diverges",
            cand.path.label()
        );
    }
}

#[test]
fn secondary_added_after_load_matches_declared_up_front_on_every_layout() {
    // Each layout must backfill a late secondary from its live rows: the
    // UPI from its clustered heap, the fractured table across components.
    // Reference: the same rows with the secondary declared before any
    // data.
    for layout in [
        TableLayout::Upi(UpiConfig::default()),
        TableLayout::FracturedUpi(FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        }),
    ] {
        let mut late =
            UncertainDb::create(store(), "late_sec", schema(), 1, layout.clone()).unwrap();
        let mut reference = db(layout);
        for i in 0..100u64 {
            let r = row(i % 5, 0.5 + (i % 4) as f64 * 0.1, i % 3);
            late.insert(0.9, r.clone()).unwrap();
            reference.insert(0.9, r).unwrap();
        }
        late.flush().unwrap();
        late.add_secondary(2).unwrap();
        for country in 0..3u64 {
            for qt in [0.1, 0.5, 0.9] {
                assert_eq!(
                    ids(&late.ptq_secondary(0, country, qt).unwrap()),
                    ids(&reference.ptq_secondary(0, country, qt).unwrap()),
                    "country={country} qt={qt}"
                );
                assert!(
                    qt > 0.5 || !late.ptq_secondary(0, country, qt).unwrap().is_empty(),
                    "backfilled secondary must see the loaded rows"
                );
            }
        }
    }
}

#[test]
fn every_entry_point_survives_forcing_each_candidate() {
    // The acceptance-criterion shape: each facade entry point's planned
    // answer must be reproduced by every candidate the planner ranked,
    // for every layout — i.e. the facade result is a planner result, not
    // a structure-specific artifact.
    let mut dbs = layouts();
    for d in &mut dbs {
        for i in 0..150u64 {
            d.insert(0.85, row(i % 6, 0.45 + (i % 5) as f64 * 0.1, i % 4))
                .unwrap();
        }
    }
    for d in &dbs {
        let primary = d.table().primary_attr();
        let mut queries = vec![
            PtqQuery::eq(primary, 2).with_qt(0.2),
            PtqQuery::range(primary, 1, 4).with_qt(0.3),
            PtqQuery::eq(primary, 2).with_top_k(3),
        ];
        if !d.table().sec_attrs().is_empty() {
            queries.push(PtqQuery::eq(d.table().sec_attrs()[0], 1).with_qt(0.3));
        }
        let catalog = d.catalog();
        for q in queries {
            let plan = q.plan(&catalog).unwrap();
            let reference = ids(&plan.execute(&catalog).unwrap().rows);
            for cand in &plan.candidates {
                let forced = PhysicalPlan {
                    query: q.clone(),
                    candidates: vec![cand.clone()],
                };
                assert_eq!(
                    ids(&forced.execute(&catalog).unwrap().rows),
                    reference,
                    "query {q:?}: forced {} diverges from planned {}",
                    cand.path.label(),
                    plan.path().label()
                );
            }
        }
    }
}
