//! Cost-model calibration convergence oracle.
//!
//! The session (`UncertainDb`) records an `(estimated, observed)` sample
//! after every executed query and `recalibrate()` refits the per-path-kind
//! scales (bounded least squares on the dominant term, in log space).
//! Asserted here:
//!
//! 1. a deliberately **mispriced** model converges: the estimated/observed
//!    ratio per exercised path kind tightens monotonically across refit
//!    passes on a fixed workload (the simulator is deterministic, so the
//!    observed side is identical each round — all movement is the model's);
//! 2. an **already-calibrated** model is a fixed point: refitting again on
//!    the same samples changes no coefficient (the bounded refit does not
//!    oscillate);
//! 3. calibration never changes answers — only plan pricing.

use std::sync::Arc;

use upi::{TableLayout, UpiConfig};
use upi_query::{PathKind, PtqQuery, UncertainDb};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema, Tuple, TupleId};

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
}

fn schema() -> Schema {
    Schema::new(vec![
        ("payload", FieldKind::Str),
        ("institution", FieldKind::Discrete),
        ("country", FieldKind::Discrete),
    ])
}

/// A UPI-clustered table big enough that the data-dependent (dominant)
/// cost terms outweigh the file opens, with a skewed clustering value
/// (so a point run is long), and a secondary whose attribute correlates
/// with the clustering attribute (institution -> country), like the
/// paper's Query 3 setup.
/// Row `i` of the calibration workload, reconstructible for deletes.
fn cal_tuple(i: u64) -> Tuple {
    // A sixth of the rows cluster on the hot institution 3: long
    // enough that the run read dominates the opens, short enough
    // that a 2x-overpriced run still beats the full scan.
    let inst = if i.is_multiple_of(6) { 3 } else { i % 40 };
    let country = inst % 12;
    let p = 0.55 + (i % 4) as f64 * 0.1;
    Tuple::new(
        TupleId(i),
        0.95,
        vec![
            Field::Certain(Datum::Str(format!("pad-{i}-{}", "x".repeat(400)))),
            Field::Discrete(DiscretePmf::new(vec![
                (inst, p),
                (inst + 40, (1.0 - p) / 2.0),
            ])),
            Field::Discrete(DiscretePmf::new(vec![(country, 1.0)])),
        ],
    )
}

fn calibration_db() -> UncertainDb {
    let mut db = UncertainDb::create(
        store(),
        "t",
        schema(),
        1,
        TableLayout::Upi(UpiConfig::default()),
    )
    .unwrap();
    db.add_secondary(2).unwrap();
    let tuples: Vec<Tuple> = (0..12_000u64).map(cal_tuple).collect();
    // Bulk-load so the clustered runs are physically contiguous, like
    // every benchmark setup — the §6 models price clustered runs as
    // sequential reads.
    db.load(&tuples).unwrap();
    db
}

/// The fixed workload: one query per discrete path kind the session can
/// exercise on this layout.
fn workload() -> Vec<(PathKind, PtqQuery)> {
    vec![
        (PathKind::PointMerge, PtqQuery::eq(1, 3).with_qt(0.2)),
        (PathKind::RangeRun, PtqQuery::range(1, 5, 20).with_qt(0.2)),
        (PathKind::SecondaryProbe, PtqQuery::eq(2, 2).with_qt(0.3)),
    ]
}

/// Mean absolute log-error of estimate vs. observation per kind, one
/// calibration round. Queries run cold so the observed side is the real
/// device cost (and identical across rounds — the simulator is
/// deterministic).
fn run_round(db: &UncertainDb) -> Vec<(PathKind, f64, Vec<u64>)> {
    let mut out = Vec::new();
    for (kind, q) in workload() {
        let plan = db.plan(&q).unwrap();
        assert_eq!(
            plan.path().kind(),
            kind,
            "workload query must exercise its kind:\n{}",
            plan.explain()
        );
        let est = plan.est_ms();
        if std::env::var("DBG_CAL").is_ok() {
            for c in &plan.candidates {
                eprintln!(
                    "{:?} {} fixed={:.1} dom={:.1} scale={:.2} est={:.1}",
                    kind,
                    c.path.label(),
                    c.cost.fixed_ms,
                    c.cost.dominant_ms,
                    c.cost.scale,
                    c.est_ms
                );
            }
        }
        db.table().store().go_cold();
        // Observe plan + execute, the same window the session samples:
        // on a cold cache the plan phase pays some of the opens/descents
        // the estimate prices.
        let before = db.table().store().pool.device_stats();
        let out_q = db.query(&q).unwrap();
        let obs = db
            .table()
            .store()
            .pool
            .device_stats()
            .since(&before)
            .total_ms();
        assert!(obs > 0.0, "cold query must charge the device");
        assert!(out_q.observed_ms().is_some(), "session registers the pool");
        if std::env::var("DBG_CAL").is_ok() {
            eprintln!("{kind:?} est={est:.1} obs={obs:.1} io={:?}", out_q.io);
        }
        // Two more identical cold executions so every round leaves each
        // kind with enough samples to clear MIN_REFIT_SAMPLES.
        for _ in 0..2 {
            db.table().store().go_cold();
            db.query(&q).unwrap();
        }
        let mut ids: Vec<u64> = out_q.rows.iter().map(|r| r.tuple.id.0).collect();
        ids.sort_unstable();
        out.push(((kind), (est / obs).ln().abs(), ids));
    }
    out
}

#[test]
fn mispriced_model_converges_monotonically() {
    let db = calibration_db();
    // Seed a deliberately mispriced model: every exercised kind overpriced
    // 2x (small enough that the index paths still beat the scans, so the
    // chosen path — and therefore the observed side — stays comparable).
    let mispriced = db
        .cost_model()
        .with_scale(PathKind::PointMerge, 2.0)
        .with_scale(PathKind::RangeRun, 2.0)
        .with_scale(PathKind::SecondaryProbe, 2.0);
    db.set_cost_model(mispriced);

    let mut history: Vec<Vec<(PathKind, f64, Vec<u64>)>> = Vec::new();
    for _ in 0..4 {
        history.push(run_round(&db));
        let outcomes = db.recalibrate();
        if std::env::var("DBG_CAL").is_ok() {
            for o in &outcomes {
                eprintln!(
                    "refit {:?}: {:.3} -> {:.3} ({} samples)",
                    o.kind, o.old_scale, o.new_scale, o.samples
                );
            }
        }
        assert!(
            !outcomes.is_empty(),
            "every round feeds samples, so refits must happen"
        );
    }

    // Answers never change across calibration rounds.
    for round in &history[1..] {
        for (a, b) in history[0].iter().zip(round) {
            assert_eq!(a.2, b.2, "calibration must not change {:?} answers", a.0);
        }
    }

    // Per kind, the |ln(est/obs)| error tightens monotonically (small
    // epsilon for float noise) and ends strictly tighter than it began.
    for i in 0..workload().len() {
        let kind = history[0][i].0;
        let errs: Vec<f64> = history.iter().map(|r| r[i].1).collect();
        for w in errs.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "{kind:?}: error must not regress across refits: {errs:?}"
            );
        }
        assert!(
            *errs.last().unwrap() <= errs[0] * 0.67 + 0.02,
            "{kind:?}: error must tighten materially: {errs:?}"
        );
    }
}

#[test]
fn calibrated_model_is_a_refit_fixed_point() {
    let db = calibration_db();
    // Converge: run the workload and refit until the scales settle.
    for _ in 0..6 {
        for (_, q) in workload() {
            db.table().store().go_cold();
            db.query(&q).unwrap();
        }
        db.recalibrate();
    }
    let settled = db.cost_model();

    // No new samples, repeated refits: every coefficient must stay put —
    // the bounded refit has a fixed point, it does not oscillate.
    for _ in 0..3 {
        db.recalibrate();
        let again = db.cost_model();
        for kind in upi_query::cost::PathKind::ALL {
            assert_eq!(
                again.scale(kind),
                settled.scale(kind),
                "{kind:?} scale moved without new evidence"
            );
        }
    }
}

#[test]
fn session_records_samples_per_kind_automatically() {
    let db = calibration_db();
    assert_eq!(db.calibration_samples(PathKind::PointMerge), 0);
    db.table().store().go_cold();
    db.query(&PtqQuery::eq(1, 3).with_qt(0.2)).unwrap();
    assert_eq!(
        db.calibration_samples(PathKind::PointMerge),
        1,
        "query() must feed the store"
    );
    // A warm repeat is NOT evidence: the observed window shows a
    // cache-served execution and the store drops it.
    db.query(&PtqQuery::eq(1, 3).with_qt(0.2)).unwrap();
    assert_eq!(
        db.calibration_samples(PathKind::PointMerge),
        1,
        "warm-cache executions must be filtered"
    );
    db.table().store().go_cold();
    let (_, text) = db
        .explain_analyze(&PtqQuery::eq(1, 3).with_qt(0.2))
        .unwrap();
    assert_eq!(db.calibration_samples(PathKind::PointMerge), 2);
    assert!(text.contains("cost model:"), "{text}");
    // A third sample clears MIN_REFIT_SAMPLES; after a refit, explain
    // surfaces the calibrated scale and the sample count behind it.
    db.table().store().go_cold();
    db.query(&PtqQuery::eq(1, 3).with_qt(0.2)).unwrap();
    let outcomes = db.recalibrate();
    assert!(outcomes.iter().any(|o| o.kind == PathKind::PointMerge));
    let text = db.explain(&PtqQuery::eq(1, 3).with_qt(0.2)).unwrap();
    assert!(
        text.contains("raw") && text.contains("calibrated"),
        "{text}"
    );
    assert!(text.contains("3 samples"), "{text}");
}

// --- Calibration persistence across checkpoints -------------------------

/// A reopened session restores the checkpointed scales *and* the sample
/// store behind them: recovery lands exactly on the settled model, and a
/// refit with no new evidence is the same fixed point it was before the
/// restart (test 2's property, now across a durability boundary).
#[test]
fn reopened_session_restores_calibration_as_a_refit_fixed_point() {
    let mut db = calibration_db();
    db.enable_durability().unwrap();
    for _ in 0..4 {
        for (_, q) in workload() {
            db.table().store().go_cold();
            db.query(&q).unwrap();
        }
        db.recalibrate();
    }
    let settled = db.cost_model();
    db.checkpoint().unwrap();
    let store = db.table().store().clone();
    drop(db);

    let (rdb, _info) = UncertainDb::recover(store, "t").unwrap();
    for kind in PathKind::ALL {
        assert_eq!(
            rdb.cost_model().scale(kind),
            settled.scale(kind),
            "{kind:?} scale must survive the reopen exactly"
        );
    }
    // The persisted samples came along too: refitting the reopened
    // session without new evidence must not move any coefficient.
    rdb.recalibrate();
    for kind in PathKind::ALL {
        assert_eq!(
            rdb.cost_model().scale(kind),
            settled.scale(kind),
            "{kind:?} scale moved on reopen without new evidence"
        );
    }
}

/// Recovery from an *older* checkpoint (scales persisted before the
/// session converged) restores the stale model — and the reopened
/// session re-converges on the same workload to the same place.
#[test]
fn recovery_from_an_older_checkpoint_reconverges() {
    let mut db = calibration_db();
    db.enable_durability().unwrap();
    let mispriced = db
        .cost_model()
        .with_scale(PathKind::PointMerge, 2.0)
        .with_scale(PathKind::RangeRun, 2.0)
        .with_scale(PathKind::SecondaryProbe, 2.0);
    db.set_cost_model(mispriced);
    db.checkpoint().unwrap(); // the "older" checkpoint: still mispriced

    // Converge in RAM only — nothing after the checkpoint is persisted.
    let start_errs: Vec<f64> = run_round(&db).iter().map(|r| r.1).collect();
    db.recalibrate();
    for _ in 0..3 {
        run_round(&db);
        db.recalibrate();
    }
    let settled = db.cost_model();
    let store = db.table().store().clone();
    drop(db);

    let (rdb, _info) = UncertainDb::recover(store, "t").unwrap();
    for kind in [
        PathKind::PointMerge,
        PathKind::RangeRun,
        PathKind::SecondaryProbe,
    ] {
        assert!(
            (rdb.cost_model().scale(kind) - 2.0).abs() < 1e-9,
            "recovery must restore the checkpoint's stale {kind:?} scale, \
             not the in-RAM converged one: got {}",
            rdb.cost_model().scale(kind)
        );
    }

    // Same deterministic workload, same bounded refit: the reopened
    // session walks back to (essentially) the settled coefficients.
    let mut final_errs = Vec::new();
    for round in 0..4 {
        final_errs = run_round(&rdb).iter().map(|r| r.1).collect();
        rdb.recalibrate();
        let _ = round;
    }
    for (i, kind) in [
        PathKind::PointMerge,
        PathKind::RangeRun,
        PathKind::SecondaryProbe,
    ]
    .into_iter()
    .enumerate()
    {
        let got = rdb.cost_model().scale(kind);
        let want = settled.scale(kind);
        assert!(
            (got - want).abs() / want < 0.25,
            "{kind:?}: reopened session must re-converge near the settled \
             scale (got {got}, settled {want})"
        );
        assert!(
            final_errs[i] <= start_errs[i] * 0.67 + 0.02,
            "{kind:?}: pricing error must tighten after re-convergence: \
             {:.3} -> {:.3}",
            start_errs[i],
            final_errs[i]
        );
    }
}

/// The planner statistics (primary `AttrStats` plus each secondary's
/// selectivity and pointer-region histograms) are derived from the
/// records, never restored: core recovery and session recovery both
/// rebuild them, and the rebuild equals the pre-crash table's statistics
/// byte for byte — rows deleted before and after the checkpoint
/// included — so the reopened planner prices plans like the pre-crash
/// one without a warm-up pass.
#[test]
fn recovered_session_needs_no_statistics_warmup() {
    let mut db = calibration_db();
    db.enable_durability().unwrap();
    // Delete every row of institution 7 (i ≡ 7 mod 40 never collides
    // with the i % 6 == 0 hot-value rewrite), half before the checkpoint
    // and half after it: the emptied per-value entries for 7 and its
    // alternative 47 must be gone from the live statistics, as they are
    // from a rebuild over the surviving tuples, and the deletes the WAL
    // replays must count too.
    let doomed: Vec<u64> = (7..12_000u64).step_by(40).collect();
    let (before, after) = doomed.split_at(doomed.len() / 2);
    for &i in before {
        db.delete(&cal_tuple(i)).unwrap();
    }
    for (_, q) in workload() {
        db.table().store().go_cold();
        db.query(&q).unwrap();
    }
    db.checkpoint().unwrap();
    for &i in after {
        db.delete(&cal_tuple(i)).unwrap();
    }
    db.sync_wal().unwrap();
    let snapshot = db.table().stats_payload();
    assert!(!snapshot.is_empty(), "UPI layouts dump statistics");
    let upi = db.table().as_upi().unwrap();
    assert_eq!(upi.attr_stats().value_count(7), 0);
    let want_heap = upi.attr_stats().est_count_ge(3, 0.2);
    let want_sec = upi.secondaries()[0].stats().est_count_ge(2, 0.3);
    assert!(want_heap > 0.0 && want_sec > 0.0);
    let store = db.table().store().clone();
    drop(db);

    let (t, _info) = upi::UncertainTable::recover(store.clone(), "t").unwrap();
    assert_eq!(
        t.stats_payload(),
        snapshot,
        "core recovery must rebuild the pre-crash statistics"
    );
    drop(t);

    let (rdb, _info) = UncertainDb::recover(store, "t").unwrap();
    assert_eq!(
        rdb.table().stats_payload(),
        snapshot,
        "session recovery must rebuild the pre-crash statistics"
    );
    let rupi = rdb.table().as_upi().unwrap();
    assert_eq!(
        rupi.attr_stats().est_count_ge(3, 0.2).to_bits(),
        want_heap.to_bits()
    );
    assert_eq!(
        rupi.secondaries()[0].stats().est_count_ge(2, 0.3).to_bits(),
        want_sec.to_bits(),
        "secondary selectivity must price like the pre-crash session"
    );
}

// --- CalibrationStore edge behaviour ------------------------------------

#[test]
fn sample_cap_evicts_oldest_first() {
    use upi_query::cost::CalibrationStore;
    use upi_query::CostModel;

    let mut store = CalibrationStore::new();
    let kind = PathKind::Scan;
    // 256 "old" observations at 4x the estimate, then 512 "new" ones at
    // 0.25x. The per-kind ring holds 512: if eviction is oldest-first,
    // every old sample is gone and the fit sees a uniform 0.25 ratio.
    for _ in 0..256 {
        store.record(kind, 0.0, 10.0, 40.0);
    }
    for _ in 0..512 {
        store.record(kind, 0.0, 10.0, 2.5);
    }
    assert_eq!(store.len(kind), 512, "ring must cap at 512 per kind");

    let mut model = CostModel::from_disk(&DiskConfig::default());
    model.refit(&store);
    assert!(
        (model.scale(kind) - 0.25).abs() < 1e-9,
        "a surviving old 4x sample would drag the geometric mean above \
         0.25: got {}",
        model.scale(kind)
    );
}

#[test]
fn warm_filter_keeps_the_exact_half_estimate_boundary() {
    use upi_query::cost::CalibrationStore;

    let mut store = CalibrationStore::new();
    let kind = PathKind::PiiProbe;
    // The filter drops observed < 0.5 * fixed; exactly half is evidence.
    store.record(kind, 100.0, 50.0, 50.0);
    assert_eq!(store.len(kind), 1, "observed == fixed/2 must be kept");
    store.record(kind, 100.0, 50.0, 49.999);
    assert_eq!(store.len(kind), 1, "observed just below fixed/2 is warm");
}

#[test]
fn refit_below_min_samples_is_a_noop() {
    use upi_query::cost::{CalibrationStore, MIN_REFIT_SAMPLES};
    use upi_query::CostModel;

    let mut store = CalibrationStore::new();
    let kind = PathKind::RangeRun;
    for _ in 0..MIN_REFIT_SAMPLES - 1 {
        store.record(kind, 0.0, 10.0, 40.0); // wildly mispriced, but...
    }
    let mut model = CostModel::from_disk(&DiskConfig::default());
    let outcomes = model.refit(&store);
    assert!(
        outcomes.is_empty(),
        "{} samples are below the refit minimum",
        MIN_REFIT_SAMPLES - 1
    );
    assert_eq!(model.scale(kind), 1.0, "no kind's scale may move");
    // One more sample crosses the threshold and the same refit acts.
    store.record(kind, 0.0, 10.0, 40.0);
    let outcomes = model.refit(&store);
    assert_eq!(outcomes.len(), 1);
    assert!(model.scale(kind) > 1.0);
}
