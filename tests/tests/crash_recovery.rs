//! Crash-recovery property oracle: kill the device at an arbitrary
//! operation inside a randomized DML workload (optionally with torn-page
//! and transient-fault injection armed), recover, and require that the
//! recovered table equals the **in-memory possible-worlds model** folded
//! over exactly the durable prefix of the logical WAL — on the raw live
//! tuple set and on every access path the planner can force.
//!
//! The invariants, per seed:
//!
//! 1. **Durable prefix**: the recovered state is the fold of the ops with
//!    `lsn ≤ RecoveryInfo::durable_lsn` — never a mix that applies a later
//!    op without an earlier one.
//! 2. **At-least-acknowledged** (kill/transient runs): the recovered
//!    horizon is ≥ the `durable_lsn` the crashed session had acknowledged.
//!    (Torn-page runs are exempt by design: a tear silently corrupts a
//!    write the device reported as complete, so an acknowledged group can
//!    lose its tail — the CRC chain still guarantees invariant 1.)
//! 3. **Path agreement**: planner choice and every forced candidate on
//!    the recovered table agree with a reference table freshly built from
//!    the model state, across point / secondary / range / top-k / group
//!    query shapes — plus, when the durable prefix has one, an unbounded
//!    point query and a top-k at `qt = 0` on a value first inserted after
//!    the last checkpoint (known to recovery only through log replay).
//! 4. **Calibration survives**: the recovered session's cost-model scales
//!    equal the scales serialized into the checkpoint recovery restored.
//! 5. **Statistics are a recount** (plain UPI): the recovered planner
//!    statistics equal, byte for byte, those of a same-layout table
//!    freshly loaded with the model state — rebuilt, never restored.
//!
//! Seeds come from `UPI_CRASH_SEEDS` (comma-separated) or a fixed
//! default matrix; the failing seed is printed before each run so CI
//! failures are reproducible with `UPI_CRASH_SEEDS=<seed>`.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upi::{FracturedConfig, TableLayout, UncertainTable, UpiConfig};
use upi_query::{PhysicalPlan, PtqQuery, QueryOutput, UncertainDb};
use upi_storage::{DiskConfig, FaultPlan, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema, Tuple, TupleId};

/// One logical DML op, as the ground-truth model sees it.
#[derive(Debug, Clone)]
enum Op {
    Insert(Tuple),
    Delete(Tuple),
    Update(Tuple, Tuple),
}

fn schema() -> Schema {
    Schema::new(vec![
        ("g", FieldKind::U64),
        ("prim", FieldKind::Discrete),
        ("sec", FieldKind::Discrete),
    ])
}

/// Random tuple: 1–3 distinct primary alternatives over a domain of 8,
/// 1–2 secondary alternatives over a domain of 6, existence in
/// `[0.05, 1.0]`. Probabilities normalized to sum below 1.
fn gen_pmf(rng: &mut StdRng, domain: u64, max_alts: usize) -> DiscretePmf {
    let n = rng.gen_range(1..=max_alts);
    let mut values: Vec<u64> = (0..domain).collect();
    for i in (1..values.len()).rev() {
        let j = rng.gen_range(0..=i);
        values.swap(i, j);
    }
    let mut alts: Vec<(u64, f64)> = values
        .into_iter()
        .take(n)
        .map(|v| (v, rng.gen_range(0.05f64..1.0)))
        .collect();
    let total: f64 = alts.iter().map(|(_, w)| w).sum();
    let scale = rng.gen_range(0.5f64..0.98) / total;
    for (_, w) in &mut alts {
        *w = (*w * scale).max(1e-6);
    }
    DiscretePmf::new(alts)
}

fn gen_tuple(rng: &mut StdRng, id: u64) -> Tuple {
    let exist = rng.gen_range(0.05f64..=1.0);
    Tuple::new(
        TupleId(id),
        exist,
        vec![
            Field::Certain(Datum::U64(id % 4)),
            Field::Discrete(gen_pmf(rng, 8, 3)),
            Field::Discrete(gen_pmf(rng, 6, 2)),
        ],
    )
}

/// Comparable fingerprint (same shape as `planner_equivalence.rs`).
fn fingerprint(out: &QueryOutput) -> Vec<(u64, u64)> {
    match &out.groups {
        Some(g) => g.clone(),
        None => {
            let mut rows: Vec<(u64, u64)> = out
                .rows
                .iter()
                .map(|r| (r.tuple.id.0, (r.confidence * 1e9).round() as u64))
                .collect();
            rows.sort_unstable();
            rows
        }
    }
}

/// A plain or a fractured UPI, picked by a bit of the seed that neither
/// fault arm reads (torn writes arm on `seed % 3`, transients on
/// `seed % 2`), so each layout meets every combination of faults.
fn layout_for(seed: u64, rng: &mut StdRng) -> TableLayout {
    let cutoff = rng.gen_range(0.0f64..0.6);
    let cfg = UpiConfig {
        cutoff,
        ..UpiConfig::default()
    };
    if (seed / 6).is_multiple_of(2) {
        TableLayout::Upi(cfg)
    } else {
        TableLayout::FracturedUpi(FracturedConfig {
            upi: cfg,
            buffer_ops: rng.gen_range(0..6),
        })
    }
}

fn run_seed(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let torn = seed.is_multiple_of(3);
    let transient = seed.is_multiple_of(2);

    let disk_cfg = DiskConfig {
        wal_group_ops: [1, 4, 8, 32][(seed % 4) as usize],
        ..DiskConfig::default()
    };
    let st = Store::new(Arc::new(SimDisk::new(disk_cfg)), 8 << 20);
    let layout = layout_for(seed, &mut rng);
    let is_fractured = matches!(layout, TableLayout::FracturedUpi(_));

    let mut db = UncertainDb::create(st.clone(), "t", schema(), 1, layout.clone()).unwrap();
    db.add_secondary(2).unwrap();
    let enable_lsn = db.enable_durability().unwrap();

    // Ground truth: (lsn, op) for every logical record that reached the
    // WAL (even if the apply then failed — logged means recovery replays
    // it when durable), plus the scales serialized into each checkpoint.
    let mut log: Vec<(u64, Op)> = Vec::new();
    let mut live: BTreeMap<u64, Tuple> = BTreeMap::new();
    let mut ckpt_scales: Vec<(u64, [f64; 6])> = Vec::new();
    let scales_of = |db: &UncertainDb| -> [f64; 6] {
        let m = db.cost_model();
        let mut s = [0.0; 6];
        for (i, (scale, _)) in m.export_scales().iter().enumerate() {
            s[i] = *scale;
        }
        s
    };
    ckpt_scales.push((enable_lsn.0, scales_of(&db)));

    let total_ops = rng.gen_range(40..90);
    let arm_after = rng.gen_range(5..25);
    let mut next_id = 0u64;
    let mut last_lsn = db.table().last_lsn().0;

    for step in 0..total_ops {
        if step == arm_after {
            let mut plan = FaultPlan::kill_at(rng.gen_range(5..400));
            if torn {
                plan.torn_write_at = Some(rng.gen_range(1..40));
            }
            if transient {
                plan.transient_read_p = 0.01;
                plan.transient_write_p = 0.04;
                plan.seed = seed.wrapping_mul(0x9E37_79B9);
            }
            st.disk.set_fault_plan(plan);
        }
        let roll = rng.gen_range(0u32..100);
        let mut pending: Option<Op> = None;
        let res = if roll < 40 || live.is_empty() {
            let t = gen_tuple(&mut rng, next_id);
            next_id += 1;
            pending = Some(Op::Insert(t.clone()));
            db.insert_tuple(&t)
        } else if roll < 55 {
            let ids: Vec<u64> = live.keys().copied().collect();
            let victim = live[&ids[rng.gen_range(0..ids.len())]].clone();
            pending = Some(Op::Delete(victim.clone()));
            db.delete(&victim)
        } else if roll < 70 {
            let ids: Vec<u64> = live.keys().copied().collect();
            let old = live[&ids[rng.gen_range(0..ids.len())]].clone();
            let new = gen_tuple(&mut rng, old.id.0);
            pending = Some(Op::Update(old.clone(), new.clone()));
            db.update(&old, &new)
        } else if roll < 80 {
            // Queries: feed calibration, advance the fault op counter on
            // the read side, and occasionally refit so checkpoints carry
            // evolving scales. Their errors don't end the workload.
            let _ = db.ptq(rng.gen_range(0..8), rng.gen_range(0.0f64..0.8));
            if roll % 3 == 0 {
                let _ = db.recalibrate();
            }
            Ok(())
        } else if roll < 85 && is_fractured {
            db.flush()
        } else if roll < 88 && is_fractured {
            db.merge()
        } else if roll < 94 {
            match db.checkpoint() {
                Ok(lsn) => {
                    ckpt_scales.push((lsn.0, scales_of(&db)));
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else {
            db.sync_wal().map(|_| ())
        };

        // A logged record (lsn advanced) is ground truth whether or not
        // the apply survived; fold order is the lsn order.
        let now = db.table().last_lsn().0;
        if now > last_lsn {
            last_lsn = now;
            if let Some(op) = pending {
                match &op {
                    Op::Insert(t) => {
                        live.insert(t.id.0, t.clone());
                    }
                    Op::Delete(t) => {
                        live.remove(&t.id.0);
                    }
                    Op::Update(old, new) => {
                        live.remove(&old.id.0);
                        live.insert(new.id.0, new.clone());
                    }
                }
                log.push((now, op));
            }
        }
        if std::env::var("UPI_CRASH_TRACE").is_ok() {
            let ids: Vec<u64> = db
                .table()
                .live_tuples()
                .map(|v| v.iter().map(|t| t.id.0).collect())
                .unwrap_or_default();
            eprintln!("  live {ids:?}");
            eprintln!(
                "step {step} roll {roll} lsn {now} res {:?} op {:?}",
                res.as_ref().map(|_| ()),
                log.last().map(|(l, o)| (
                    l,
                    match o {
                        Op::Insert(t) => format!("ins {}", t.id.0),
                        Op::Delete(t) => format!("del {}", t.id.0),
                        Op::Update(o2, n) => format!("upd {}->{}", o2.id.0, n.id.0),
                    }
                ))
            );
        }
        if res.is_err() {
            break; // crashed, degraded, or a transient defeated retry
        }
    }

    let acked = db.table().durable_lsn().0;
    drop(db);

    // --- Recover and check the invariants --------------------------------
    let (rdb, info) = UncertainDb::recover(st.clone(), "t").unwrap();
    if std::env::var("UPI_CRASH_TRACE").is_ok() {
        eprintln!(
            "acked {acked} durable {} replayed {} truncated {} ckpts {:?}",
            info.durable_lsn.0,
            info.replayed,
            info.log_truncated,
            ckpt_scales.iter().map(|(l, _)| *l).collect::<Vec<_>>()
        );
    }
    assert!(
        info.durable_lsn.0 <= last_lsn,
        "seed {seed}: durable horizon {} beyond anything logged ({last_lsn})",
        info.durable_lsn.0
    );
    if !torn {
        assert!(
            info.durable_lsn.0 >= acked,
            "seed {seed}: recovery lost acknowledged records \
             (recovered {} < acked {acked})",
            info.durable_lsn.0
        );
    }

    // Invariant 1: recovered live set == fold of the durable prefix.
    let mut expect: BTreeMap<u64, Tuple> = BTreeMap::new();
    for (lsn, op) in &log {
        if *lsn > info.durable_lsn.0 {
            break;
        }
        match op {
            Op::Insert(t) => {
                expect.insert(t.id.0, t.clone());
            }
            Op::Delete(t) => {
                expect.remove(&t.id.0);
            }
            Op::Update(old, new) => {
                expect.remove(&old.id.0);
                expect.insert(new.id.0, new.clone());
            }
        }
    }
    let mut recovered = rdb.table().live_tuples().unwrap();
    recovered.sort_by_key(|t| t.id.0);
    let expected: Vec<Tuple> = expect.values().cloned().collect();
    assert_eq!(
        recovered, expected,
        "seed {seed}: recovered live set differs from the possible-worlds \
         model folded to lsn {}",
        info.durable_lsn.0
    );

    // Invariant 5: a plain UPI's recovered statistics are a recount of
    // the model state (a fractured one's cover main only, whose contents
    // depend on where the checkpoint fell).
    if matches!(layout, TableLayout::Upi(_)) {
        assert_eq!(
            rdb.table().stats_payload(),
            fresh_stats(layout, &expected),
            "seed {seed}: recovered statistics differ from a fresh load"
        );
    }

    // Invariant 4: recovered calibration scales match a durable
    // checkpoint's serialized scales — and without tear injection,
    // exactly the last one recovery could have used.
    let got = scales_of(&rdb);
    let close = |a: &[f64; 6], b: &[f64; 6]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12);
    if torn {
        assert!(
            ckpt_scales
                .iter()
                .any(|(lsn, s)| *lsn <= info.durable_lsn.0 && close(s, &got)),
            "seed {seed}: recovered scales match no durable checkpoint"
        );
    } else {
        let last = ckpt_scales
            .iter()
            .rfind(|(lsn, _)| *lsn <= info.durable_lsn.0)
            .expect("at least the enable_durability checkpoint is durable");
        assert!(
            close(&last.1, &got),
            "seed {seed}: recovered scales {:?} != checkpoint scales {:?} \
             (ckpt lsn {})",
            got,
            last.1,
            last.0
        );
    }

    // Invariant 3: planner choice and every forced path on the recovered
    // table agree with a reference table built from the model state.
    let ref_store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
    let mut reference = UncertainDb::create(
        ref_store,
        "ref",
        schema(),
        1,
        TableLayout::Upi(UpiConfig::default()),
    )
    .unwrap();
    reference.add_secondary(2).unwrap();
    reference.load(&expected).unwrap();

    let mut queries = vec![
        PtqQuery::eq(1, rng.gen_range(0..8)).with_qt(rng.gen_range(0.0f64..0.8)),
        PtqQuery::eq(1, rng.gen_range(0..8)).with_qt(0.0),
        PtqQuery::eq(2, rng.gen_range(0..6)).with_qt(rng.gen_range(0.0f64..0.6)),
        PtqQuery::eq(1, rng.gen_range(0..8))
            .with_qt(rng.gen_range(0.0f64..0.5))
            .with_top_k(3),
        PtqQuery::range(1, 1, 5).with_qt(rng.gen_range(0.0f64..0.6)),
        PtqQuery::range(1, 0, 7).with_qt(0.1).with_group_count(0),
    ];
    // A value first inserted after the last checkpoint exists only in
    // replayed records: recovery knows it through log replay alone.
    if let Some(v) = value_first_inserted_after_checkpoint(&log, &ckpt_scales, &info, &expected) {
        queries.push(PtqQuery::eq(1, v).with_qt(0.0));
        queries.push(PtqQuery::eq(1, v).with_qt(0.0).with_top_k(3));
    }
    for q in queries {
        let want = fingerprint(&reference.query(&q).unwrap());
        let got = fingerprint(&rdb.query(&q).unwrap());
        assert_eq!(
            got, want,
            "seed {seed}: recovered planner answer differs from model for {q:?}"
        );
        let catalog = rdb.catalog();
        let plan = q.plan(&catalog).unwrap();
        for cand in &plan.candidates {
            let forced = PhysicalPlan {
                query: q.clone(),
                candidates: vec![cand.clone()],
            };
            let forced_fp = fingerprint(&forced.execute(&catalog).unwrap());
            assert_eq!(
                forced_fp,
                want,
                "seed {seed}: forced path {} disagrees with the model for {q:?}",
                cand.path.label()
            );
        }
    }

    // The recovered incarnation stays fully writable and durable.
    let mut rdb = rdb;
    let t = gen_tuple(&mut rng, next_id);
    rdb.insert_tuple(&t).unwrap();
    rdb.sync_wal().unwrap();
    assert!(rdb.table().read_only_reason().is_none());
    assert!(
        rdb.metrics().recoveries >= 1,
        "seed {seed}: recovery must be visible in session metrics"
    );
}

/// WAL-recycling regression: `checkpoint()` rotates to a fresh WAL
/// generation, seals it, and only then retires the covered one. Kill the
/// device at every op inside the rotation (blob write, old-generation
/// checkpoint sync, rotate, seal, retire — including the window between
/// sealing the new generation and retiring the old, where both
/// generations exist) and require recovery to land exactly on the
/// durable pre-checkpoint state, stay writable, and leave exactly one
/// live WAL generation behind.
#[test]
fn checkpoint_rotation_survives_a_kill_anywhere_inside_it() {
    let mut clean_in_a_row = 0u32;
    let mut kills = 0u32;
    let mut kill_at = 0u64;
    while clean_in_a_row < 3 && kill_at < 200 {
        let st = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
        let mut db = UncertainDb::create(
            st.clone(),
            "t",
            schema(),
            1,
            TableLayout::Upi(UpiConfig::default()),
        )
        .unwrap();
        db.add_secondary(2).unwrap();
        let mut rng = StdRng::seed_from_u64(0xD15C ^ kill_at);
        let tuples: Vec<Tuple> = (0..40).map(|i| gen_tuple(&mut rng, i)).collect();
        db.load(&tuples).unwrap();
        db.enable_durability().unwrap();
        // A post-checkpoint suffix so recovery exercises replay too.
        let extra = gen_tuple(&mut rng, 100);
        db.insert_tuple(&extra).unwrap();
        db.sync_wal().unwrap();
        let mut expected = tuples.clone();
        expected.push(extra);
        expected.sort_by_key(|t| t.id.0);

        st.disk.set_fault_plan(FaultPlan::kill_at(kill_at));
        let res = db.checkpoint(); // may die anywhere inside the rotation
        if res.is_ok() {
            clean_in_a_row += 1;
        } else {
            clean_in_a_row = 0;
            kills += 1;
        }
        drop(db);

        let (rdb, _info) = UncertainDb::recover(st.clone(), "t").unwrap();
        let mut recovered = rdb.table().live_tuples().unwrap();
        recovered.sort_by_key(|t| t.id.0);
        assert_eq!(
            recovered, expected,
            "kill_at {kill_at}: recovery must land on the durable state"
        );
        let live_gens = st
            .disk
            .file_inventory()
            .into_iter()
            .filter(|(_, name, live)| name == "t.wal" && *live > 0)
            .count();
        assert_eq!(
            live_gens, 1,
            "kill_at {kill_at}: recovery must leave exactly one live WAL \
             generation (retired ones stay retired)"
        );
        let mut rdb = rdb;
        rdb.insert_tuple(&gen_tuple(&mut rng, 200)).unwrap();
        rdb.sync_wal().unwrap();
        assert!(rdb.table().read_only_reason().is_none());
        kill_at += 1;
    }
    assert!(
        clean_in_a_row >= 3,
        "the sweep must walk past the full rotation (stalled at {kill_at})"
    );
    assert!(
        kills >= 3,
        "the sweep must actually kill mid-rotation (only {kills} kills — \
         is the checkpoint not touching the device?)"
    );
}

/// The smallest primary value of the recovered model state that no
/// record up to the last durable checkpoint ever inserted, if any.
fn value_first_inserted_after_checkpoint(
    log: &[(u64, Op)],
    ckpt_scales: &[(u64, [f64; 6])],
    info: &upi::RecoveryInfo,
    expected: &[Tuple],
) -> Option<u64> {
    let ckpt = ckpt_scales
        .iter()
        .filter(|(lsn, _)| *lsn <= info.durable_lsn.0)
        .map(|(lsn, _)| *lsn)
        .max()?;
    let values =
        |t: &Tuple| -> Vec<u64> { t.discrete(1).alternatives().iter().map(|a| a.0).collect() };
    let mut before = std::collections::BTreeSet::new();
    for (_, op) in log.iter().filter(|(lsn, _)| *lsn <= ckpt) {
        match op {
            Op::Insert(t) | Op::Update(_, t) => before.extend(values(t)),
            Op::Delete(_) => {}
        }
    }
    expected
        .iter()
        .flat_map(values)
        .filter(|v| !before.contains(v))
        .min()
}

/// The planner statistics of a table of `layout` with a secondary on
/// field 2, freshly loaded with `tuples`.
fn fresh_stats(layout: TableLayout, tuples: &[Tuple]) -> Vec<u8> {
    let st = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
    let mut t = UncertainTable::create(st, "fresh", schema(), 1, layout).unwrap();
    t.add_secondary(2).unwrap();
    t.load(tuples).unwrap();
    t.stats_payload()
}

/// The case a checkpoint-time copy of the statistics gets wrong: a value
/// first inserted after the last checkpoint, on a clustered layout,
/// recovered through log replay, beside rows deleted before and after
/// the checkpoint. An unbounded point query and a top-k at `qt = 0` must
/// both find every row, and the recovered statistics must be a recount:
/// on a plain UPI, of the recovered live set; on a fractured UPI, whose
/// recovery loads the checkpoint image into main and replays the rest
/// into a fracture and the buffer (as on a table that never crashed), of
/// the live set at the checkpoint.
#[test]
fn a_value_first_inserted_after_the_checkpoint_is_found_after_recovery() {
    let cfg = UpiConfig {
        cutoff: 0.3,
        ..UpiConfig::default()
    };
    for layout in [
        TableLayout::Upi(cfg),
        TableLayout::FracturedUpi(FracturedConfig {
            upi: cfg,
            buffer_ops: 0,
        }),
    ] {
        let fractured = matches!(layout, TableLayout::FracturedUpi(_));
        let st = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
        let mut db = UncertainDb::create(st.clone(), "t", schema(), 1, layout.clone()).unwrap();
        db.add_secondary(2).unwrap();
        db.enable_durability().unwrap();
        let row = |id: u64, alts: Vec<(u64, f64)>| {
            Tuple::new(
                TupleId(id),
                1.0,
                vec![
                    Field::Certain(Datum::U64(id % 4)),
                    Field::Discrete(DiscretePmf::new(alts)),
                    Field::Discrete(DiscretePmf::new(vec![(id % 6, 0.9)])),
                ],
            )
        };
        for i in 0..30 {
            db.insert_tuple(&row(i, vec![(i % 5, 0.7)])).unwrap();
            if fractured && i == 19 {
                db.flush().unwrap();
            }
        }
        db.delete(&row(3, vec![(3, 0.7)])).unwrap();
        let at_checkpoint = db.table().live_tuples().unwrap();
        db.checkpoint().unwrap();
        db.delete(&row(24, vec![(4, 0.7)])).unwrap();
        // Value 6 appears only after the checkpoint: as a heap-resident
        // first alternative, and as a below-cutoff one.
        for i in 30..36 {
            db.insert_tuple(&row(i, vec![(6, 0.6), (1, 0.2)])).unwrap();
            if fractured && i == 32 {
                db.flush().unwrap();
            }
        }
        for i in 36..40 {
            db.insert_tuple(&row(i, vec![(2, 0.75), (6, 0.1)])).unwrap();
        }
        db.delete(&row(39, vec![(2, 0.75), (6, 0.1)])).unwrap();
        db.sync_wal().unwrap();
        drop(db);

        let (rdb, _) = UncertainDb::recover(st, "t").unwrap();
        let counted = if fractured {
            at_checkpoint
        } else {
            rdb.table().live_tuples().unwrap()
        };
        assert_eq!(
            rdb.table().stats_payload(),
            fresh_stats(layout, &counted),
            "fractured: {fractured}"
        );
        let want: Vec<u64> = (30..39).collect();
        for q in [
            PtqQuery::eq(1, 6).with_qt(0.0),
            PtqQuery::eq(1, 6).with_qt(0.0).with_top_k(20),
        ] {
            let catalog = rdb.catalog();
            let plan = q.plan(&catalog).unwrap();
            for cand in &plan.candidates {
                let forced = PhysicalPlan {
                    query: q.clone(),
                    candidates: vec![cand.clone()],
                };
                let mut got: Vec<u64> = forced
                    .execute(&catalog)
                    .unwrap()
                    .rows
                    .iter()
                    .map(|r| r.tuple.id.0)
                    .collect();
                got.sort_unstable();
                assert_eq!(got, want, "{} after recovery, {q:?}", cand.path.label());
            }
        }
    }
}

fn seeds() -> Vec<u64> {
    match std::env::var("UPI_CRASH_SEEDS") {
        Ok(s) => s
            .split(',')
            .filter(|p| !p.trim().is_empty())
            .map(|p| p.trim().parse().expect("UPI_CRASH_SEEDS: bad seed"))
            .collect(),
        Err(_) => (1..=12).collect(),
    }
}

#[test]
fn kill_anywhere_recovery_matches_the_possible_worlds_model() {
    for seed in seeds() {
        eprintln!("crash-recovery oracle: seed {seed}");
        run_seed(seed);
    }
}
