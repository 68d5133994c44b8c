//! Maintenance-under-DML oracle: background fracture compaction must be
//! invisible to queries and safe to kill mid-step.
//!
//! Two arms, each a seeded sweep (20 seeds by default, or the
//! comma-separated `UPI_MAINT_SEEDS` list — a failing seed reruns with
//! `UPI_MAINT_SEEDS=<seed>`):
//!
//! 1. **Twin equivalence** — interleave a randomized DML workload with
//!    [`maintenance_tick`](upi_query::UncertainDb::maintenance_tick)
//!    calls on one session while an identically-mutated twin never
//!    maintains, and require every query shape (point / secondary /
//!    range / top-k / group) to fingerprint-match the twin after every
//!    step. A tick the rent accounts decline drives the best step
//!    through [`apply_merge_step`](upi_query::UncertainDb::apply_merge_step)
//!    instead, so every tick with two components compacts something.
//!    Compaction reorganizes the physical chain only; the
//!    possible-worlds answers may never move.
//! 2. **Kill-during-merge-step** — arm a kill-at-op fault plan, drive
//!    ticks until the device dies mid-step, recover, and require the
//!    live set to equal the full DML fold: a merge step changes no
//!    logical state, so whether or not its WAL record became durable,
//!    recovery must land on exactly the pre-kill possible worlds.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upi::{DeviceCoeffs, FracturedConfig, TableLayout, UpiConfig};
use upi_query::{PtqQuery, QueryOutput, UncertainDb};
use upi_storage::{DiskConfig, FaultPlan, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema, Tuple, TupleId};

fn schema() -> Schema {
    Schema::new(vec![
        ("g", FieldKind::U64),
        ("prim", FieldKind::Discrete),
        ("sec", FieldKind::Discrete),
    ])
}

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
}

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

/// Every query shape the planner distinguishes, with seed-varied
/// constants.
fn query_shapes(rng: &mut StdRng) -> Vec<PtqQuery> {
    vec![
        PtqQuery::eq(1, rng.gen_range(0..8)).with_qt(rng.gen_range(0.0f64..0.8)),
        PtqQuery::eq(1, rng.gen_range(0..8)).with_qt(0.0),
        PtqQuery::eq(2, rng.gen_range(0..6)).with_qt(rng.gen_range(0.0f64..0.6)),
        PtqQuery::eq(1, rng.gen_range(0..8))
            .with_qt(rng.gen_range(0.0f64..0.5))
            .with_top_k(3),
        PtqQuery::range(1, 1, 5).with_qt(rng.gen_range(0.0f64..0.6)),
        PtqQuery::range(1, 0, 7).with_qt(0.1).with_group_count(0),
    ]
}

/// One maintenance step: the tick's, when the rent accounts buy one,
/// else the best step of any price driven through the step API (the
/// oracle wants steps to happen; the rent rule has its own tests).
/// Returns `(bought, driven)`: at most one of them is set.
fn step(db: &mut UncertainDb) -> (bool, bool) {
    if let Some(report) = db.maintenance_tick().unwrap() {
        assert!(report.components >= 2, "vacuous step");
        assert!(report.eliminated >= 1);
        assert!(report.rent_ms > 0.0, "a step nobody paid for");
        return (true, false);
    }
    let coeffs = DeviceCoeffs::from_disk(db.table().store().disk.config());
    let plan = db
        .table()
        .as_fractured()
        .and_then(|f| f.plan_compaction(&coeffs, f64::INFINITY));
    let driven = plan.is_some_and(|p| db.apply_merge_step(p.step).unwrap() > 0);
    (false, driven)
}

fn fractured_layout(rng: &mut StdRng) -> TableLayout {
    TableLayout::FracturedUpi(FracturedConfig {
        upi: UpiConfig {
            cutoff: rng.gen_range(0.0f64..0.5),
            ..UpiConfig::default()
        },
        buffer_ops: 0,
    })
}

fn assert_twins_agree(
    seed: u64,
    step: usize,
    m: &UncertainDb,
    twin: &UncertainDb,
    rng: &mut StdRng,
) {
    for q in query_shapes(rng) {
        let got = fingerprint(&m.query(&q).unwrap());
        let want = fingerprint(&twin.query(&q).unwrap());
        assert_eq!(
            got, want,
            "seed {seed} step {step}: maintained session diverged from the \
             unmaintained twin on {q:?}"
        );
    }
}

/// Steps one seed committed: `(bought by the accounts, driven)`.
fn run_twin_seed(seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_ACED);
    let layout = fractured_layout(&mut rng);
    let mut m = UncertainDb::create(store(), "m", schema(), 1, layout.clone()).unwrap();
    let mut twin = UncertainDb::create(store(), "w", schema(), 1, layout).unwrap();
    for db in [&mut m, &mut twin] {
        db.add_secondary(2).unwrap();
    }
    if seed.is_multiple_of(2) {
        // Half the seeds run the maintained arm durable, so ticks log
        // `MergeStep` records through the WAL.
        m.enable_durability().unwrap();
    }

    let mut live: BTreeMap<u64, Tuple> = BTreeMap::new();
    let mut next_id = 0u64;
    let (mut bought, mut driven) = (0u64, 0u64);
    let total_ops = rng.gen_range(50..90);
    for i in 0..total_ops {
        let roll = rng.gen_range(0u32..100);
        if roll < 40 || live.is_empty() {
            let t = gen_tuple(&mut rng, next_id);
            next_id += 1;
            m.insert_tuple(&t).unwrap();
            twin.insert_tuple(&t).unwrap();
            live.insert(t.id.0, t);
        } else if roll < 52 {
            let ids: Vec<u64> = live.keys().copied().collect();
            let victim = live[&ids[rng.gen_range(0..ids.len())]].clone();
            m.delete(&victim).unwrap();
            twin.delete(&victim).unwrap();
            live.remove(&victim.id.0);
        } else if roll < 64 {
            let ids: Vec<u64> = live.keys().copied().collect();
            let old = live[&ids[rng.gen_range(0..ids.len())]].clone();
            let new = gen_tuple(&mut rng, old.id.0);
            m.update(&old, &new).unwrap();
            twin.update(&old, &new).unwrap();
            live.insert(new.id.0, new);
        } else if roll < 80 {
            // Grow both fracture chains identically; only `m` ever
            // compacts its own.
            m.flush().unwrap();
            twin.flush().unwrap();
        } else if roll < 90 {
            // Traffic so the tick sees a nonzero rate.
            let _ = m.ptq(rng.gen_range(0..8), rng.gen_range(0.0f64..0.8));
        } else {
            let (b, d) = step(&mut m);
            if b || d {
                bought += b as u64;
                driven += d as u64;
                assert_twins_agree(seed, i, &m, &twin, &mut rng);
            }
        }
    }
    // Drain whatever is left, then the final full-shape comparison.
    loop {
        let (b, d) = step(&mut m);
        if !(b || d) {
            break;
        }
        bought += b as u64;
        driven += d as u64;
        if bought + driven > 200 {
            panic!("seed {seed}: maintenance never converges");
        }
    }
    assert_eq!(m.table().as_fractured().unwrap().n_fractures(), 0);
    assert_twins_agree(seed, total_ops, &m, &twin, &mut rng);
    assert_eq!(
        m.metrics().merge_steps,
        bought,
        "seed {seed}: steps uncounted"
    );
    (bought, driven)
}

fn run_kill_seed(seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let st = Store::new(
        Arc::new(SimDisk::new(DiskConfig {
            wal_group_ops: 1, // every DML durable on its own
            ..DiskConfig::default()
        })),
        8 << 20,
    );
    let layout = fractured_layout(&mut rng);
    let mut db = UncertainDb::create(st.clone(), "t", schema(), 1, layout).unwrap();
    db.add_secondary(2).unwrap();
    db.enable_durability().unwrap();

    let mut live: BTreeMap<u64, Tuple> = BTreeMap::new();
    let mut next_id = 0u64;
    for _ in 0..rng.gen_range(25..45) {
        let roll = rng.gen_range(0u32..100);
        if roll < 55 || live.is_empty() {
            let t = gen_tuple(&mut rng, next_id);
            next_id += 1;
            db.insert_tuple(&t).unwrap();
            live.insert(t.id.0, t);
        } else if roll < 70 {
            let ids: Vec<u64> = live.keys().copied().collect();
            let victim = live[&ids[rng.gen_range(0..ids.len())]].clone();
            db.delete(&victim).unwrap();
            live.remove(&victim.id.0);
        } else {
            db.flush().unwrap();
        }
    }
    db.sync_wal().unwrap();
    // Traffic before the fault is armed: its rent pays for the steps.
    for _ in 0..4 {
        let _ = db.ptq(rng.gen_range(0..8), 0.1);
    }

    // Cold cache: the steps must read their components off the device,
    // giving the kill plan real page operations to land on.
    st.go_cold();
    st.disk
        .set_fault_plan(FaultPlan::kill_at(rng.gen_range(0..40)));
    let mut died = false;
    for _ in 0..32 {
        match db.maintenance_tick() {
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(_) => {
                died = true;
                break;
            }
        }
    }
    drop(db);

    // A merge step never changes logical state: durable or not, lost or
    // committed, recovery must land on the full DML fold.
    let (rdb, _info) = UncertainDb::recover(st.clone(), "t").unwrap();
    let mut recovered = rdb.table().live_tuples().unwrap();
    recovered.sort_by_key(|t| t.id.0);
    let expected: Vec<Tuple> = live.values().cloned().collect();
    assert_eq!(
        recovered, expected,
        "seed {seed}: kill-during-merge-step recovery (died={died}) must \
         land on the possible-worlds state"
    );
    let mut rdb = rdb;
    rdb.insert_tuple(&gen_tuple(&mut rng, next_id)).unwrap();
    rdb.sync_wal().unwrap();
    assert!(rdb.table().read_only_reason().is_none());
    died
}

fn seeds() -> Vec<u64> {
    match std::env::var("UPI_MAINT_SEEDS") {
        Ok(s) => s
            .split(',')
            .filter(|p| !p.trim().is_empty())
            .map(|p| p.trim().parse().expect("UPI_MAINT_SEEDS: bad seed"))
            .collect(),
        Err(_) => (1..=20).collect(),
    }
}

#[test]
fn maintenance_under_dml_matches_the_unmaintained_twin() {
    let mut total_bought = 0u64;
    for seed in seeds() {
        let (bought, driven) = run_twin_seed(seed);
        eprintln!(
            "maintenance twin oracle: seed {seed}: {} steps ({bought} bought, {driven} driven)",
            bought + driven
        );
        total_bought += bought;
    }
    // Single-seed reruns may legitimately buy nothing; the sweep must.
    if seeds().len() > 1 {
        assert!(
            total_bought > 0,
            "the accounts never bought a step — the oracle is vacuous"
        );
    }
}

#[test]
fn kill_during_merge_step_recovers_the_possible_worlds_state() {
    let mut deaths = 0u32;
    for seed in seeds() {
        eprintln!("maintenance kill oracle: seed {seed}");
        if run_kill_seed(seed) {
            deaths += 1;
        }
    }
    if seeds().len() > 1 {
        assert!(deaths > 0, "no seed died mid-step — the kill arm never bit");
    }
}

/// A heap leaf whose first tuple record claims more bytes than it has
/// must fail the fold and the checkpoint scan with a typed error naming
/// the page — the session can report it — and never abort the process.
#[test]
fn damaged_heap_leaf_fails_the_step_and_the_checkpoint_with_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(0xBAD_1EAF);
    let st = store();
    let layout = TableLayout::FracturedUpi(FracturedConfig {
        upi: UpiConfig::default(),
        buffer_ops: 0,
    });
    let mut db = UncertainDb::create(st.clone(), "t", schema(), 1, layout).unwrap();
    db.add_secondary(2).unwrap();
    let base: Vec<Tuple> = (0..300).map(|id| gen_tuple(&mut rng, id)).collect();
    db.load(&base).unwrap();
    db.enable_durability().unwrap();
    for id in 300..340 {
        db.insert_tuple(&gen_tuple(&mut rng, id)).unwrap();
    }
    // One fracture: the only step there is folds it into main.
    db.flush().unwrap();
    for _ in 0..4 {
        let _ = db.ptq(rng.gen_range(0..8), 0.1);
    }

    // Any leaf of main's heap will do: the fold and the checkpoint scan
    // read them all. The first live page of the file holding entries is
    // one (node tag 1 = leaf, then the entry count).
    let heap = st.disk.find_file("t.main.heap").unwrap();
    let leaf = st
        .disk
        .file_pages(heap)
        .unwrap()
        .into_iter()
        .find(|&p| {
            st.pool
                .get(p)
                .is_ok_and(|b| b[0] == 1 && u16::from_le_bytes([b[2], b[3]]) > 0)
        })
        .expect("main's heap has a leaf");
    let good = st.pool.get(leaf).unwrap();
    // First entry: 16-byte node header, `klen u16 | vlen u16`, the
    // 20-byte key, then the tuple — 18-byte header, the u64 field, and
    // the primary PMF's tag and alternative count.
    let count_at = 16 + 4 + 20 + 18 + 9 + 1;
    let mut bad = good.to_vec();
    assert_eq!(bad[count_at - 1], 3, "field 1 is the discrete primary");
    bad[count_at..count_at + 2].copy_from_slice(&60_000u16.to_le_bytes());
    st.pool.put(leaf, bad.into());

    let names_the_leaf = |what: &str, err: upi_storage::StorageError| match err {
        upi_storage::StorageError::Corrupted(msg) => {
            assert!(msg.contains(&format!("{leaf:?}")), "{what}: {msg}");
            assert!(msg.contains("alternatives needs"), "{what}: {msg}");
        }
        other => panic!("{what}: expected Corrupted, got {other:?}"),
    };
    names_the_leaf("tick", db.maintenance_tick().unwrap_err());
    names_the_leaf("checkpoint", db.checkpoint().unwrap_err());

    // With the page repaired the same calls go through.
    st.pool.put(leaf, good);
    assert!(db.maintenance_tick().unwrap().is_some());
    db.checkpoint().unwrap();
    assert_eq!(db.table().live_tuples().unwrap().len(), 340);
}
