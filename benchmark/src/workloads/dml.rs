//! `dml_lifecycle`: a durable fractured table driven through the whole
//! life cycle, again and again until the time is up.
//!
//! Set-up loads the base authors and enables durability. One **round**
//! is then `round_ops` ops of 40 % insert / 40 % delete / 10 % update /
//! 10 % point-or-top-k query, with a `maintenance_tick` every
//! `round_ops / 16` ops and a `checkpoint` at the midpoint. Every
//! `rounds_per_crash`-th round ends in a crash: `sync_wal`; a burst of
//! inserts with `FaultPlan::kill_at` armed until the device dies;
//! `Store::reboot` + `UncertainDb::recover`; verification of the
//! recovered rows against the model; a cold cache; a fixed query pass.
//! Recovery folds every fracture into the main index and the mix keeps
//! the table's size, so every cycle starts from the same shape.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upi::{FracturedConfig, TableLayout, UpiConfig};
use upi_query::UncertainDb;
use upi_storage::{DiskConfig, FaultPlan, Store, WalCounters};
use upi_uncertain::{Tuple, Zipf};
use upi_workloads::dblp::{self, author_fields as f};
use upi_workloads::DblpData;

use super::{
    dblp_config, err, new_store, round_ops, session_query, setup_repeated, user_bytes,
    verify_discrete, weighted, Check, Outcome, QueryOp, ORACLE_EVERY, POINT_QTS, POOL_BYTES,
    PRIMING_QUERIES, TOP_K,
};
use crate::harness::{put, Class, Metrics, Recorder, RunCfg, Space};
use crate::probes;
use crate::stats::{mean, ratio};

const TABLE: &str = "author";

/// insert / delete / update / query. Inserts and deletes balance, so the
/// table keeps its size and every cycle of a time-limited run costs the
/// same; a growing table would make throughput depend on how many cycles
/// the host got through.
const OP_WEIGHTS: [u32; 4] = [40, 40, 10, 10];

#[derive(Debug, Clone)]
pub struct Sizes {
    pub base_authors: usize,
    pub n_institutions: usize,
    pub n_countries: usize,
    pub payload_bytes: usize,
    pub pool_bytes: usize,
    /// Inserts the fracture buffer holds before it flushes itself.
    pub buffer_ops: usize,
    /// Ops between one checkpoint's stretch and the next.
    pub round_ops: usize,
    /// A crash ends every this-many-th round. One **cycle** is that many
    /// rounds plus the crash and recovery; runs are whole cycles.
    pub rounds_per_crash: u64,
    pub counted_cycles: u64,
    /// Most inserts the tail burst attempts before the kill must have fired.
    pub burst_ops: usize,
    /// Queries of the post-recovery pass (all checked by the oracle).
    pub post_queries: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            base_authors: 10_000,
            n_institutions: 2_000,
            n_countries: 40,
            payload_bytes: 512,
            pool_bytes: POOL_BYTES,
            buffer_ops: 512,
            round_ops: 2_000,
            rounds_per_crash: 4,
            counted_cycles: 1,
            burst_ops: 96,
            post_queries: 64,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            base_authors: 1_500,
            n_institutions: 100,
            n_countries: 8,
            payload_bytes: 128,
            pool_bytes: 256 << 10,
            buffer_ops: 64,
            round_ops: 640,
            rounds_per_crash: 2,
            counted_cycles: 2,
            burst_ops: 96,
            post_queries: 16,
        }
    }
}

/// The harness's copy of what the table must hold.
#[derive(Default)]
struct Model {
    live: HashMap<u64, Tuple>,
    /// Live ids in a vector, so a seeded index picks one in O(1).
    ids: Vec<u64>,
    slot: HashMap<u64, usize>,
    user_bytes: u64,
}

impl Model {
    fn insert(&mut self, t: Tuple) {
        self.user_bytes += t.encoded_len() as u64;
        self.slot.insert(t.id.0, self.ids.len());
        self.ids.push(t.id.0);
        self.live.insert(t.id.0, t);
    }

    fn remove(&mut self, id: u64) {
        let t = self.live.remove(&id).expect("removing a live id");
        self.user_bytes -= t.encoded_len() as u64;
        let slot = self.slot.remove(&id).expect("live ids have a slot");
        self.ids.swap_remove(slot);
        if let Some(&moved) = self.ids.get(slot) {
            self.slot.insert(moved, slot);
        }
    }

    fn pick(&self, rng: &mut StdRng) -> Tuple {
        self.live[&self.ids[rng.gen_range(0..self.ids.len())]].clone()
    }
}

struct State {
    data: DblpData,
    store: Store,
    db: UncertainDb,
    model: Model,
    generate_s: f64,
}

fn gen_query(rng: &mut StdRng, zipf: &Zipf) -> QueryOp {
    let value = zipf.sample(rng) as u64 - 1;
    if rng.gen_range(0..2u32) == 0 {
        QueryOp::Point {
            value,
            qt: POINT_QTS[rng.gen_range(0..POINT_QTS.len())],
        }
    } else {
        QueryOp::TopK { value, k: TOP_K }
    }
}

fn setup(seed: u64, sizes: &Sizes) -> Result<State, String> {
    let t0 = Instant::now();
    let data = dblp::generate(&dblp_config(
        sizes.base_authors,
        sizes.n_institutions,
        sizes.n_countries,
        sizes.payload_bytes,
        seed,
    ));
    let generate_s = t0.elapsed().as_secs_f64();
    let disk = DiskConfig {
        wal_group_ops: 8,
        ..DiskConfig::default()
    };
    let store = new_store(disk, sizes.pool_bytes);
    let mut db = UncertainDb::create(
        store.clone(),
        TABLE,
        DblpData::author_schema(),
        f::INSTITUTION,
        TableLayout::FracturedUpi(FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: sizes.buffer_ops,
        }),
    )
    .map_err(err)?;
    db.add_secondary(f::COUNTRY).map_err(err)?;
    db.load(&data.authors).map_err(err)?;
    db.enable_durability().map_err(err)?;
    let mut model = Model::default();
    for t in &data.authors {
        model.insert(t.clone());
    }
    let zipf = Zipf::new(sizes.n_institutions, 0.8);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_0011);
    for _ in 0..PRIMING_QUERIES {
        store.go_cold();
        let q = gen_query(&mut rng, &zipf).query(f::INSTITUTION, f::COUNTRY);
        db.query(&q).map_err(|e| format!("priming: {e}"))?;
    }
    db.recalibrate();
    Ok(State {
        data,
        store,
        db,
        model,
        generate_s,
    })
}

/// Counts the workload keeps beside the recorder's. `window_*` fields
/// stop when the counted window closes, so they repeat exactly.
#[derive(Default)]
struct Ledger {
    steps: u64,
    window_steps: u64,
    window_components_compacted: u64,
    window_flushes: u64,
    window_flush_device_ms: f64,
    flush_host_ms: Vec<f64>,
    window_components: Vec<f64>,
    window_replayed: u64,
    window_truncated: u64,
    acked_rows_lost: u64,
    window_wal: WalCounters,
    window_wal_bytes: u64,
    window_user_bytes_written: u64,
}

impl Ledger {
    /// Fold in the WAL generation that is about to end (a checkpoint
    /// rotates the log, a crash abandons it).
    fn close_wal_generation(&mut self, db: &UncertainDb, store: &Store) {
        let c = db.table().wal_counters();
        self.window_wal.records += c.records;
        self.window_wal.batches += c.batches;
        self.window_wal.synced_records += c.synced_records;
        self.window_wal.retries += c.retries;
        if let Some(file) = store.disk.find_file(&format!("{TABLE}.wal")) {
            self.window_wal_bytes += store.disk.file_bytes(file).unwrap_or(0);
        }
    }
}

fn fractures(db: &UncertainDb) -> usize {
    db.table()
        .as_fractured()
        .expect("the table was created on the fractured layout")
        .n_fractures()
}

pub fn run(cfg: &RunCfg, sizes: &Sizes) -> Result<Outcome, String> {
    let (st, setup_s) = setup_repeated(cfg, || setup(cfg.seed, sizes))?;
    let State {
        data,
        store,
        mut db,
        mut model,
        generate_s,
    } = st;
    let per_round = round_ops(cfg, sizes.round_ops);
    let tick_every = (per_round / 16).max(1);
    let setup_bytes_written = store.disk.stats().bytes_written;
    let loaded_bytes = model.user_bytes;
    let zipf = Zipf::new(sizes.n_institutions, 0.8);
    let mut rec = Recorder::new(cfg, vec![store.clone()], sizes.counted_cycles);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_0012);
    let mut led = Ledger::default();
    let mut space = Space::default();
    let mut next_id = sizes.base_authors as u64;
    let mut queries = 0u64;
    let mut round = 0u64;

    loop {
        round += 1;
        // This round's fresh tuples (inserts, update images, the burst).
        let fresh_n = per_round + sizes.burst_ops;
        let mut fresh = data
            .more_authors(fresh_n, next_id, cfg.seed ^ round)
            .into_iter();
        next_id += fresh_n as u64;

        for i in 0..per_round {
            match weighted(&mut rng, &OP_WEIGHTS) {
                0 => {
                    let t = fresh.next().expect("one fresh tuple per op");
                    let before = fractures(&db);
                    if rec
                        .op(Class::Insert, |_| db.insert_tuple(&t).map_err(err))
                        .is_some()
                    {
                        if rec.window_open() {
                            led.window_user_bytes_written += t.encoded_len() as u64;
                        }
                        model.insert(t);
                        if fractures(&db) > before {
                            // The buffer flushed itself inside this insert.
                            rec.mark_last_op("flush");
                            let s = *rec.last_mut();
                            if s.traced {
                                led.flush_host_ms.push(s.host_ns as f64 / 1e6);
                            }
                            if s.in_window {
                                led.window_flushes += 1;
                                led.window_flush_device_ms += s.device_ms;
                            }
                        }
                    }
                }
                1 => {
                    let t = model.pick(&mut rng);
                    if rec
                        .op(Class::Delete, |_| db.delete(&t).map_err(err))
                        .is_some()
                    {
                        model.remove(t.id.0);
                    }
                }
                2 => {
                    let old = model.pick(&mut rng);
                    let image = fresh.next().expect("one fresh tuple per op");
                    let new = Tuple::new(old.id, image.exist, image.fields);
                    if rec
                        .op(Class::Update, |_| db.update(&old, &new).map_err(err))
                        .is_some()
                    {
                        if rec.window_open() {
                            led.window_user_bytes_written += new.encoded_len() as u64;
                        }
                        model.remove(old.id.0);
                        model.insert(new);
                    }
                }
                _ => {
                    let op = gen_query(&mut rng, &zipf);
                    if rec.window_open() {
                        led.window_components.push(fractures(&db) as f64 + 1.0);
                    }
                    let q = op.query(f::INSTITUTION, f::COUNTRY);
                    if let Some(out) = session_query(&mut rec, &db, op.class(), &q) {
                        queries += 1;
                        if queries.is_multiple_of(ORACLE_EVERY) {
                            verify_discrete(
                                &mut rec,
                                model.live.values(),
                                &op,
                                f::INSTITUTION,
                                f::COUNTRY,
                                &out,
                            );
                        }
                    }
                }
            }
            if (i + 1) % tick_every == 0 {
                let in_window = rec.window_open();
                let (report, _) = rec.background("maintenance_tick", || db.maintenance_tick());
                match report {
                    Ok(Some(r)) => {
                        led.steps += 1;
                        if in_window {
                            led.window_steps += 1;
                            led.window_components_compacted += r.components;
                        }
                    }
                    Ok(None) => {}
                    Err(e) => rec.mismatch(&format!("maintenance_tick: {e}")),
                }
            }
            if i + 1 == per_round / 2 {
                if rec.window_open() {
                    led.close_wal_generation(&db, &store);
                }
                if let (Err(e), _) = rec.background("checkpoint", || db.checkpoint()) {
                    rec.mismatch(&format!("checkpoint: {e}"));
                }
            }
        }
        if round.is_multiple_of(sizes.rounds_per_crash) {
            if let (Err(e), _) = rec.background("sync_wal", || db.sync_wal()) {
                rec.mismatch(&format!("sync_wal: {e}"));
            }

            // Everything in `model` is now acknowledged durable. Kill the
            // device inside a burst of inserts.
            store
                .disk
                .set_fault_plan(FaultPlan::kill_at(rng.gen_range(2..=5u64)));
            rec.expect_crash(true);
            let mut burst: HashMap<u64, Tuple> = HashMap::new();
            let mut killed = false;
            for t in fresh.by_ref().take(sizes.burst_ops) {
                let survived = rec.op(Class::Insert, |_| db.insert_tuple(&t).map_err(err));
                burst.insert(t.id.0, t);
                if survived.is_none() {
                    killed = true;
                    break;
                }
            }
            rec.expect_crash(false);
            if !killed {
                rec.mismatch("the planned kill never fired inside the burst");
            }
            if rec.window_open() {
                led.close_wal_generation(&db, &store);
            }
            drop(db);

            rec.background("reboot", || store.reboot());
            let in_window = rec.window_open();
            let (recovered, _) =
                rec.background("recover", || UncertainDb::recover(store.clone(), TABLE));
            let (new_db, info) = recovered.map_err(|e| format!("recover: {e}"))?;
            db = new_db;
            if in_window {
                led.window_replayed += info.replayed as u64;
                led.window_truncated += info.log_truncated as u64;
            }

            // Every acknowledged row must be back; anything else must come
            // from the burst, whose durable prefix joins the model.
            let live = rec.excluded(|| db.table().live_tuples()).map_err(err)?;
            let live: HashMap<u64, Tuple> = live.into_iter().map(|t| (t.id.0, t)).collect();
            let lost = model
                .live
                .iter()
                .filter(|(id, t)| live.get(id) != Some(t))
                .count() as u64;
            if lost > 0 {
                led.acked_rows_lost += lost;
                rec.mismatch(&format!(
                    "{lost} acknowledged rows lost or changed by recovery"
                ));
            }
            // (In id order: the model's pick order must not depend on a
            // hash map's iteration order.)
            let mut extra: Vec<u64> = live
                .keys()
                .filter(|id| !model.live.contains_key(id))
                .copied()
                .collect();
            extra.sort_unstable();
            for id in extra {
                match burst.remove(&id) {
                    Some(sent) if sent == live[&id] => model.insert(sent),
                    _ => rec.mismatch(&format!("row {id} appeared that was never logged")),
                }
            }

            // A rebooted machine starts cold.
            rec.protocol(|| store.go_cold());
            for _ in 0..sizes.post_queries {
                let op = gen_query(&mut rng, &zipf);
                let q = op.query(f::INSTITUTION, f::COUNTRY);
                if let Some(out) = session_query(&mut rec, &db, op.class(), &q) {
                    verify_discrete(
                        &mut rec,
                        model.live.values(),
                        &op,
                        f::INSTITUTION,
                        f::COUNTRY,
                        &out,
                    );
                }
            }

            // A run ends on a crash boundary, so every run measures whole
            // cycles: the same share of ops, checkpoints and recoveries.
            if rec.end_round() {
                space = Space {
                    stored_bytes: store.disk.total_live_bytes(),
                    live_user_bytes: model.user_bytes,
                    setup_bytes_written,
                    user_bytes_written: loaded_bytes + led.window_user_bytes_written,
                };
            }
            if !rec.keep_going() {
                break;
            }
        }
    }

    let ticks = rec.background_totals("maintenance_tick");
    let ckpt = rec.background_totals("checkpoint");
    let recover = rec.background_totals("recover");
    let reboot = rec.background_totals("reboot");
    let checks = vec![
        Check::needs_volume(
            cfg,
            "dml_lifecycle.at_least_3_merge_steps",
            led.steps >= 3,
            format!(
                "{} committed merge steps over {} ticks",
                led.steps, ticks.count
            ),
        ),
        Check::new(
            "dml_lifecycle.at_least_1_checkpoint",
            ckpt.count >= 1,
            format!("{} checkpoints", ckpt.count),
        ),
        Check::new(
            "dml_lifecycle.records_replayed",
            led.window_replayed > 0,
            format!("{} WAL records replayed in the window", led.window_replayed),
        ),
    ];

    let mut layer = Metrics::new();
    if cfg.trace {
        let wal = led.window_wal;
        put(
            &mut layer,
            "storage.wal.records",
            wal.records as f64,
            "count",
        );
        put(
            &mut layer,
            "storage.wal.batches",
            wal.batches as f64,
            "count",
        );
        put(
            &mut layer,
            "storage.wal.mean_batch",
            wal.mean_batch(),
            "count",
        );
        put(
            &mut layer,
            "storage.wal.retries",
            wal.retries as f64,
            "count",
        );
        put(
            &mut layer,
            "storage.wal.bytes_per_record",
            ratio(led.window_wal_bytes as f64, wal.records as f64),
            "bytes",
        );
        put(
            &mut layer,
            "core.fractured.components_mean",
            mean(&led.window_components),
            "count",
        );
        put(
            &mut layer,
            "core.fractured.components_max",
            led.window_components.iter().copied().fold(0.0, f64::max),
            "count",
        );
        put(
            &mut layer,
            "core.fractured.flushes",
            led.window_flushes as f64,
            "count",
        );
        put(
            &mut layer,
            "core.fractured.host_ms_per_flush",
            mean(&led.flush_host_ms),
            "ms",
        );
        put(
            &mut layer,
            "core.fractured.device_ms_per_flush",
            ratio(led.window_flush_device_ms, led.window_flushes as f64),
            "sim_ms",
        );
        put(
            &mut layer,
            "core.maintenance.ticks",
            ticks.window_count as f64,
            "count",
        );
        put(
            &mut layer,
            "core.maintenance.steps",
            led.window_steps as f64,
            "count",
        );
        put(
            &mut layer,
            "core.maintenance.deferred_ticks",
            (ticks.window_count - led.window_steps) as f64,
            "count",
        );
        put(
            &mut layer,
            "core.maintenance.components_compacted",
            led.window_components_compacted as f64,
            "count",
        );
        put(
            &mut layer,
            "core.maintenance.host_s",
            ticks.host_ns as f64 / 1e9,
            "s",
        );
        put(
            &mut layer,
            "core.maintenance.device_ms",
            ticks.window_device_ms,
            "sim_ms",
        );
        put(
            &mut layer,
            "core.maintenance.bytes_rewritten_per_user_byte",
            ratio(
                ticks.window_bytes_written as f64,
                led.window_user_bytes_written as f64,
            ),
            "ratio",
        );
        put(
            &mut layer,
            "core.durability.checkpoint_host_s",
            ratio(ckpt.host_ns as f64 / 1e9, ckpt.count as f64),
            "s",
        );
        put(
            &mut layer,
            "core.durability.checkpoint_device_ms",
            ratio(ckpt.window_device_ms, ckpt.window_count as f64),
            "sim_ms",
        );
        put(
            &mut layer,
            "core.durability.checkpoint_bytes",
            ratio(ckpt.window_bytes_written as f64, ckpt.window_count as f64),
            "bytes",
        );
        put(
            &mut layer,
            "core.durability.recover_host_s",
            ratio(
                (reboot.host_ns + recover.host_ns) as f64 / 1e9,
                recover.count as f64,
            ),
            "s",
        );
        put(
            &mut layer,
            "core.durability.recover_device_ms",
            ratio(
                reboot.window_device_ms + recover.window_device_ms,
                recover.window_count as f64,
            ),
            "sim_ms",
        );
        put(
            &mut layer,
            "core.durability.records_replayed",
            led.window_replayed as f64,
            "count",
        );
        put(
            &mut layer,
            "core.durability.log_truncated",
            led.window_truncated as f64,
            "count",
        );
        put(
            &mut layer,
            "core.durability.acked_rows_lost",
            led.acked_rows_lost as f64,
            "count",
        );
        let heap = db
            .table()
            .as_fractured()
            .expect("the table was created on the fractured layout")
            .main()
            .heap_stats();
        put(&mut layer, "btree.height", heap.height as f64, "count");
        put(
            &mut layer,
            "btree.leaf_pages",
            heap.leaf_pages as f64,
            "pages",
        );
        put(&mut layer, "workloads.generate_s", generate_s, "s");
        probes::storage(&store, &mut layer)?;
        probes::btree(&store, &mut layer)?;
        probes::tuples(&data.authors, &mut layer);
    }
    debug_assert_eq!(model.user_bytes, user_bytes(model.live.values()));
    Ok(Outcome {
        rec,
        setup_s,
        space,
        layer,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_run(seed: u64) -> Outcome {
        let cfg = RunCfg {
            workload: "test".into(),
            seed,
            seconds: 0.0,
            trace: true,
            smoke: false,
            out_dir: std::env::temp_dir(),
        };
        run(&cfg, &Sizes::tiny()).unwrap()
    }

    #[test]
    fn life_cycle_survives_its_kills_and_repeats_exactly() {
        let (a, b) = (tiny_run(21), tiny_run(21));
        assert_eq!(a.rec.failed(), 0, "a run with failures");
        assert!(a.checks.iter().all(|c| c.ok), "{:?}", a.checks);
        assert_eq!(a.rec.kill_excluded(), 2, "one planned kill per crash");
        let (wa, wb) = (a.rec.window().unwrap(), b.rec.window().unwrap());
        assert_eq!(wa.dev, wb.dev);
        assert_eq!(wa.ops, wb.ops);
        assert_eq!(a.layer["core.durability.acked_rows_lost"].0, 0.0);
        assert!(a.layer["core.durability.records_replayed"].0 > 0.0);
        assert!(a.layer["storage.wal.records"].0 > 0.0);
        assert!(a.layer["core.fractured.flushes"].0 > 0.0);
    }

    #[test]
    fn model_tracks_ids_and_bytes() {
        let data = dblp::generate(&upi_workloads::DblpConfig::tiny());
        let mut m = Model::default();
        for t in &data.authors[..10] {
            m.insert(t.clone());
        }
        m.remove(data.authors[3].id.0);
        m.remove(data.authors[9].id.0);
        assert_eq!(m.ids.len(), 8);
        assert_eq!(m.user_bytes, user_bytes(m.live.values()));
        for (&id, &slot) in &m.slot {
            assert_eq!(m.ids[slot], id);
        }
    }
}
