//! `shard_scatter`: a `ShardedDb` over two stores (one worker thread per
//! shard, the client blocked while they run), fractured layout, routed by
//! tuple-id range (seven eighths of the rows on the first shard).
//!
//! The second shard holds only low-confidence alternatives for every
//! fourth institution, so its pruning sketch lets thresholded queries on
//! those values skip it without opening it. Mix: 60 % top-k(10), 40 %
//! point PTQ; every fourth query runs against cold caches.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upi::{FracturedConfig, ShardLayout, TableLayout, UpiConfig};
use upi_query::{PathKind, ShardedDb, UncertainDb};
use upi_storage::{DiskConfig, Store};
use upi_uncertain::{DiscretePmf, Field, Tuple, Zipf};
use upi_workloads::dblp::{self, author_fields as f};
use upi_workloads::DblpData;

use super::{
    dblp_config, err, new_store, round_ops, setup_repeated, user_bytes, verify_discrete, Check,
    Outcome, QueryOp, ORACLE_EVERY, POINT_QTS, POOL_BYTES, PRIMING_QUERIES, TOP_K,
};
use crate::harness::{put, Metrics, Recorder, RunCfg, Space};
use crate::probes;
use crate::registry::kind_share_name;
use crate::stats::{mean, ratio};

const SHARDS: usize = 2;
/// Highest probability the second shard keeps for a pruned value: below
/// every point-query threshold.
const COLD_PROB_CAP: f64 = 0.04;
/// Ops replayed against the unsharded twin.
const TWIN_OPS: usize = 512;

#[derive(Debug, Clone)]
pub struct Sizes {
    pub n_authors: usize,
    pub n_institutions: usize,
    pub n_countries: usize,
    pub payload_bytes: usize,
    pub pool_bytes: usize,
    /// Per-shard fracture buffer; half of each shard's rows go through it.
    pub buffer_ops: usize,
    pub round_ops: usize,
    pub counted_rounds: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            n_authors: 40_000,
            n_institutions: 128,
            n_countries: 16,
            payload_bytes: 256,
            pool_bytes: POOL_BYTES,
            buffer_ops: 2_500,
            round_ops: 1_024,
            counted_rounds: 6,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            n_authors: 3_000,
            n_institutions: 32,
            n_countries: 8,
            payload_bytes: 128,
            pool_bytes: 256 << 10,
            buffer_ops: 200,
            round_ops: 128,
            counted_rounds: 2,
        }
    }
}

/// First tuple id of the second shard. The split is lopsided on purpose:
/// with equal shards the host latency of a scatter swings by a quarter
/// with whether the sandbox runs the two workers side by side or one
/// after the other; with a 7:1 split the second worker is short either
/// way, and scatter, spawn, watermark, pruning and gather still all run.
fn boundary(n_authors: usize) -> u64 {
    n_authors as u64 * 7 / 8
}

/// Whether the second shard holds only unlikely alternatives of `value`.
fn pruned_value(value: u64) -> bool {
    value.is_multiple_of(4)
}

/// The generated authors, with the second shard's alternatives on pruned
/// values capped at [`COLD_PROB_CAP`].
fn skewed_authors(data: &DblpData) -> Vec<Tuple> {
    let second = boundary(data.authors.len());
    data.authors
        .iter()
        .map(|t| {
            if t.id.0 < second {
                return t.clone();
            }
            let alts = t
                .discrete(f::INSTITUTION)
                .alternatives()
                .iter()
                .map(|&(v, p)| {
                    (
                        v,
                        if pruned_value(v) {
                            p.min(COLD_PROB_CAP)
                        } else {
                            p
                        },
                    )
                })
                .collect();
            let mut fields = t.fields.clone();
            fields[f::INSTITUTION] = Field::Discrete(DiscretePmf::new(alts));
            Tuple::new(t.id, t.exist, fields)
        })
        .collect()
}

fn gen_op(rng: &mut StdRng, zipf: &Zipf) -> QueryOp {
    let value = zipf.sample(rng) as u64 - 1;
    if rng.gen_range(0..10u32) < 6 {
        QueryOp::TopK { value, k: TOP_K }
    } else {
        QueryOp::Point {
            value,
            qt: POINT_QTS[rng.gen_range(0..POINT_QTS.len())],
        }
    }
}

fn layout(sizes: &Sizes) -> TableLayout {
    TableLayout::FracturedUpi(FracturedConfig {
        upi: UpiConfig::default(),
        buffer_ops: sizes.buffer_ops,
    })
}

struct State {
    tuples: Vec<Tuple>,
    stores: Vec<Store>,
    db: ShardedDb,
    generate_s: f64,
}

fn go_cold(stores: &[Store]) {
    for s in stores {
        s.go_cold();
    }
}

/// Even-indexed rows are bulk-loaded, odd-indexed ones inserted through
/// the fracture buffer: every shard ends with a main index and fractures.
fn split(tuples: &[Tuple]) -> (Vec<Tuple>, Vec<&Tuple>) {
    let loaded = tuples.iter().step_by(2).cloned().collect();
    let inserted = tuples.iter().skip(1).step_by(2).collect();
    (loaded, inserted)
}

fn setup(seed: u64, sizes: &Sizes) -> Result<State, String> {
    let t0 = Instant::now();
    let data = dblp::generate(&dblp_config(
        sizes.n_authors,
        sizes.n_institutions,
        sizes.n_countries,
        sizes.payload_bytes,
        seed,
    ));
    let tuples = skewed_authors(&data);
    let generate_s = t0.elapsed().as_secs_f64();
    let stores: Vec<Store> = (0..SHARDS)
        .map(|_| new_store(DiskConfig::default(), sizes.pool_bytes))
        .collect();
    let mut db = ShardedDb::create(
        stores.clone(),
        "author",
        DblpData::author_schema(),
        f::INSTITUTION,
        layout(sizes),
        ShardLayout::RangeTid(vec![boundary(sizes.n_authors)]),
    )
    .map_err(err)?;
    let (loaded, inserted) = split(&tuples);
    db.load(&loaded).map_err(err)?;
    for t in inserted {
        db.insert_tuple(t).map_err(err)?;
    }
    db.flush().map_err(err)?;
    let zipf = Zipf::new(sizes.n_institutions, 0.8);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_0021);
    for _ in 0..PRIMING_QUERIES {
        go_cold(&stores);
        let q = gen_op(&mut rng, &zipf).query(f::INSTITUTION, f::COUNTRY);
        db.query(&q).map_err(|e| format!("priming: {e}"))?;
    }
    db.recalibrate();
    Ok(State {
        tuples,
        stores,
        db,
        generate_s,
    })
}

/// Host time of the same warm ops on the sharded table over an unsharded
/// twin holding the same rows.
fn host_vs_unsharded(st: &State, sizes: &Sizes, seed: u64) -> Result<f64, String> {
    let mut twin = UncertainDb::create(
        new_store(DiskConfig::default(), sizes.pool_bytes),
        "twin",
        DblpData::author_schema(),
        f::INSTITUTION,
        layout(sizes),
    )
    .map_err(err)?;
    let (loaded, inserted) = split(&st.tuples);
    twin.load(&loaded).map_err(err)?;
    for t in inserted {
        twin.insert_tuple(t).map_err(err)?;
    }
    twin.flush().map_err(err)?;
    let zipf = Zipf::new(sizes.n_institutions, 0.8);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_0023);
    let queries: Vec<_> = (0..TWIN_OPS)
        .map(|_| gen_op(&mut rng, &zipf).query(f::INSTITUTION, f::COUNTRY))
        .collect();
    let mut ns = [0u128; 2];
    // First pass warms both; the second is timed.
    for timed in [false, true] {
        let t0 = Instant::now();
        for q in &queries {
            st.db.query(q).map_err(err)?;
        }
        let sharded = t0.elapsed().as_nanos();
        let t0 = Instant::now();
        for q in &queries {
            twin.query(q).map_err(err)?;
        }
        if timed {
            ns = [sharded, t0.elapsed().as_nanos()];
        }
    }
    Ok(ns[0] as f64 / ns[1] as f64)
}

pub fn run(cfg: &RunCfg, sizes: &Sizes) -> Result<Outcome, String> {
    let (st, setup_s) = setup_repeated(cfg, || setup(cfg.seed, sizes))?;
    let per_round = round_ops(cfg, sizes.round_ops);
    let setup_bytes_written: u64 = st.stores.iter().map(|s| s.disk.stats().bytes_written).sum();
    let loaded_bytes = user_bytes(st.tuples.iter());
    let zipf = Zipf::new(sizes.n_institutions, 0.8);
    let mut rec = Recorder::new(cfg, st.stores.clone(), sizes.counted_rounds);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_0022);
    let mut space = Space::default();
    let skipped_at_start = st.db.shards_skipped();
    let mut window_skipped = 0u64;
    let (mut window_latency_ms, mut window_device_ms) = (0.0, 0.0);
    let mut queries = 0u64;

    while rec.keep_going() {
        for _ in 0..per_round {
            let op = gen_op(&mut rng, &zipf);
            if queries.is_multiple_of(4) {
                rec.protocol(|| go_cold(&st.stores));
            }
            queries += 1;
            let q = op.query(f::INSTITUTION, f::COUNTRY);
            let out = rec.op(op.class(), |spans| match spans {
                None => st.db.query(&q).map_err(err),
                Some(log) => log.scoped("scatter", |_| st.db.query(&q)).map_err(err),
            });
            let Some(out) = out else { continue };
            rec.note_output(&out);
            // Shards are independent devices working in parallel: the
            // client waits for the slowest, not for the sum.
            let latency_ms = out.latency_ms.unwrap_or(0.0);
            if rec.window_open() {
                window_latency_ms += latency_ms;
                window_device_ms += rec.last_mut().device_ms;
            }
            rec.set_last_latency_ms(latency_ms);
            if queries.is_multiple_of(ORACLE_EVERY) {
                verify_discrete(
                    &mut rec,
                    st.tuples.iter(),
                    &op,
                    f::INSTITUTION,
                    f::COUNTRY,
                    &out,
                );
            }
        }
        if rec.end_round() {
            window_skipped = st.db.shards_skipped() - skipped_at_start;
            space = Space {
                stored_bytes: st.stores.iter().map(|s| s.disk.total_live_bytes()).sum(),
                live_user_bytes: loaded_bytes,
                setup_bytes_written,
                user_bytes_written: loaded_bytes,
            };
        }
    }

    let checks = vec![Check::new(
        "shard_scatter.shards_skipped",
        window_skipped > 0,
        format!("{window_skipped} shard openings pruned in the window"),
    )];

    let mut layer = Metrics::new();
    if cfg.trace {
        let window_ops = rec.window().map_or(0, |w| w.ops) as f64;
        let scatter_ns: Vec<f64> = rec
            .samples
            .iter()
            .filter(|s| s.traced)
            .map(|s| s.host_ns as f64)
            .collect();
        let vs_twin = host_vs_unsharded(&st, sizes, cfg.seed)?;
        put(
            &mut layer,
            "query.sharded.host_us_per_scatter",
            mean(&scatter_ns) / 1e3,
            "us",
        );
        put(
            &mut layer,
            "query.sharded.host_vs_unsharded",
            vs_twin,
            "ratio",
        );
        put(
            &mut layer,
            "query.sharded.shards_skipped_share",
            ratio(window_skipped as f64, window_ops * SHARDS as f64),
            "ratio",
        );
        put(
            &mut layer,
            "query.sharded.latency_vs_sum",
            ratio(window_latency_ms, window_device_ms),
            "ratio",
        );
        // Plans are made inside the scatter, out of the harness's sight:
        // take the planner's choices from the shard sessions' registries.
        let snaps: Vec<_> = st.db.shards().iter().map(|s| s.metrics()).collect();
        let planned: u64 = snaps.iter().map(|m| m.queries).sum();
        for kind in PathKind::ALL {
            let chosen: u64 = snaps
                .iter()
                .flat_map(|m| m.kinds.iter())
                .filter(|k| k.kind == kind.label())
                .map(|k| k.queries)
                .sum();
            put(
                &mut layer,
                &kind_share_name(kind),
                ratio(chosen as f64, planned as f64),
                "ratio",
            );
        }
        put(
            &mut layer,
            "query.planner.misest_p50",
            snaps[0].misest_p50,
            "ratio",
        );
        put(
            &mut layer,
            "query.planner.misest_p95",
            snaps[0].misest_p95,
            "ratio",
        );
        let components: Vec<f64> = st
            .db
            .shards()
            .iter()
            .filter_map(|s| s.table().as_fractured())
            .map(|fr| fr.n_fractures() as f64 + 1.0)
            .collect();
        put(
            &mut layer,
            "core.fractured.components_mean",
            mean(&components),
            "count",
        );
        put(
            &mut layer,
            "core.fractured.components_max",
            components.iter().copied().fold(0.0, f64::max),
            "count",
        );
        let heap = st.db.shards()[0]
            .table()
            .as_fractured()
            .expect("shards were created on the fractured layout")
            .main()
            .heap_stats();
        put(&mut layer, "btree.height", heap.height as f64, "count");
        put(
            &mut layer,
            "btree.leaf_pages",
            heap.leaf_pages as f64,
            "pages",
        );
        put(&mut layer, "workloads.generate_s", st.generate_s, "s");
        probes::storage(&st.stores[0], &mut layer)?;
        probes::btree(&st.stores[0], &mut layer)?;
        probes::tuples(&st.tuples, &mut layer);
    }
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

    #[test]
    fn second_shard_is_pruned_and_answers_check_out() {
        let cfg = RunCfg {
            workload: "test".into(),
            seed: 8,
            seconds: 0.0,
            trace: false,
            smoke: false,
            out_dir: std::env::temp_dir(),
        };
        let out = run(&cfg, &Sizes::tiny()).unwrap();
        assert_eq!(out.rec.failed(), 0);
        assert!(out.checks.iter().all(|c| c.ok), "{:?}", out.checks);
    }

    #[test]
    fn skew_caps_only_the_second_shard_on_pruned_values() {
        let data = dblp::generate(&upi_workloads::DblpConfig::tiny());
        let second = boundary(data.authors.len());
        for (orig, t) in data.authors.iter().zip(skewed_authors(&data)) {
            for &(v, p) in t.discrete(f::INSTITUTION).alternatives() {
                if t.id.0 >= second && pruned_value(v) {
                    assert!(p <= COLD_PROB_CAP);
                } else {
                    assert_eq!(p, orig.discrete(f::INSTITUTION).prob_of(v));
                }
            }
        }
    }
}
