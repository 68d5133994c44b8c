//! `ptq_cold` and `ptq_warm`: the DBLP Author table (§7.1) on a UPI with
//! a `COUNTRY` secondary, queried through the `UncertainDb` session.
//!
//! Both run the same mix — 50 % point PTQ, 20 % top-k, 15 % range, 15 %
//! secondary. *Cold* draws primary values Zipf-distributed over every
//! institution and calls `go_cold()` before each query (the paper's
//! protocol); *warm* draws from a hot set that fits the pool and starts
//! from a cold cache once, so the only device work is faulting the hot
//! set in.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upi::{TableLayout, UpiConfig};
use upi_query::UncertainDb;
use upi_storage::{DiskConfig, Store};
use upi_uncertain::Zipf;
use upi_workloads::dblp::{self, author_fields as f};
use upi_workloads::DblpData;

use super::{
    dblp_config, err, new_store, round_ops, session_query, setup_repeated, user_bytes,
    verify_discrete, weighted, Check, Outcome, QueryOp, ORACLE_EVERY, POINT_QTS, POOL_BYTES,
    PRIMING_QUERIES, TOP_K,
};
use crate::harness::{Metrics, Recorder, RunCfg, Space};
use crate::probes;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Warm,
}

/// Dataset and window sizes.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub n_authors: usize,
    pub n_institutions: usize,
    pub n_countries: usize,
    pub payload_bytes: usize,
    pub pool_bytes: usize,
    /// Institutions in the warm hot set.
    pub hot_values: usize,
    pub round_ops: usize,
    pub counted_rounds_cold: u64,
    pub counted_rounds_warm: u64,
}

impl Sizes {
    /// 100 k authors × 512 B payload: ≈ 160 MB stored, 20× the 8 MB pool.
    pub fn full() -> Sizes {
        Sizes {
            n_authors: 100_000,
            n_institutions: 2_000,
            // Four times the generator's default, so the smaller countries
            // hold a few hundred confident rows each.
            n_countries: 160,
            payload_bytes: 512,
            pool_bytes: POOL_BYTES,
            hot_values: 32,
            round_ops: 1_024,
            counted_rounds_cold: 5,
            counted_rounds_warm: 16,
        }
    }

    /// A table small enough for unit tests, still larger than its pool.
    pub fn tiny() -> Sizes {
        Sizes {
            n_authors: 3_000,
            n_institutions: 200,
            n_countries: 12,
            payload_bytes: 256,
            pool_bytes: 256 << 10,
            hot_values: 4,
            round_ops: 128,
            counted_rounds_cold: 2,
            counted_rounds_warm: 2,
        }
    }
}

/// Where ops draw their values from.
#[derive(Debug, Clone)]
pub struct Domain {
    /// First primary value of the drawn range.
    pub base: u64,
    /// Zipf over the range's ranks (institution ids are popularity ranks).
    pub zipf: Zipf,
    /// Countries secondary ops pick from, uniformly.
    pub countries: Vec<u64>,
    /// Thresholds secondary ops pick from.
    pub secondary_qts: &'static [f64],
}

/// Skew of the query-value draw (the data's own value skew is 0.6).
const QUERY_SKEW: f64 = 0.8;

/// Confident rows (confidence ≥ 0.5) per country.
fn country_rows(sizes: &Sizes, data: &DblpData) -> Vec<u64> {
    let mut rows = vec![0u64; sizes.n_countries];
    for t in &data.authors {
        for &(c, p) in t.discrete(f::COUNTRY).alternatives() {
            if t.exist * p >= 0.5 {
                rows[c as usize] += 1;
            }
        }
    }
    rows
}

/// The `n` countries whose confident-row count is nearest `target`.
/// Which institutions a country gets is one random draw per seed, so a
/// country's size swings widely between seeds; picking by measured size
/// keeps the cost of a secondary op the same input property every run.
fn countries_near(rows: &[u64], target: u64, n: usize) -> Vec<u64> {
    let mut by_distance: Vec<u64> = (0..rows.len() as u64).collect();
    by_distance.sort_by_key(|&c| (rows[c as usize].abs_diff(target), c));
    by_distance.truncate(n);
    by_distance.sort_unstable();
    by_distance
}

impl Domain {
    /// Every institution; sixteen countries of about 60 confident rows.
    /// A secondary op fetches each row through its own B+Tree descent
    /// (≈ 20 µs), so this keeps it near the cost of a range op; a large
    /// country holds tens of thousands of rows.
    pub fn cold(sizes: &Sizes, data: &DblpData) -> Domain {
        Domain {
            base: 0,
            zipf: Zipf::new(sizes.n_institutions, QUERY_SKEW),
            countries: countries_near(&country_rows(sizes, data), 60, 16),
            secondary_qts: &[0.5, 0.7],
        }
    }

    /// `hot_values` mid-popularity institutions and the one country
    /// nearest 40 confident rows.
    pub fn warm(sizes: &Sizes, data: &DblpData) -> Domain {
        Domain {
            base: (sizes.n_institutions / 4) as u64,
            zipf: Zipf::new(sizes.hot_values, QUERY_SKEW),
            countries: countries_near(&country_rows(sizes, data), 40, 1),
            secondary_qts: &[0.5, 0.7],
        }
    }

    fn last_value(&self) -> u64 {
        self.base + self.zipf.n() as u64 - 1
    }
}

/// Draw the next op: 50 % point, 20 % top-k, 15 % range, 15 % secondary.
pub fn gen_op(rng: &mut StdRng, d: &Domain) -> QueryOp {
    let value = d.base + d.zipf.sample(rng) as u64 - 1;
    match weighted(rng, &[50, 20, 15, 15]) {
        0 => QueryOp::Point {
            value,
            qt: POINT_QTS[rng.gen_range(0..POINT_QTS.len())],
        },
        1 => QueryOp::TopK { value, k: TOP_K },
        2 => QueryOp::Range {
            lo: value,
            hi: (value + rng.gen_range(1..=3u64)).min(d.last_value()),
            qt: [0.3, 0.5][rng.gen_range(0..2usize)],
        },
        _ => QueryOp::Secondary {
            value: d.countries[rng.gen_range(0..d.countries.len())],
            qt: d.secondary_qts[rng.gen_range(0..d.secondary_qts.len())],
        },
    }
}

struct State {
    data: DblpData,
    store: Store,
    db: UncertainDb,
    domain: Domain,
    generate_s: f64,
    /// Mean device ms of the cold priming queries over this domain.
    cold_ms_per_query: f64,
}

fn setup(seed: u64, mode: Mode, sizes: &Sizes) -> Result<State, String> {
    let t0 = Instant::now();
    let data = dblp::generate(&dblp_config(
        sizes.n_authors,
        sizes.n_institutions,
        sizes.n_countries,
        sizes.payload_bytes,
        seed,
    ));
    let generate_s = t0.elapsed().as_secs_f64();
    let store = new_store(DiskConfig::default(), sizes.pool_bytes);
    let mut db = UncertainDb::create(
        store.clone(),
        "author",
        DblpData::author_schema(),
        f::INSTITUTION,
        TableLayout::Upi(UpiConfig::default()),
    )
    .map_err(err)?;
    db.add_secondary(f::COUNTRY).map_err(err)?;
    db.load(&data.authors).map_err(err)?;
    let domain = match mode {
        Mode::Cold => Domain::cold(sizes, &data),
        Mode::Warm => Domain::warm(sizes, &data),
    };
    // Prime the calibration store with cold executions, then refit once.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_0001);
    let mut cold_ms = 0.0;
    for _ in 0..PRIMING_QUERIES {
        store.go_cold();
        let q = gen_op(&mut rng, &domain).query(f::INSTITUTION, f::COUNTRY);
        let out = db.query(&q).map_err(|e| format!("priming: {e}"))?;
        cold_ms += out.observed_ms().unwrap_or(0.0);
    }
    db.recalibrate();
    Ok(State {
        data,
        store,
        db,
        domain,
        generate_s,
        cold_ms_per_query: cold_ms / PRIMING_QUERIES as f64,
    })
}

pub fn run(cfg: &RunCfg, mode: Mode, sizes: &Sizes) -> Result<Outcome, String> {
    let (st, setup_s) = setup_repeated(cfg, || setup(cfg.seed, mode, sizes))?;
    let counted = match mode {
        Mode::Cold => sizes.counted_rounds_cold,
        Mode::Warm => sizes.counted_rounds_warm,
    };
    let per_round = round_ops(cfg, sizes.round_ops);
    let setup_bytes_written = st.store.disk.stats().bytes_written;
    let loaded_bytes = user_bytes(st.data.authors.iter());
    let mut rec = Recorder::new(cfg, vec![st.store.clone()], counted);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_0002);
    let mut space = Space::default();
    let mut queries = 0u64;
    if mode == Mode::Warm {
        rec.protocol(|| st.store.go_cold());
    }
    while rec.keep_going() {
        for _ in 0..per_round {
            let op = gen_op(&mut rng, &st.domain);
            if mode == Mode::Cold {
                rec.protocol(|| st.store.go_cold());
            }
            let q = op.query(f::INSTITUTION, f::COUNTRY);
            let Some(out) = session_query(&mut rec, &st.db, op.class(), &q) else {
                continue;
            };
            queries += 1;
            if queries.is_multiple_of(ORACLE_EVERY) {
                verify_discrete(
                    &mut rec,
                    st.data.authors.iter(),
                    &op,
                    f::INSTITUTION,
                    f::COUNTRY,
                    &out,
                );
            }
        }
        if rec.end_round() {
            space = Space {
                stored_bytes: st.store.disk.total_live_bytes(),
                live_user_bytes: loaded_bytes,
                setup_bytes_written,
                user_bytes_written: loaded_bytes,
            };
        }
    }

    let w = *rec.window().expect("the loop ends after the window closes");
    let pool = w.dev.pool;
    let hit_ratio = pool.hits as f64 / (pool.hits + pool.misses) as f64;
    let device_ms_per_op = w.latency_ms / w.ops as f64;
    let checks = match mode {
        // A cold query still hits the pool — the cursor re-gets its leaf
        // for every entry — so "cold" is asserted per op: none may finish
        // without reading the device.
        Mode::Cold => {
            let warm_ops = rec
                .samples
                .iter()
                .filter(|s| s.in_window && s.pages_read == 0)
                .count();
            vec![Check::new(
                "ptq_cold.every_op_reads_the_device",
                warm_ops == 0,
                format!("{warm_ops} ops read no page; pool hit ratio {hit_ratio:.4}"),
            )]
        }
        Mode::Warm => vec![
            Check::needs_volume(
                cfg,
                "ptq_warm.hit_ratio_at_least_0.99",
                hit_ratio >= 0.99,
                format!("pool hit ratio {hit_ratio:.4}"),
            ),
            Check::needs_volume(
                cfg,
                "ptq_warm.device_below_1pct_of_cold",
                device_ms_per_op < 0.01 * st.cold_ms_per_query,
                format!(
                    "{device_ms_per_op:.4} sim_ms/op warm vs {:.2} cold",
                    st.cold_ms_per_query
                ),
            ),
        ],
    };

    let mut layer = Metrics::new();
    if cfg.trace {
        let heap = st
            .db
            .table()
            .as_upi()
            .expect("the table was created on the UPI layout")
            .heap_stats();
        layer.insert("btree.height".into(), (heap.height as f64, "count"));
        layer.insert("btree.leaf_pages".into(), (heap.leaf_pages as f64, "pages"));
        layer.insert("workloads.generate_s".into(), (st.generate_s, "s"));
        probes::storage(&st.store, &mut layer)?;
        probes::btree(&st.store, &mut layer)?;
        probes::tuples(&st.data.authors, &mut layer);
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

    fn ops(seed: u64, n: usize) -> Vec<QueryOp> {
        let sizes = Sizes::tiny();
        let data = dblp::generate(&dblp_config(
            sizes.n_authors,
            sizes.n_institutions,
            sizes.n_countries,
            sizes.payload_bytes,
            0xDB1F,
        ));
        let d = Domain::cold(&sizes, &data);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| gen_op(&mut rng, &d)).collect()
    }

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        assert_eq!(ops(11, 500), ops(11, 500));
        assert_ne!(ops(11, 500), ops(12, 500));
    }

    #[test]
    fn the_mix_has_every_class_in_roughly_its_share() {
        let all = ops(5, 4_000);
        let share = |pred: fn(&QueryOp) -> bool| {
            all.iter().filter(|o| pred(o)).count() as f64 / all.len() as f64
        };
        assert!((share(|o| matches!(o, QueryOp::Point { .. })) - 0.50).abs() < 0.04);
        assert!((share(|o| matches!(o, QueryOp::TopK { .. })) - 0.20).abs() < 0.04);
        assert!((share(|o| matches!(o, QueryOp::Range { .. })) - 0.15).abs() < 0.04);
        assert!((share(|o| matches!(o, QueryOp::Secondary { .. })) - 0.15).abs() < 0.04);
    }

    fn tiny_run(seed: u64, mode: Mode) -> Outcome {
        let cfg = RunCfg {
            workload: "test".into(),
            seed,
            seconds: 0.0,
            trace: false,
            smoke: false,
            out_dir: std::env::temp_dir(),
        };
        run(&cfg, mode, &Sizes::tiny()).unwrap()
    }

    #[test]
    fn same_seed_gives_identical_device_counts_and_answers_check_out() {
        let (a, b) = (tiny_run(3, Mode::Cold), tiny_run(3, Mode::Cold));
        let (wa, wb) = (a.rec.window().unwrap(), b.rec.window().unwrap());
        assert_eq!(wa.dev, wb.dev);
        assert_eq!(wa.ops, wb.ops);
        assert_eq!(wa.latency_ms.to_bits(), wb.latency_ms.to_bits());
        assert!(wa.dev.io.page_reads > 0);
        assert_eq!(a.rec.failed(), 0);
        assert!(a.checks.iter().all(|c| c.ok), "{:?}", a.checks);
        let other = tiny_run(4, Mode::Cold);
        assert_ne!(wa.dev, other.rec.window().unwrap().dev);
    }

    #[test]
    fn warm_hot_set_is_served_from_the_pool() {
        let out = tiny_run(3, Mode::Warm);
        assert_eq!(out.rec.failed(), 0);
        let w = out.rec.window().unwrap();
        let cold = tiny_run(3, Mode::Cold);
        assert!(
            w.dev.io.page_reads * 4 < cold.rec.window().unwrap().dev.io.page_reads,
            "warm reads {} pages, cold {}",
            w.dev.io.page_reads,
            cold.rec.window().unwrap().dev.io.page_reads
        );
    }
}
