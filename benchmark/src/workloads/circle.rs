//! `circle_continuous`: Cartel observations (§7.1) in a `ContinuousUpi`
//! with a segment `ContinuousSecondary`, queried through a planner
//! `Catalog` — there is no session facade over this layout.
//!
//! Mix: 60 % circle PTQ (radius 100–1000 m, paper Q4), 30 % segment PTQ
//! through the secondary (Q5), 10 % `ContinuousUpi::insert` of the next
//! observation in time order. Every second op starts from a cold cache.
//!
//! `ContinuousSecondary` has no insert, so rows added during the run are
//! visible to circle queries only; the oracle answers segment queries
//! from the bulk-loaded set.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upi::{ContinuousConfig, ContinuousSecondary, ContinuousUpi};
use upi_query::{Catalog, PtqQuery, QueryOutput};
use upi_storage::{DiskConfig, Store};
use upi_uncertain::Tuple;
use upi_workloads::cartel::{self, observation_fields as f};
use upi_workloads::{CartelConfig, CartelData};

use super::{
    err, new_store, round_ops, setup_repeated, timed_query, user_bytes, Check, Outcome,
    ORACLE_EVERY, POOL_BYTES,
};
use crate::harness::{put, Class, Metrics, Recorder, RunCfg, Space};
use crate::oracle::{self, Want, EPS};
use crate::probes;
use crate::stats::mean;

#[derive(Debug, Clone)]
pub struct Sizes {
    /// Observations bulk-loaded in set-up.
    pub n_loaded: usize,
    /// Further observations generated for the insert stream.
    pub n_reserve: usize,
    pub grid: usize,
    pub n_cars: usize,
    pub payload_bytes: usize,
    pub pool_bytes: usize,
    pub round_ops: usize,
    pub counted_rounds: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            n_loaded: 30_000,
            n_reserve: 20_000,
            grid: 16,
            // Many cars with short trips: traffic spreads evenly over the
            // grid instead of following a few seed-specific paths.
            n_cars: 3_000,
            payload_bytes: 128,
            pool_bytes: POOL_BYTES,
            round_ops: 512,
            counted_rounds: 10,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            n_loaded: 3_000,
            n_reserve: 500,
            grid: 8,
            n_cars: 40,
            payload_bytes: 32,
            pool_bytes: 256 << 10,
            round_ops: 128,
            counted_rounds: 2,
        }
    }
}

/// One generated op.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    Circle {
        x: f64,
        y: f64,
        radius: f64,
        qt: f64,
    },
    Segment {
        value: u64,
        qt: f64,
    },
    Insert,
}

const QTS: [f64; 3] = [0.3, 0.5, 0.7];

/// Op classes in a fixed rotation — 6 circle (`0`), 3 segment (`1`),
/// 1 insert (`2`) per ten ops — rather than drawn: the median latency
/// sits in the steep low end of the circle latencies (cost grows with
/// radius squared), where a half-percent wobble in the realised class
/// shares moves it by several percent. Even positions run cold, odd ones
/// warm; each parity gets three of the circles.
const ROTATION: [u8; 10] = [0, 0, 0, 0, 0, 0, 1, 1, 2, 1];

/// The golden ratio's fractional part: `frac(i × this)` fills [0, 1)
/// evenly for consecutive `i`.
const GOLDEN_STEP: f64 = 0.618_033_988_749_894_9;

/// Draw op number `index`. Radii are not drawn but stepped evenly through
/// 100–1000 m from a per-seed `radius_phase`: a circle's cost grows with
/// the radius squared, so the run's latency percentiles would otherwise
/// follow the luck of the radius draw.
fn gen_op(rng: &mut StdRng, data: &CartelData, index: u64, radius_phase: f64) -> Op {
    match ROTATION[(index % 10) as usize] {
        0 => {
            // Centers follow the roads: a segment midpoint, jittered by
            // up to half a block either way.
            let (mx, my) = data.segment_midpoints[rng.gen_range(0..data.segment_midpoints.len())];
            let half = data.config.cell_meters / 2.0;
            Op::Circle {
                x: mx + rng.gen_range(-half..half),
                y: my + rng.gen_range(-half..half),
                radius: 100.0 + 900.0 * (radius_phase + index as f64 * GOLDEN_STEP).fract(),
                qt: QTS[rng.gen_range(0..QTS.len())],
            }
        }
        1 => Op::Segment {
            value: rng.gen_range(0..data.config.n_segments() as u64),
            qt: QTS[rng.gen_range(0..2usize)],
        },
        _ => Op::Insert,
    }
}

struct State {
    data: CartelData,
    store: Store,
    disk_cfg: DiskConfig,
    cupi: ContinuousUpi,
    segments: ContinuousSecondary,
    generate_s: f64,
}

fn setup(seed: u64, sizes: &Sizes) -> Result<State, String> {
    let t0 = Instant::now();
    let data = cartel::generate(&CartelConfig {
        n_observations: sizes.n_loaded + sizes.n_reserve,
        grid: sizes.grid,
        n_cars: sizes.n_cars,
        payload_bytes: sizes.payload_bytes,
        seed,
        ..CartelConfig::default()
    });
    let generate_s = t0.elapsed().as_secs_f64();
    let disk_cfg = DiskConfig::default();
    let store = new_store(disk_cfg.clone(), sizes.pool_bytes);
    // Node and heap page sizes of the repo's Cartel reproduction: one
    // R-Tree leaf's tuples fill about one heap page.
    let mut cupi = ContinuousUpi::create(
        store.clone(),
        "cartel.cupi",
        f::LOCATION,
        ContinuousConfig {
            node_page: 4096,
            heap_page: 16384,
        },
    )
    .map_err(err)?;
    let loaded = &data.observations[..sizes.n_loaded];
    cupi.bulk_load(loaded).map_err(err)?;
    let mut segments =
        ContinuousSecondary::create(store.clone(), "cartel.seg", f::SEGMENT, 8192).map_err(err)?;
    segments.bulk_load(&cupi, loaded).map_err(err)?;
    // Bulk-loaded pages sit dirty in the pool: write them back inside
    // set-up, where the load belongs.
    store.go_cold();
    Ok(State {
        data,
        store,
        disk_cfg,
        cupi,
        segments,
        generate_s,
    })
}

impl State {
    fn catalog(&self) -> Catalog<'_> {
        Catalog::new(&self.disk_cfg)
            .with_cupi(&self.cupi)
            .with_cont_secondary(&self.segments)
            .with_pool(self.store.pool.as_ref())
    }

    /// One query as a timed op (see [`timed_query`]).
    fn query(&self, rec: &mut Recorder, class: Class, q: &PtqQuery) -> Option<QueryOutput> {
        timed_query(rec, class, q, || self.catalog(), || q.run(&self.catalog()))
    }
}

pub fn run(cfg: &RunCfg, sizes: &Sizes) -> Result<Outcome, String> {
    let (mut st, setup_s) = setup_repeated(cfg, || setup(cfg.seed, sizes))?;
    let per_round = round_ops(cfg, sizes.round_ops);
    let setup_bytes_written = st.store.disk.stats().bytes_written;
    let loaded_bytes = user_bytes(st.data.observations[..sizes.n_loaded].iter());
    let mut rec = Recorder::new(cfg, vec![st.store.clone()], sizes.counted_rounds);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_0032);
    let radius_phase: f64 = rng.gen();
    let mut space = Space::default();
    // Observations `[..live]` are in the continuous UPI.
    let mut live = sizes.n_loaded;
    let mut window_inserted_bytes = 0u64;
    let mut ops = 0u64;
    let mut queries = 0u64;

    while rec.keep_going() {
        for _ in 0..per_round {
            let mut op = gen_op(&mut rng, &st.data, ops, radius_phase);
            if op == Op::Insert && live == st.data.observations.len() {
                // The reserve is spent (a very long run): query instead.
                op = Op::Segment { value: 0, qt: 0.5 };
            }
            if ops.is_multiple_of(2) {
                rec.protocol(|| st.store.go_cold());
            }
            ops += 1;
            match op {
                Op::Insert => {
                    let t = &st.data.observations[live];
                    if rec
                        .op(Class::Insert, |_| st.cupi.insert(t).map_err(err))
                        .is_some()
                    {
                        live += 1;
                        if rec.window_open() {
                            window_inserted_bytes += t.encoded_len() as u64;
                        }
                    }
                }
                Op::Circle { x, y, radius, qt } => {
                    let q = PtqQuery::circle(f::LOCATION, x, y, radius).with_qt(qt);
                    let Some(out) = st.query(&mut rec, Class::Circle, &q) else {
                        continue;
                    };
                    queries += 1;
                    if queries.is_multiple_of(ORACLE_EVERY) {
                        let all = st.data.observations[..live].iter();
                        let m = oracle::circle_matches(all, f::LOCATION, x, y, radius);
                        if let Err(e) = oracle::check(&m, Want::Threshold(qt), EPS, &out.rows) {
                            rec.mismatch(&format!("circle ({x:.1}, {y:.1}) r={radius:.1}: {e}"));
                        }
                    }
                }
                Op::Segment { value, qt } => {
                    let q = PtqQuery::eq(f::SEGMENT, value).with_qt(qt);
                    let Some(out) = st.query(&mut rec, Class::Segment, &q) else {
                        continue;
                    };
                    queries += 1;
                    if queries.is_multiple_of(ORACLE_EVERY) {
                        let m: Vec<(u64, f64)> = st.data.observations[..sizes.n_loaded]
                            .iter()
                            .map(|t: &Tuple| (t.id.0, t.confidence_eq(f::SEGMENT, value)))
                            .filter(|&(_, c)| c > 0.0)
                            .collect();
                        if let Err(e) = oracle::check(&m, Want::Threshold(qt), EPS, &out.rows) {
                            rec.mismatch(&format!("segment {value}: {e}"));
                        }
                    }
                }
            }
        }
        if rec.end_round() {
            space = Space {
                stored_bytes: st.store.disk.total_live_bytes(),
                live_user_bytes: loaded_bytes + window_inserted_bytes,
                setup_bytes_written,
                user_bytes_written: loaded_bytes + window_inserted_bytes,
            };
        }
    }

    let rtree = st.cupi.rtree_stats();
    let checks = vec![Check::new(
        "circle_continuous.rtree_height_at_least_2",
        rtree.height >= 2,
        format!("R-Tree height {}", rtree.height),
    )];

    let mut layer = Metrics::new();
    if cfg.trace {
        let host_us = |class: Class| {
            let ns: Vec<f64> = rec
                .samples
                .iter()
                .filter(|s| s.class == class && s.traced)
                .map(|s| s.host_ns as f64)
                .collect();
            mean(&ns) / 1e3
        };
        let circle_pages: Vec<f64> = rec
            .samples
            .iter()
            .filter(|s| s.class == Class::Circle && s.in_window)
            .map(|s| s.pages_read as f64)
            .collect();
        put(
            &mut layer,
            "core.continuous.host_us_per_circle",
            host_us(Class::Circle),
            "us",
        );
        put(
            &mut layer,
            "core.continuous.host_us_per_segment_ptq",
            host_us(Class::Segment),
            "us",
        );
        put(
            &mut layer,
            "core.continuous.host_us_per_insert",
            host_us(Class::Insert),
            "us",
        );
        put(
            &mut layer,
            "core.continuous.pages_read_per_circle",
            mean(&circle_pages),
            "pages",
        );
        put(&mut layer, "rtree.height", rtree.height as f64, "count");
        put(
            &mut layer,
            "rtree.leaf_pages",
            rtree.leaf_pages as f64,
            "pages",
        );
        put(
            &mut layer,
            "btree.height",
            st.segments.height() as f64,
            "count",
        );
        put(&mut layer, "workloads.generate_s", st.generate_s, "s");
        probes::storage(&st.store, &mut layer)?;
        probes::btree(&st.store, &mut layer)?;
        probes::tuples(&st.data.observations, &mut layer);
        probes::spatial(&st.store, &st.data.observations, f::LOCATION, &mut layer)?;
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
    fn circle_and_segment_answers_check_out() {
        let cfg = RunCfg {
            workload: "test".into(),
            seed: 13,
            seconds: 0.0,
            trace: false,
            smoke: false,
            out_dir: std::env::temp_dir(),
        };
        let (a, b) = (
            run(&cfg, &Sizes::tiny()).unwrap(),
            run(&cfg, &Sizes::tiny()).unwrap(),
        );
        assert_eq!(a.rec.failed(), 0);
        assert!(a.checks.iter().all(|c| c.ok), "{:?}", a.checks);
        assert_eq!(a.rec.window().unwrap().dev, b.rec.window().unwrap().dev);
    }
}
