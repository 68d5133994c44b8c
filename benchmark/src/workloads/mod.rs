//! The five workloads and what they share: the discrete query op, the
//! traced-or-plain query call, set-up repetition and self-checks.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use upi_query::{Catalog, PtqQuery, QueryError, QueryOutput, UncertainDb};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_uncertain::Tuple;
use upi_workloads::DblpConfig;

use crate::harness::{Class, Metrics, Recorder, RunCfg, Space};
use crate::oracle;
use crate::stats::median;

pub mod circle;
pub mod dml;
pub mod ptq;
pub mod shard;

/// Buffer pool of every store, bytes: the paper's regime is a pool far
/// smaller than the table.
pub const POOL_BYTES: usize = 8 << 20;

/// Queries primed (cold) before one `recalibrate()` during set-up.
pub const PRIMING_QUERIES: usize = 200;

/// One query op in 64 is re-answered by the oracle.
pub const ORACLE_EVERY: u64 = 64;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// A discrete-attribute query, as generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOp {
    Point { value: u64, qt: f64 },
    TopK { value: u64, k: usize },
    Range { lo: u64, hi: u64, qt: f64 },
    Secondary { value: u64, qt: f64 },
}

impl QueryOp {
    pub fn class(&self) -> Class {
        match self {
            QueryOp::Point { .. } => Class::Point,
            QueryOp::TopK { .. } => Class::TopK,
            QueryOp::Range { .. } => Class::Range,
            QueryOp::Secondary { .. } => Class::Secondary,
        }
    }

    pub fn query(&self, primary: usize, secondary: usize) -> PtqQuery {
        match *self {
            QueryOp::Point { value, qt } => PtqQuery::eq(primary, value).with_qt(qt),
            QueryOp::TopK { value, k } => PtqQuery::eq(primary, value).with_top_k(k),
            QueryOp::Range { lo, hi, qt } => PtqQuery::range(primary, lo, hi).with_qt(qt),
            QueryOp::Secondary { value, qt } => PtqQuery::eq(secondary, value).with_qt(qt),
        }
    }
}

/// The thresholds point PTQs cycle through (paper fig 4: QT sweep).
pub const POINT_QTS: [f64; 3] = [0.1, 0.3, 0.5];

/// `k` of every top-k op.
pub const TOP_K: usize = 10;

/// Pick an index by integer weights.
pub fn weighted(rng: &mut StdRng, weights: &[u32]) -> usize {
    let total: u32 = weights.iter().sum();
    let mut roll = rng.gen_range(0..total);
    for (i, &w) in weights.iter().enumerate() {
        if roll < w {
            return i;
        }
        roll -= w;
    }
    unreachable!("roll is below the total weight")
}

/// One self-check a workload asserts every run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }

    /// A check that needs a full run's volume: a smoke run reports it as
    /// skipped instead of failing it.
    pub fn needs_volume(cfg: &RunCfg, name: &'static str, ok: bool, detail: String) -> Check {
        if cfg.smoke {
            Check::new(name, true, format!("skipped in a smoke run; {detail}"))
        } else {
            Check::new(name, ok, detail)
        }
    }
}

/// What a finished workload hands back to `main`.
pub struct Outcome {
    pub rec: Recorder,
    pub setup_s: f64,
    pub space: Space,
    /// The workload's own per-layer metrics (traced runs only).
    pub layer: Metrics,
    pub checks: Vec<Check>,
}

/// Run the named workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "ptq_cold" => ptq::run(cfg, ptq::Mode::Cold, &ptq::Sizes::full()),
        "ptq_warm" => ptq::run(cfg, ptq::Mode::Warm, &ptq::Sizes::full()),
        "dml_lifecycle" => dml::run(cfg, &dml::Sizes::full()),
        "shard_scatter" => shard::run(cfg, &shard::Sizes::full()),
        "circle_continuous" => circle::run(cfg, &circle::Sizes::full()),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Build the workload's state [`SETUP_REPEATS`] times (once in a smoke
/// run), dropping each before the next so memory stays one instance, and
/// return the last with the median wall time.
pub fn setup_repeated<S>(
    cfg: &RunCfg,
    build: impl Fn() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let repeats = if cfg.smoke { 1 } else { SETUP_REPEATS };
    let mut times = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), median(&mut times)))
}

/// Ops per round after the smoke divisor.
pub fn round_ops(cfg: &RunCfg, full: usize) -> usize {
    if cfg.smoke {
        (full / 50).max(16)
    } else {
        full
    }
}

/// Run one query as a timed op. Untraced, it is `plain()` — the call a
/// user would make. Traced, the harness builds the catalog and plans
/// under a `plan` span and executes under an `execute` span. (On a
/// session the traced path therefore bypasses the session's own
/// calibration and metrics recording — the price of spans from outside.)
pub fn timed_query<'a>(
    rec: &mut Recorder,
    class: Class,
    q: &PtqQuery,
    catalog: impl Fn() -> Catalog<'a>,
    plain: impl FnOnce() -> Result<QueryOutput, QueryError>,
) -> Option<QueryOutput> {
    let mut plan_info = None;
    let out = rec.op(class, |spans| match spans {
        None => plain().map_err(err),
        Some(log) => {
            let (catalog, plan) = log.scoped("plan", |_| {
                let catalog = catalog();
                let plan = q.plan(&catalog);
                (catalog, plan)
            });
            let plan = plan.map_err(err)?;
            let out = log
                .scoped("execute", |_| plan.execute(&catalog))
                .map_err(err)?;
            plan_info = Some((
                plan.candidates.len(),
                plan.candidates[0].cost.kind,
                plan.est_ms(),
            ));
            Ok(out)
        }
    })?;
    rec.note_output(&out);
    if let Some((candidates, kind, est_ms)) = plan_info {
        rec.note_plan(candidates, kind, est_ms);
    }
    Some(out)
}

/// [`timed_query`] against an `UncertainDb` session.
pub fn session_query(
    rec: &mut Recorder,
    db: &UncertainDb,
    class: Class,
    q: &PtqQuery,
) -> Option<QueryOutput> {
    timed_query(rec, class, q, || db.catalog(), || db.query(q))
}

/// Errors cross the harness as their message.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A fresh simulated machine.
pub fn new_store(disk: DiskConfig, pool_bytes: usize) -> Store {
    Store::new(Arc::new(SimDisk::new(disk)), pool_bytes)
}

/// The DBLP generator's configuration for an Author-only table.
pub fn dblp_config(
    n_authors: usize,
    n_institutions: usize,
    n_countries: usize,
    payload_bytes: usize,
    seed: u64,
) -> DblpConfig {
    DblpConfig {
        n_authors,
        n_institutions,
        n_countries,
        n_publications: 0,
        payload_bytes,
        seed,
        ..DblpConfig::default()
    }
}

/// Re-answer a discrete op by brute force and compare.
pub fn verify_discrete<'a>(
    rec: &mut Recorder,
    tuples: impl Iterator<Item = &'a Tuple>,
    op: &QueryOp,
    primary: usize,
    secondary: usize,
    out: &QueryOutput,
) {
    let (matching, eps) = oracle::discrete_matches(tuples, op, primary, secondary);
    if let Err(e) = oracle::check(&matching, oracle::want_of(op), eps, &out.rows) {
        rec.mismatch(&format!("{op:?}: {e}"));
    }
}

/// Σ `encoded_len` of `tuples`.
pub fn user_bytes<'a>(tuples: impl Iterator<Item = &'a Tuple>) -> u64 {
    tuples.map(|t| t.encoded_len() as u64).sum()
}
