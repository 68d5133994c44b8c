//! Planner validation — each figure query (4–8) executed under the
//! cost-based planner and under every forced access path, **cold and
//! calibrated**.
//!
//! For every query point this prints the planner's chosen path, its
//! measured simulated runtime, and the runtime of each forced candidate.
//! Each figure setup runs twice:
//!
//! 1. **cold** — the uncalibrated cost model prices the candidates; every
//!    forced execution's `(estimated, observed)` pair is recorded into a
//!    `CalibrationStore` (the same feedback `UncertainDb` collects
//!    automatically in a session);
//! 2. **calibrated** — after one bounded `CostModel::refit` pass, the
//!    same points are re-planned and re-measured with the refit
//!    coefficients.
//!
//! Asserted, per point:
//!
//! 1. every access path returns the **same result set** (both passes),
//! 2. the **calibrated** chosen plan is within **10%** of the best forced
//!    path (plus a small absolute slack for the sub-millisecond regime) —
//!    this is the acceptance gate;
//! 3. the cold chosen plan stays within a loose 25% backstop (the §6
//!    models must remain sane before any feedback), and
//! 4. at scale 0.05 the known q3@0.5 crossover miss (cold ≈ 1.10x, see
//!    ROADMAP) closes to ≤ 1.05x after the calibration pass.
//!
//! A machine-readable `BENCH_planner.json` is written for the
//! perf-trajectory tooling (override the path with
//! `UPI_BENCH_PLANNER_JSON`): per-point **cold and calibrated**
//! chosen/best-forced ratios, the refit scales per path kind, plus two
//! prefetch-hint experiments — a clustered range plan (one hinted run)
//! and a fractured range plan over three components (one hint per
//! component), each executed hinted (as planned) and with the hints
//! stripped, with the buffer-pool page/miss win recorded.

use upi::{FracturedConfig, FracturedUpi, UpiConfig};
use upi_bench::setups::{author_setup, cartel_setup, publication_setup};
use upi_bench::{banner, header, measure_cold, ms, scale, summary};
use upi_query::cost::N_PATH_KINDS;
use upi_query::{
    AccessPath, CalibrationStore, Catalog, CostModel, MetricsRegistry, PathKind, PhysicalPlan,
    PtqQuery, QueryOutput,
};
use upi_storage::{DiskConfig, PoolCounters};
use upi_workloads::cartel::observation_fields;
use upi_workloads::dblp::{author_fields, publication_fields};

/// Relative slack of the calibrated acceptance gate.
const CAL_GATE: f64 = 1.10;
/// Loose backstop for the cold (uncalibrated) pass.
const COLD_GATE: f64 = 1.25;
/// Absolute slack, simulated ms (sub-ms costs round in the I/O ledger).
const ABS_SLACK_MS: f64 = 2.0;

/// One per-point record.
struct CaseRecord {
    name: String,
    chosen: String,
    chosen_ms: f64,
    best_forced: String,
    best_forced_ms: f64,
}

impl CaseRecord {
    fn ratio(&self) -> f64 {
        if self.best_forced_ms > 0.0 {
            self.chosen_ms / self.best_forced_ms
        } else {
            1.0
        }
    }
}

/// One prefetch-hint experiment's measurements (single-run or
/// fracture-parallel multi-run).
struct HintRecord {
    query: String,
    path: String,
    /// Number of hinted runs the plan carries (1, or one per component).
    runs: usize,
    /// Estimated pages across every hinted run.
    est_run_pages: usize,
    hinted: PoolCounters,
    unhinted: PoolCounters,
}

/// Comparable fingerprint of an output: sorted `(tid, confidence)` rows or
/// the group table.
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

/// Execute the planner's choice and each forced candidate cold; check
/// agreement and the optimality bound. When `samples` is given (the cold
/// pass), every forced execution feeds the calibration store.
fn run_point(
    label: &str,
    q: &PtqQuery,
    catalog: &Catalog<'_>,
    store: &upi_storage::Store,
    mut samples: Option<&mut CalibrationStore>,
    max_ratio: f64,
    metrics: &mut MetricsRegistry,
) -> CaseRecord {
    let plan = q.plan(catalog).expect("planner must find a path");
    if std::env::var("UPI_PLANNER_EXPLAIN").is_ok() {
        eprintln!("--- {label}\n{}", plan.explain());
    }
    let chosen_label = plan.path().label();

    let mut chosen_out = None;
    let chosen = measure_cold(store, || {
        let out = plan.execute(catalog).unwrap();
        let n = out.len();
        chosen_out = Some(out);
        n
    });
    let chosen_out = chosen_out.expect("measured closure ran");

    // Every chosen execution feeds the bench-wide metrics registry (the
    // same registry `UncertainDb` owns per session) — the snapshot
    // becomes BENCH_metrics.json.
    let cost = &plan.candidates[0].cost;
    metrics.record_query(
        cost.kind,
        plan.est_ms(),
        chosen.sim_ms,
        chosen_out.len() as u64,
        chosen_out.io.as_ref(),
    );

    // EXPLAIN ANALYZE coverage: every figure point's chosen plan must
    // render an executed span tree.
    let analyze = plan.render_analyze(&chosen_out);
    assert!(
        analyze.contains("trace ("),
        "{label}: render_analyze must include the span tree:\n{analyze}"
    );
    if std::env::var("UPI_PLANNER_EXPLAIN").is_ok() {
        eprintln!("--- {label} (analyze)\n{analyze}");
    }

    let reference = fingerprint(&chosen_out);

    let mut best_forced = f64::INFINITY;
    let mut best_label = String::new();
    let mut cols = vec![label.to_string(), chosen_label.clone(), ms(chosen.sim_ms)];
    for cand in &plan.candidates {
        let forced = PhysicalPlan {
            query: q.clone(),
            candidates: vec![cand.clone()],
        };
        let mut forced_out = None;
        let m = measure_cold(store, || {
            let out = forced.execute(catalog).unwrap();
            let n = out.len();
            forced_out = Some(out);
            n
        });
        assert_eq!(
            fingerprint(&forced_out.expect("measured closure ran")),
            reference,
            "{label}: path {} disagrees with planner result",
            cand.path.label()
        );
        if let Some(s) = samples.as_deref_mut() {
            // The forced execution IS the observed side of this
            // candidate's estimate: same plan, same cold protocol.
            s.record(
                cand.cost.kind,
                cand.cost.fixed_ms,
                cand.cost.dominant_ms,
                m.sim_ms,
            );
        }
        if m.sim_ms < best_forced {
            best_forced = m.sim_ms;
            best_label = cand.path.label();
        }
        cols.push(format!("{}={}", cand.path.label(), ms(m.sim_ms)));
    }
    println!("{}", cols.join("\t"));

    assert!(
        chosen.sim_ms <= best_forced * max_ratio + ABS_SLACK_MS,
        "{label}: planner chose {chosen_label} ({:.1} ms) but {best_label} is faster ({:.1} ms; gate {max_ratio:.2}x)",
        chosen.sim_ms,
        best_forced
    );
    CaseRecord {
        name: label.to_string(),
        chosen: chosen_label,
        chosen_ms: chosen.sim_ms,
        best_forced: best_label,
        best_forced_ms: best_forced,
    }
}

/// A prefetch-hint experiment: the plan for `want_path`, executed cold
/// as planned (hints armed — one per run, so a fracture-parallel path
/// arms one per component) and again with every hint stripped. Same
/// plan, same rows — the only difference is whether the buffer pool
/// learns each run from the planner or from two adjacent misses, so the
/// miss delta is exactly the hints' contribution.
fn run_hint_experiment(
    q: &PtqQuery,
    label: &str,
    want_path: &AccessPath,
    catalog: &Catalog<'_>,
    store: &upi_storage::Store,
) -> HintRecord {
    let plan = q.plan(catalog).expect("planner must find a path");
    let cand = plan
        .candidates
        .iter()
        .find(|c| &c.path == want_path)
        .expect("requested path must be enumerated");
    assert!(
        !cand.hints.is_empty(),
        "{} must carry prefetch hints",
        cand.path.label()
    );
    let runs = cand.hints.len();
    let est_run_pages: usize = cand.hints.iter().map(|h| h.est_run_pages).sum();

    let measure = |strip_hints: bool| -> (PoolCounters, usize) {
        let mut cand = cand.clone();
        if strip_hints {
            cand.hints.clear();
        }
        let forced = PhysicalPlan {
            query: q.clone(),
            candidates: vec![cand],
        };
        store.go_cold();
        let before = store.pool.counters();
        let rows = forced.execute(catalog).unwrap().len();
        (store.pool.counters().since(&before), rows)
    };
    let (hinted, hinted_rows) = measure(false);
    let (unhinted, unhinted_rows) = measure(true);
    assert_eq!(hinted_rows, unhinted_rows, "hints must not change results");
    assert_eq!(
        hinted.hinted_runs, runs as u64,
        "every per-run hint must arm: {hinted}"
    );
    assert!(
        hinted.misses < unhinted.misses,
        "hint-armed read-ahead must cut demand misses: {hinted} vs {unhinted}"
    );
    println!(
        "{label}\t{} run(s)\thinted: {} pages ({} misses)\tunhinted: {} pages ({} misses)",
        runs,
        hinted.pages_read(),
        hinted.misses,
        unhinted.pages_read(),
        unhinted.misses
    );
    HintRecord {
        query: label.to_string(),
        path: cand.path.label(),
        runs,
        est_run_pages,
        hinted,
        unhinted,
    }
}

fn counters_json(c: &PoolCounters) -> String {
    format!(
        "{{\"pages_read\": {}, \"misses\": {}, \"readahead\": {}, \"readahead_hits\": {}}}",
        c.pages_read(),
        c.demand_pages(),
        c.sequential_pages(),
        c.readahead_hits
    )
}

fn hint_json(h: &HintRecord) -> String {
    format!(
        "{{\"query\": \"{}\", \"path\": \"{}\", \"runs\": {}, \"est_run_pages\": {}, \
         \"hinted\": {}, \"unhinted\": {}}}",
        h.query,
        h.path,
        h.runs,
        h.est_run_pages,
        counters_json(&h.hinted),
        counters_json(&h.unhinted)
    )
}

/// Group-commit experiment: the same logged DML workload against two
/// durability configurations differing only in `wal_group_ops`.
struct WalCommitRecord {
    ops: u64,
    per_op_ms: f64,
    per_op_batches: u64,
    batched_ms: f64,
    batched_batches: u64,
    batched_mean_batch: f64,
}

impl WalCommitRecord {
    fn speedup(&self) -> f64 {
        if self.batched_ms > 0.0 {
            self.per_op_ms / self.batched_ms
        } else {
            1.0
        }
    }
}

/// Run `ops` logged inserts (sync every 50, then a final sync) on a
/// durable session whose WAL flushes every `group_ops` appends, and
/// report the device milliseconds the commit path charged.
fn wal_commit_run(group_ops: usize, ops: u64) -> (f64, upi_storage::WalCounters) {
    use std::sync::Arc;
    use upi::TableLayout;
    use upi_storage::{SimDisk, Store};
    use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema, Tuple, TupleId};

    let cfg = DiskConfig {
        wal_group_ops: group_ops,
        ..DiskConfig::default()
    };
    let store = Store::new(Arc::new(SimDisk::new(cfg)), 4 << 20);
    let schema = Schema::new(vec![("tag", FieldKind::U64), ("attr", FieldKind::Discrete)]);
    let mut db = upi_query::UncertainDb::create(
        store.clone(),
        "commit",
        schema,
        1,
        TableLayout::Upi(UpiConfig::default()),
    )
    .unwrap();
    db.enable_durability().unwrap();
    let before = store.disk.clock_ms();
    for i in 0..ops {
        let t = Tuple::new(
            TupleId(i),
            0.9,
            vec![
                Field::Certain(Datum::U64(i)),
                Field::Discrete(DiscretePmf::new(vec![(i % 32, 0.7), (32 + i % 7, 0.2)])),
            ],
        );
        db.insert_tuple(&t).unwrap();
        if (i + 1) % 50 == 0 {
            db.sync_wal().unwrap();
        }
    }
    db.sync_wal().unwrap();
    (store.disk.clock_ms() - before, db.table().wal_counters())
}

fn wal_commit_experiment() -> WalCommitRecord {
    let ops = 600;
    let (per_op_ms, per_op) = wal_commit_run(1, ops);
    let (batched_ms, batched) = wal_commit_run(32, ops);
    WalCommitRecord {
        ops,
        per_op_ms,
        per_op_batches: per_op.batches,
        batched_ms,
        batched_batches: batched.batches,
        batched_mean_batch: batched.mean_batch(),
    }
}

/// Mirror a refit model's per-kind scales into the metrics registry
/// (what `UncertainDb::recalibrate` does for a session).
fn record_refit_scales(metrics: &mut MetricsRegistry, model: &CostModel) {
    let mut scales = [1.0f64; N_PATH_KINDS];
    for k in PathKind::ALL {
        scales[k.index()] = model.scale(k);
    }
    metrics.record_refit(scales);
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    cold: &[CaseRecord],
    calibrated: &[CaseRecord],
    cold_worst: f64,
    cal_worst: f64,
    blocks: &[(String, CostModel, CalibrationStore)],
    hint: &HintRecord,
    frac: &HintRecord,
    wal: &WalCommitRecord,
) {
    let json_path = std::env::var("UPI_BENCH_PLANNER_JSON").unwrap_or_else(|_| {
        std::env::var("CARGO_MANIFEST_DIR")
            .map(|d| format!("{d}/../../BENCH_planner.json"))
            .unwrap_or_else(|_| "BENCH_planner.json".to_string())
    });
    assert_eq!(cold.len(), calibrated.len());
    let mut json = String::from("{\n  \"cases\": [\n");
    for (i, (raw, cal)) in cold.iter().zip(calibrated).enumerate() {
        assert_eq!(raw.name, cal.name);
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"chosen\": \"{}\", \"chosen_ms\": {:.3}, \
             \"best_forced\": \"{}\", \"best_forced_ms\": {:.3}, \"ratio\": {:.4}, \
             \"cold_chosen\": \"{}\", \"cold_ratio\": {:.4}}}{}\n",
            cal.name,
            cal.chosen,
            cal.chosen_ms,
            cal.best_forced,
            cal.best_forced_ms,
            cal.ratio(),
            raw.chosen,
            raw.ratio(),
            if i + 1 < cold.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"summary\": {{\"worst_chosen_vs_best_forced\": {:.4}, \"within_10pct\": {}, \
         \"cold_worst\": {:.4}}},\n",
        cal_worst,
        cal_worst <= CAL_GATE,
        cold_worst
    ));
    json.push_str("  \"calibration\": [\n");
    for (b, (name, model, store)) in blocks.iter().enumerate() {
        json.push_str(&format!("    {{\"setup\": \"{name}\", \"scales\": {{"));
        for (i, kind) in PathKind::ALL.iter().enumerate() {
            json.push_str(&format!(
                "{}\"{}\": {{\"scale\": {:.4}, \"samples\": {}}}",
                if i == 0 { "" } else { ", " },
                kind.label(),
                model.scale(*kind),
                store.len(*kind)
            ));
        }
        json.push_str(&format!(
            "}}}}{}\n",
            if b + 1 < blocks.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"prefetch_hint\": {},\n", hint_json(hint)));
    json.push_str(&format!("  \"fractured_hint\": {},\n", hint_json(frac)));
    json.push_str(&format!(
        "  \"wal_group_commit\": {{\"ops\": {}, \"per_op\": {{\"device_ms\": {:.3}, \
         \"batches\": {}}}, \"batched\": {{\"device_ms\": {:.3}, \"batches\": {}, \
         \"mean_batch\": {:.2}}}, \"speedup\": {:.3}}}\n}}\n",
        wal.ops,
        wal.per_op_ms,
        wal.per_op_batches,
        wal.batched_ms,
        wal.batched_batches,
        wal.batched_mean_batch,
        wal.speedup()
    ));
    std::fs::write(&json_path, json).expect("write BENCH_planner.json");
    eprintln!("[json] wrote {json_path}");
}

fn main() {
    let disk_cfg = DiskConfig::default();
    let mut cold_records: Vec<CaseRecord> = Vec::new();
    let mut cal_records: Vec<CaseRecord> = Vec::new();
    // One model + sample store per figure setup: each is its own table
    // (and its own simulated machine), exactly like one `UncertainDb`
    // session calibrating itself.
    let mut blocks: Vec<(String, CostModel, CalibrationStore)> = Vec::new();
    // One registry across the whole bench: every chosen execution and
    // every refit pass lands here, snapshotted as BENCH_metrics.json.
    let mut metrics = MetricsRegistry::new();
    let hint_record;
    let fractured_hint_record;

    banner(
        "Planner",
        "planner-chosen plan vs every forced access path (Queries 1-5), cold then calibrated",
        "calibrated chosen within 10% of the best forced path at every point",
    );

    // --- Query 1 (fig04): point PTQ on the clustered attribute ---------
    {
        let s = author_setup(0.1);
        let mit = s.data.popular_institution();
        let catalog = Catalog::new(s.store.disk.config())
            .with_upi(&s.upi)
            .with_heap(&s.heap)
            .with_pii(&s.pii)
            .with_pool(&s.store.pool);
        let points: Vec<(String, PtqQuery)> = [1, 3, 5, 7, 9]
            .iter()
            .map(|&qt10| {
                let qt = qt10 as f64 / 10.0;
                (
                    format!("q1@{qt:.1}"),
                    PtqQuery::eq(author_fields::INSTITUTION, mit).with_qt(qt),
                )
            })
            .collect();
        let mut model = CostModel::from_disk(&disk_cfg);
        let mut cal_store = CalibrationStore::new();
        header(&["query1(cold)", "chosen", "chosen_ms", "forced..."]);
        for (label, q) in &points {
            cold_records.push(run_point(
                label,
                q,
                &catalog,
                &s.store,
                Some(&mut cal_store),
                COLD_GATE,
                &mut metrics,
            ));
        }
        model.refit(&cal_store);
        record_refit_scales(&mut metrics, &model);
        let calibrated = Catalog::new(s.store.disk.config())
            .with_cost_model(model)
            .with_upi(&s.upi)
            .with_heap(&s.heap)
            .with_pii(&s.pii)
            .with_pool(&s.store.pool);
        header(&["query1(calibrated)", "chosen", "chosen_ms", "forced..."]);
        for (label, q) in &points {
            cal_records.push(run_point(
                label,
                q,
                &calibrated,
                &s.store,
                None,
                CAL_GATE,
                &mut metrics,
            ));
        }
        blocks.push(("q1".to_string(), model, cal_store));

        // --- Prefetch hint win on the same setup -----------------------
        header(&["hint", "runs", "hinted", "unhinted"]);
        let q = PtqQuery::range(author_fields::INSTITUTION, 0, 40).with_qt(0.2);
        hint_record = run_hint_experiment(
            &q,
            "range[0,40]@0.2",
            &AccessPath::UpiRange { fractured: false },
            &catalog,
            &s.store,
        );

        // --- Fractured-hint win: the same rows as main + two fractures,
        //     so the range merge runs over three components and the plan
        //     carries one hint per component ----------------------------
        let mut fractured = FracturedUpi::create(
            s.store.clone(),
            "author.frac",
            author_fields::INSTITUTION,
            &[],
            FracturedConfig {
                upi: UpiConfig {
                    cutoff: 0.1,
                    ..UpiConfig::default()
                },
                buffer_ops: 0,
            },
        )
        .unwrap();
        let n = s.data.authors.len();
        fractured
            .load_initial(&s.data.authors[..n * 3 / 5])
            .unwrap();
        for t in &s.data.authors[n * 3 / 5..n * 4 / 5] {
            fractured.insert(t.clone()).unwrap();
        }
        fractured.flush().unwrap();
        for t in &s.data.authors[n * 4 / 5..] {
            fractured.insert(t.clone()).unwrap();
        }
        fractured.flush().unwrap();
        assert_eq!(fractured.n_fractures(), 2);
        let frac_catalog = Catalog::new(s.store.disk.config())
            .with_fractured(&fractured)
            .with_pool(&s.store.pool);
        fractured_hint_record = run_hint_experiment(
            &q,
            "fractured-range[0,40]@0.2",
            &AccessPath::UpiRange { fractured: true },
            &frac_catalog,
            &s.store,
        );
    }

    // --- Queries 2-3 (fig05/fig06): aggregates, primary + secondary ----
    {
        let s = publication_setup(0.1);
        let mit = s.data.popular_institution();
        let japan = s.data.query_country();
        let catalog = Catalog::new(s.store.disk.config())
            .with_upi(&s.upi)
            .with_heap(&s.heap)
            .with_pii(&s.pii_inst)
            .with_pii(&s.pii_country);
        let mut points: Vec<(String, PtqQuery)> = Vec::new();
        for qt10 in [1, 5, 9] {
            let qt = qt10 as f64 / 10.0;
            points.push((
                format!("q2@{qt:.1}"),
                PtqQuery::eq(publication_fields::INSTITUTION, mit)
                    .with_qt(qt)
                    .with_group_count(publication_fields::JOURNAL),
            ));
        }
        for qt10 in [1, 5, 9] {
            let qt = qt10 as f64 / 10.0;
            points.push((
                format!("q3@{qt:.1}"),
                PtqQuery::eq(publication_fields::COUNTRY, japan)
                    .with_qt(qt)
                    .with_group_count(publication_fields::JOURNAL),
            ));
        }
        let mut model = CostModel::from_disk(&disk_cfg);
        let mut cal_store = CalibrationStore::new();
        header(&["query2-3(cold)", "chosen", "chosen_ms", "forced..."]);
        for (label, q) in &points {
            cold_records.push(run_point(
                label,
                q,
                &catalog,
                &s.store,
                Some(&mut cal_store),
                COLD_GATE,
                &mut metrics,
            ));
        }
        // One calibration pass over this setup's observations — the pass
        // the q3@0.5 crossover gate below rides on.
        model.refit(&cal_store);
        record_refit_scales(&mut metrics, &model);
        let calibrated = Catalog::new(s.store.disk.config())
            .with_cost_model(model)
            .with_upi(&s.upi)
            .with_heap(&s.heap)
            .with_pii(&s.pii_inst)
            .with_pii(&s.pii_country);
        header(&["query2-3(calibrated)", "chosen", "chosen_ms", "forced..."]);
        for (label, q) in &points {
            cal_records.push(run_point(
                label,
                q,
                &calibrated,
                &s.store,
                None,
                CAL_GATE,
                &mut metrics,
            ));
        }
        blocks.push(("q2-q3".to_string(), model, cal_store));
    }

    // --- Queries 4-5 (fig07/fig08): continuous circle + segment --------
    {
        let s = cartel_setup();
        let (qx, qy) = s.data.query_center();
        let seg = s.data.busy_segment();
        let catalog = Catalog::new(s.store.disk.config())
            .with_cupi(&s.cupi)
            .with_cont_secondary(&s.seg_on_cupi)
            .with_heap(&s.heap)
            .with_utree(&s.utree)
            .with_pii(&s.seg_on_heap);
        let mut points: Vec<(String, PtqQuery)> = Vec::new();
        for step in [2, 5, 10] {
            let radius = 100.0 * step as f64;
            points.push((
                format!("q4@r{radius:.0}"),
                PtqQuery::circle(observation_fields::LOCATION, qx, qy, radius).with_qt(0.5),
            ));
        }
        for qt10 in [1, 4, 8] {
            let qt = qt10 as f64 / 10.0;
            points.push((
                format!("q5@{qt:.1}"),
                PtqQuery::eq(observation_fields::SEGMENT, seg).with_qt(qt),
            ));
        }
        let mut model = CostModel::from_disk(&disk_cfg);
        let mut cal_store = CalibrationStore::new();
        header(&["query4-5(cold)", "chosen", "chosen_ms", "forced..."]);
        for (label, q) in &points {
            cold_records.push(run_point(
                label,
                q,
                &catalog,
                &s.store,
                Some(&mut cal_store),
                COLD_GATE,
                &mut metrics,
            ));
        }
        model.refit(&cal_store);
        record_refit_scales(&mut metrics, &model);
        // Same registration as the cold pass (no pool): cold vs.
        // calibrated must differ only in the pricing model, never in
        // the execution protocol.
        let calibrated = Catalog::new(s.store.disk.config())
            .with_cost_model(model)
            .with_cupi(&s.cupi)
            .with_cont_secondary(&s.seg_on_cupi)
            .with_heap(&s.heap)
            .with_utree(&s.utree)
            .with_pii(&s.seg_on_heap);
        header(&["query4-5(calibrated)", "chosen", "chosen_ms", "forced..."]);
        for (label, q) in &points {
            cal_records.push(run_point(
                label,
                q,
                &calibrated,
                &s.store,
                None,
                CAL_GATE,
                &mut metrics,
            ));
        }
        blocks.push(("q4-q5".to_string(), model, cal_store));
    }

    let cold_worst = cold_records
        .iter()
        .map(CaseRecord::ratio)
        .fold(1.0, f64::max);
    let cal_worst = cal_records
        .iter()
        .map(CaseRecord::ratio)
        .fold(1.0, f64::max);

    // The headline acceptance: the q3@0.5 crossover the concurrent-run
    // tracker broke (cold ≈ 1.10x at scale 0.05) must close to ≤ 1.05x
    // after the calibration pass.
    let q3 = cal_records
        .iter()
        .find(|r| r.name == "q3@0.5")
        .expect("q3@0.5 must be measured");
    if (scale() - 0.05).abs() < 1e-9 {
        assert!(
            q3.ratio() <= 1.05,
            "q3@0.5 calibrated ratio {:.3}x must be <= 1.05x at scale 0.05",
            q3.ratio()
        );
    }

    // Group commit: the same 600-insert logged workload, per-op commit
    // (wal_group_ops=1, one fsync-priced barrier per append) vs batched
    // (32). Same records end up durable either way; only the barrier
    // count — and therefore the commit-path device time — changes.
    let wal = wal_commit_experiment();
    summary(
        "planner.wal_group_commit",
        format!(
            "{:.0} ms per-op ({} batches) vs {:.0} ms batched ({} batches, mean {:.1}) = {:.1}x",
            wal.per_op_ms,
            wal.per_op_batches,
            wal.batched_ms,
            wal.batched_batches,
            wal.batched_mean_batch,
            wal.speedup()
        ),
    );
    assert!(
        wal.batched_ms < wal.per_op_ms * 0.8,
        "group commit must materially beat per-op commit on the same \
         workload: {:.1} ms batched vs {:.1} ms per-op",
        wal.batched_ms,
        wal.per_op_ms
    );

    let hint = hint_record;
    let frac_hint = fractured_hint_record;
    write_json(
        &cold_records,
        &cal_records,
        cold_worst,
        cal_worst,
        &blocks,
        &hint,
        &frac_hint,
        &wal,
    );
    // Session-metrics snapshot: per-kind query counts and device-ms
    // quantiles, pool ratios, refit count, misestimation quantiles.
    let snap = metrics.snapshot();
    let metrics_path = std::env::var("UPI_BENCH_METRICS_JSON").unwrap_or_else(|_| {
        std::env::var("CARGO_MANIFEST_DIR")
            .map(|d| format!("{d}/../../BENCH_metrics.json"))
            .unwrap_or_else(|_| "BENCH_metrics.json".to_string())
    });
    std::fs::write(&metrics_path, snap.to_json()).expect("write BENCH_metrics.json");
    eprintln!("[json] wrote {metrics_path}");
    summary("planner.metrics_queries", snap.queries);
    summary("planner.metrics_refits", snap.refits);

    summary(
        "planner.worst_chosen_vs_best_forced",
        format!("{cal_worst:.3}x (calibrated; cold {cold_worst:.3}x)"),
    );
    summary("planner.within_10pct", cal_worst <= CAL_GATE);
    summary(
        "planner.q3_crossover",
        format!(
            "cold {:.3}x -> calibrated {:.3}x",
            {
                cold_records
                    .iter()
                    .find(|r| r.name == "q3@0.5")
                    .map(CaseRecord::ratio)
                    .unwrap_or(1.0)
            },
            q3.ratio()
        ),
    );
    for (name, model, store) in &blocks {
        summary(
            &format!("planner.calibration_scales.{name}"),
            PathKind::ALL
                .iter()
                .filter(|k| store.len(**k) > 0)
                .map(|k| format!("{}={:.2}({})", k.label(), model.scale(*k), store.len(*k)))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    summary(
        "planner.hint_miss_reduction",
        format!(
            "{:.1}x ({} -> {} demand misses on {})",
            hint.unhinted.misses as f64 / hint.hinted.misses.max(1) as f64,
            hint.unhinted.misses,
            hint.hinted.misses,
            hint.query
        ),
    );
    summary(
        "planner.fractured_hint_miss_reduction",
        format!(
            "{:.1}x ({} -> {} demand misses over {} hinted runs on {})",
            frac_hint.unhinted.misses as f64 / frac_hint.hinted.misses.max(1) as f64,
            frac_hint.unhinted.misses,
            frac_hint.hinted.misses,
            frac_hint.runs,
            frac_hint.query
        ),
    );
}
