//! Session metrics registry: monotonic counters, gauges, and fixed-bucket
//! log-scale latency histograms keyed by [`PathKind`].
//!
//! An [`UncertainDb`](crate::UncertainDb) owns one [`MetricsRegistry`];
//! every query routed through the session records its chosen path kind,
//! attributed device milliseconds, result rows, and buffer-pool delta.
//! [`MetricsRegistry::snapshot`] freezes the registry into a
//! [`MetricsSnapshot`] — a plain value with a hand-rolled JSON rendering
//! (the workspace `serde` shim derives are structural no-ops) that the
//! benches emit as `BENCH_metrics.json` and `examples/metrics_dump`
//! prints.
//!
//! All latencies are **simulated device milliseconds** (the attributed
//! per-query clock), so the histograms are deterministic across runs.

use serde::Serialize;
use upi_storage::{PoolCounters, WalCounters};

use crate::cost::{PathKind, N_PATH_KINDS};

/// Number of log2 buckets: values from `2^-16` ms up to `2^17` ms; values
/// outside clamp into the edge buckets.
const HIST_BUCKETS: usize = 34;
/// Exponent of the lowest bucket's lower bound.
const HIST_MIN_EXP: i32 = -16;

/// Fixed-bucket log2-scale histogram (power-of-two bucket bounds).
///
/// Allocation-free: 34 fixed `u64` buckets. Quantiles are resolved to the
/// upper bound of the bucket containing the requested rank, which bounds
/// the relative error at 2x — adequate for p50/p95/p99 trend lines.
#[derive(Debug, Clone, Copy)]
pub struct Log2Histogram {
    counts: [u64; HIST_BUCKETS],
    total: u64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram {
            counts: [0; HIST_BUCKETS],
            total: 0,
        }
    }
}

impl Log2Histogram {
    fn bucket(v: f64) -> usize {
        if v <= 0.0 || !v.is_finite() {
            return 0;
        }
        let idx = v.log2().floor() as i64 - HIST_MIN_EXP as i64;
        idx.clamp(0, HIST_BUCKETS as i64 - 1) as usize
    }

    /// Upper bound of bucket `i` (`2^(i + HIST_MIN_EXP + 1)`).
    fn bucket_upper(i: usize) -> f64 {
        (2.0f64).powi(i as i32 + HIST_MIN_EXP + 1)
    }

    /// Record one observation.
    pub fn record(&mut self, v: f64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Quantile `q` in `[0, 1]`, resolved to the containing bucket's
    /// upper bound; `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(HIST_BUCKETS - 1)
    }
}

/// Per-[`PathKind`] slice of the registry.
#[derive(Debug, Clone, Copy, Default)]
struct KindMetrics {
    queries: u64,
    device_ms: Log2Histogram,
}

/// Session-owned metrics: counters, gauges, and latency histograms.
///
/// Updated by the session on every query; never reset (monotonic), so a
/// snapshot is a consistent prefix of the session's history.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    kinds: [KindMetrics; N_PATH_KINDS],
    /// `observed_ms / estimated_ms` per query — the misestimation ratio.
    misest: Log2Histogram,
    /// Sum of per-query buffer-pool deltas (only queries that saw a pool).
    io: PoolCounters,
    /// Total rows returned to consumers.
    rows: u64,
    /// Queries whose pool delta included eviction-flush errors.
    flush_error_queries: u64,
    /// Completed `recalibrate()` passes.
    refits: u64,
    /// Scatter-gather queries that skipped this shard via its pruning
    /// statistics (no plan, no cursor, zero pages).
    shards_skipped: u64,
    /// Latest calibration scale per kind (gauge).
    scales: [f64; N_PATH_KINDS],
    /// Latest WAL counters of the session's table (gauge: the WAL keeps
    /// its own monotonic totals; the session mirrors them on snapshot).
    wal: WalCounters,
    /// Crash recoveries this session performed.
    recoveries: u64,
    /// Injected transient faults survived across those recoveries.
    faults_survived: u64,
    /// Incremental maintenance steps committed (`maintenance_tick`).
    merge_steps: u64,
    /// Components (main + fractures) compacted away across those steps.
    components_compacted: u64,
    /// Attributed device ms spent executing maintenance steps.
    maintenance_device_ms: f64,
    /// Attributed device ms spent executing queries (the denominator the
    /// maintenance budget is weighed against).
    query_device_ms: f64,
}

impl MetricsRegistry {
    /// Fresh registry with unit calibration scales.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            scales: [1.0; N_PATH_KINDS],
            ..MetricsRegistry::default()
        }
    }

    /// Record one executed query.
    pub fn record_query(
        &mut self,
        kind: PathKind,
        est_ms: f64,
        observed_ms: f64,
        rows: u64,
        io: Option<&PoolCounters>,
    ) {
        let k = &mut self.kinds[kind.index()];
        k.queries += 1;
        k.device_ms.record(observed_ms);
        self.query_device_ms += observed_ms.max(0.0);
        if est_ms > 0.0 {
            self.misest.record(observed_ms / est_ms);
        }
        self.rows += rows;
        if let Some(d) = io {
            self.io += d;
            if d.flush_errors > 0 {
                self.flush_error_queries += 1;
            }
        }
    }

    /// Record that a scatter-gather query pruned this shard: its
    /// statistics proved no qualifying row, so the shard was never opened.
    pub fn record_shard_skip(&mut self) {
        self.shards_skipped += 1;
    }

    /// Record a completed calibration refit and the resulting scales.
    pub fn record_refit(&mut self, scales: [f64; N_PATH_KINDS]) {
        self.refits += 1;
        self.scales = scales;
    }

    /// Update the calibration-scale gauges without counting a refit.
    pub fn set_scales(&mut self, scales: [f64; N_PATH_KINDS]) {
        self.scales = scales;
    }

    /// Mirror the table's WAL counters (gauge semantics).
    pub fn set_wal(&mut self, wal: WalCounters) {
        self.wal = wal;
    }

    /// Record one completed crash recovery and the transient faults the
    /// crashed incarnation had survived.
    pub fn record_recovery(&mut self, faults_survived: u64) {
        self.recoveries += 1;
        self.faults_survived += faults_survived;
    }

    /// Record one committed incremental maintenance step: how many
    /// components it compacted into one and the device ms it spent.
    pub fn record_maintenance(&mut self, components: u64, device_ms: f64) {
        self.merge_steps += 1;
        self.components_compacted += components;
        self.maintenance_device_ms += device_ms.max(0.0);
    }

    /// Total queries recorded so far (all path kinds).
    pub fn total_queries(&self) -> u64 {
        self.kinds.iter().map(|k| k.queries).sum()
    }

    /// Queries recorded for one path kind.
    pub fn kind_queries(&self, kind: PathKind) -> u64 {
        self.kinds[kind.index()].queries
    }

    /// Freeze the registry into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let kinds = PathKind::ALL
            .iter()
            .map(|&kind| {
                let k = &self.kinds[kind.index()];
                KindSnapshot {
                    kind: kind.label().to_string(),
                    queries: k.queries,
                    device_ms_p50: k.device_ms.quantile(0.50),
                    device_ms_p95: k.device_ms.quantile(0.95),
                    device_ms_p99: k.device_ms.quantile(0.99),
                    calibration_scale: self.scales[kind.index()],
                }
            })
            .collect();
        let io = &self.io;
        let lookups = io.hits + io.misses;
        MetricsSnapshot {
            queries: self.kinds.iter().map(|k| k.queries).sum(),
            rows: self.rows,
            kinds,
            pool_hit_ratio: ratio(io.hits, lookups),
            readahead_efficiency: ratio(io.readahead_hits, io.readahead),
            readahead_wasted: io.readahead_wasted,
            flush_errors: io.flush_errors,
            flush_retries: io.flush_retries,
            flush_error_queries: self.flush_error_queries,
            refits: self.refits,
            shards_skipped: self.shards_skipped,
            misest_p50: self.misest.quantile(0.50),
            misest_p95: self.misest.quantile(0.95),
            wal_records: self.wal.records,
            wal_batches: self.wal.batches,
            wal_mean_batch: self.wal.mean_batch(),
            wal_retries: self.wal.retries,
            recoveries: self.recoveries,
            faults_survived: self.faults_survived,
            merge_steps: self.merge_steps,
            components_compacted: self.components_compacted,
            maintenance_device_ms: self.maintenance_device_ms,
            query_device_ms: self.query_device_ms,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Frozen per-kind metrics.
#[derive(Debug, Clone, Serialize)]
pub struct KindSnapshot {
    /// Path-kind label.
    pub kind: String,
    /// Queries that chose this kind.
    pub queries: u64,
    /// Median attributed device ms (log2-bucket upper bound).
    pub device_ms_p50: f64,
    /// 95th percentile attributed device ms.
    pub device_ms_p95: f64,
    /// 99th percentile attributed device ms.
    pub device_ms_p99: f64,
    /// Current calibration scale applied to this kind's dominant term.
    pub calibration_scale: f64,
}

/// Frozen registry state; [`to_json`](Self::to_json) renders it (the
/// `serde` derive is the workspace shim, so JSON is hand-rolled).
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    /// Total queries recorded.
    pub queries: u64,
    /// Total rows returned.
    pub rows: u64,
    /// Per-path-kind counters and latency quantiles.
    pub kinds: Vec<KindSnapshot>,
    /// `hits / (hits + misses)` over all recorded pool deltas.
    pub pool_hit_ratio: f64,
    /// `readahead_hits / readahead` — fraction of prefetched pages used.
    pub readahead_efficiency: f64,
    /// Prefetched pages evicted before any use.
    pub readahead_wasted: u64,
    /// Eviction write-back failures observed across queries.
    pub flush_errors: u64,
    /// Transient write-back faults absorbed by retry (no data loss).
    pub flush_retries: u64,
    /// Queries whose I/O delta included flush errors.
    pub flush_error_queries: u64,
    /// Completed calibration refits.
    pub refits: u64,
    /// Times a scatter-gather query pruned this shard without opening it.
    pub shards_skipped: u64,
    /// Median `observed/estimated` ms ratio (1.0 = perfectly priced).
    pub misest_p50: f64,
    /// 95th percentile misestimation ratio.
    pub misest_p95: f64,
    /// Logical WAL records appended so far.
    pub wal_records: u64,
    /// Group-commit batches flushed.
    pub wal_batches: u64,
    /// Mean records per flushed batch (the group-commit amortization).
    pub wal_mean_batch: f64,
    /// Transient WAL write faults absorbed by retry.
    pub wal_retries: u64,
    /// Crash recoveries performed by this session.
    pub recoveries: u64,
    /// Injected transient faults survived across recoveries.
    pub faults_survived: u64,
    /// Incremental maintenance steps committed.
    pub merge_steps: u64,
    /// Components compacted away across those steps.
    pub components_compacted: u64,
    /// Attributed device ms spent on maintenance steps.
    pub maintenance_device_ms: f64,
    /// Attributed device ms spent on queries.
    pub query_device_ms: f64,
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

impl MetricsSnapshot {
    /// Render as a JSON object (stable key order, 6-decimal floats).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"queries\": {},\n", self.queries));
        s.push_str(&format!("  \"rows\": {},\n", self.rows));
        s.push_str("  \"kinds\": [\n");
        for (i, k) in self.kinds.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kind\": \"{}\", \"queries\": {}, \"device_ms_p50\": {}, \"device_ms_p95\": {}, \"device_ms_p99\": {}, \"calibration_scale\": {}}}{}\n",
                k.kind,
                k.queries,
                json_f64(k.device_ms_p50),
                json_f64(k.device_ms_p95),
                json_f64(k.device_ms_p99),
                json_f64(k.calibration_scale),
                if i + 1 < self.kinds.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"pool_hit_ratio\": {},\n",
            json_f64(self.pool_hit_ratio)
        ));
        s.push_str(&format!(
            "  \"readahead_efficiency\": {},\n",
            json_f64(self.readahead_efficiency)
        ));
        s.push_str(&format!(
            "  \"readahead_wasted\": {},\n",
            self.readahead_wasted
        ));
        s.push_str(&format!("  \"flush_errors\": {},\n", self.flush_errors));
        s.push_str(&format!("  \"flush_retries\": {},\n", self.flush_retries));
        s.push_str(&format!(
            "  \"flush_error_queries\": {},\n",
            self.flush_error_queries
        ));
        s.push_str(&format!("  \"refits\": {},\n", self.refits));
        s.push_str(&format!("  \"shards_skipped\": {},\n", self.shards_skipped));
        s.push_str(&format!(
            "  \"misest_p50\": {},\n",
            json_f64(self.misest_p50)
        ));
        s.push_str(&format!(
            "  \"misest_p95\": {},\n",
            json_f64(self.misest_p95)
        ));
        s.push_str(&format!("  \"wal_records\": {},\n", self.wal_records));
        s.push_str(&format!("  \"wal_batches\": {},\n", self.wal_batches));
        s.push_str(&format!(
            "  \"wal_mean_batch\": {},\n",
            json_f64(self.wal_mean_batch)
        ));
        s.push_str(&format!("  \"wal_retries\": {},\n", self.wal_retries));
        s.push_str(&format!("  \"recoveries\": {},\n", self.recoveries));
        s.push_str(&format!(
            "  \"faults_survived\": {},\n",
            self.faults_survived
        ));
        s.push_str(&format!("  \"merge_steps\": {},\n", self.merge_steps));
        s.push_str(&format!(
            "  \"components_compacted\": {},\n",
            self.components_compacted
        ));
        s.push_str(&format!(
            "  \"maintenance_device_ms\": {},\n",
            json_f64(self.maintenance_device_ms)
        ));
        s.push_str(&format!(
            "  \"query_device_ms\": {}\n",
            json_f64(self.query_device_ms)
        ));
        s.push('}');
        s
    }

    /// Compact human rendering (one line per kind plus totals).
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "queries={} rows={} refits={} pool-hit={:.1}% ra-eff={:.1}% ra-wasted={} flush-errors={}\n",
            self.queries,
            self.rows,
            self.refits,
            100.0 * self.pool_hit_ratio,
            100.0 * self.readahead_efficiency,
            self.readahead_wasted,
            self.flush_errors,
        ));
        s.push_str(&format!(
            "misestimation ratio p50={:.3} p95={:.3}\n",
            self.misest_p50, self.misest_p95
        ));
        if self.shards_skipped > 0 {
            s.push_str(&format!(
                "shards skipped by pruning={}\n",
                self.shards_skipped
            ));
        }
        if self.merge_steps > 0 {
            s.push_str(&format!(
                "maintenance steps={} components-compacted={} device-ms={:.1} (queries device-ms={:.1})\n",
                self.merge_steps,
                self.components_compacted,
                self.maintenance_device_ms,
                self.query_device_ms,
            ));
        }
        if self.wal_records > 0 || self.recoveries > 0 {
            s.push_str(&format!(
                "wal records={} batches={} mean-batch={:.1} retries={} flush-retries={} recoveries={} faults-survived={}\n",
                self.wal_records,
                self.wal_batches,
                self.wal_mean_batch,
                self.wal_retries,
                self.flush_retries,
                self.recoveries,
                self.faults_survived,
            ));
        }
        for k in &self.kinds {
            if k.queries == 0 {
                continue;
            }
            s.push_str(&format!(
                "  {:<24} queries={:<5} device_ms p50={:<10.3} p95={:<10.3} p99={:<10.3} scale={:.3}\n",
                k.kind, k.queries, k.device_ms_p50, k.device_ms_p95, k.device_ms_p99, k.calibration_scale,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_resolve_to_bucket_upper_bounds() {
        let mut h = Log2Histogram::default();
        for _ in 0..90 {
            h.record(1.5); // bucket [1, 2)
        }
        for _ in 0..10 {
            h.record(100.0); // bucket [64, 128)
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), 2.0);
        assert_eq!(h.quantile(0.90), 2.0);
        assert_eq!(h.quantile(0.95), 128.0);
        assert_eq!(h.quantile(0.99), 128.0);
    }

    #[test]
    fn histogram_clamps_degenerate_values() {
        let mut h = Log2Histogram::default();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(1e30);
        assert_eq!(h.count(), 4);
        // Everything landed in the edge buckets without panicking.
        assert!(h.quantile(0.0) > 0.0);
    }

    #[test]
    fn registry_accumulates_and_snapshots() {
        let mut r = MetricsRegistry::new();
        let io = PoolCounters {
            hits: 8,
            misses: 2,
            readahead: 4,
            readahead_hits: 3,
            flush_errors: 1,
            ..PoolCounters::default()
        };
        r.record_query(PathKind::PointMerge, 10.0, 12.0, 5, Some(&io));
        r.record_query(PathKind::PointMerge, 10.0, 45.0, 3, None);
        r.record_query(PathKind::Scan, 100.0, 90.0, 1000, None);
        r.record_refit([2.0; N_PATH_KINDS]);
        let snap = r.snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.rows, 1008);
        assert_eq!(snap.flush_error_queries, 1);
        assert_eq!(snap.flush_errors, 1);
        assert_eq!(snap.refits, 1);
        assert!((snap.pool_hit_ratio - 0.8).abs() < 1e-12);
        assert!((snap.readahead_efficiency - 0.75).abs() < 1e-12);
        let upi = snap.kinds.iter().find(|k| k.queries == 2).unwrap();
        assert!(upi.device_ms_p50 >= 12.0);
        assert!((upi.calibration_scale - 2.0).abs() < 1e-12);
        let json = snap.to_json();
        assert!(json.contains("\"queries\": 3"));
        assert!(json.contains("\"pool_hit_ratio\": 0.800000"));
        assert!(json.ends_with('}'));
    }
}
