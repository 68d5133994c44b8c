//! The measuring side of the closed loop: one client, one op at a time.
//!
//! A [`Recorder`] times every op on the host clock and brackets it with
//! snapshots of the simulated device, keeps a fixed-length **counted
//! window** at the start of the run (so device and count metrics repeat
//! exactly for a seed however long the host lets the run go on), and in a
//! traced run records spans around every second op.
//!
//! Four kinds of section touch the store:
//!
//! * [`op`](Recorder::op) — a client request: host-timed, one latency
//!   sample, its device delta attributed to it;
//! * [`background`](Recorder::background) — work the system does between
//!   requests (maintenance tick, checkpoint, WAL sync, reboot, recovery):
//!   host-timed into the phase total, device counted, no latency sample;
//! * [`protocol`](Recorder::protocol) — the benchmark's own `go_cold`:
//!   not host-timed, but the write-back it forces is real device work the
//!   earlier ops deferred, so its device delta counts;
//! * [`excluded`](Recorder::excluded) — oracle scans and probes: neither
//!   timed nor counted.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use upi::CursorStats;
use upi_query::{PathKind, QueryOutput};
use upi_storage::{IoStats, PoolCounters, Store};

use crate::registry::{class_metric, kind_share_name, LEDGER_CLASSES};
use crate::stats::{self, mean, percentile, ratio};
use crate::trace::SpanLog;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Quick check: op counts divided by 50, one set-up, volume
    /// self-checks skipped.
    pub smoke: bool,
    pub out_dir: std::path::PathBuf,
}

/// Op classes; the name doubles as the op's span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Point,
    TopK,
    Range,
    Secondary,
    Insert,
    Delete,
    Update,
    Circle,
    Segment,
}

impl Class {
    pub const ALL: [Class; 9] = [
        Class::Point,
        Class::TopK,
        Class::Range,
        Class::Secondary,
        Class::Insert,
        Class::Delete,
        Class::Update,
        Class::Circle,
        Class::Segment,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::TopK => "topk",
            Class::Range => "range",
            Class::Secondary => "secondary",
            Class::Insert => "insert",
            Class::Delete => "delete",
            Class::Update => "update",
            Class::Circle => "circle",
            Class::Segment => "segment",
        }
    }

    pub fn is_query(self) -> bool {
        !matches!(self, Class::Insert | Class::Delete | Class::Update)
    }
}

/// Device-side counters summed over a workload's stores.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Dev {
    pub io: IoStats,
    pub pool: PoolCounters,
}

fn add_io(acc: &mut IoStats, b: &IoStats) {
    acc.page_reads += b.page_reads;
    acc.page_writes += b.page_writes;
    acc.seeks += b.seeks;
    acc.bytes_read += b.bytes_read;
    acc.bytes_written += b.bytes_written;
    acc.file_opens += b.file_opens;
    acc.seek_ms += b.seek_ms;
    acc.read_ms += b.read_ms;
    acc.write_ms += b.write_ms;
    acc.init_ms += b.init_ms;
}

fn add_pool(acc: &mut PoolCounters, b: &PoolCounters) {
    acc.hits += b.hits;
    acc.misses += b.misses;
    acc.evictions += b.evictions;
    acc.readahead += b.readahead;
    acc.readahead_hits += b.readahead_hits;
    acc.hinted_runs += b.hinted_runs;
    acc.flush_errors += b.flush_errors;
    acc.flush_retries += b.flush_retries;
    acc.readahead_wasted += b.readahead_wasted;
}

fn io_sum(stores: &[Store]) -> IoStats {
    let mut acc = IoStats::default();
    for s in stores {
        add_io(&mut acc, &s.disk.stats());
    }
    acc
}

impl Dev {
    pub fn snapshot(stores: &[Store]) -> Dev {
        let mut pool = PoolCounters::default();
        for s in stores {
            add_pool(&mut pool, &s.pool.counters());
        }
        Dev {
            io: io_sum(stores),
            pool,
        }
    }

    pub fn since(&self, earlier: &Dev) -> Dev {
        Dev {
            io: self.io.since(&earlier.io),
            pool: self.pool.since(&earlier.pool),
        }
    }
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub traced: bool,
    pub in_window: bool,
    pub host_ns: u64,
    /// Simulated device ms the op waited for (max over shards on a
    /// scatter, which the workload writes back through
    /// [`Recorder::last_mut`]).
    pub device_ms: f64,
    pub pages_read: u64,
    pub rows: u64,
    /// The chosen plan's estimate, when the plan was visible.
    pub est_ms: f64,
}

/// Totals of one background span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct BgTotals {
    pub count: u64,
    pub host_ns: u64,
    /// Counted-window share of the device work (exactly repeatable).
    pub window_count: u64,
    pub window_device_ms: f64,
    pub window_bytes_written: u64,
}

/// The counted window, closed.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub ops: u64,
    pub dev: Dev,
    /// Device ms the client waited through: per-op latency plus
    /// background and protocol device time.
    pub latency_ms: f64,
}

/// Space and write volume, taken by the workload when the window closes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Space {
    /// `SimDisk::total_live_bytes()` over the stores.
    pub stored_bytes: u64,
    /// Σ `Tuple::encoded_len()` of live tuples.
    pub live_user_bytes: u64,
    /// Device bytes written during set-up.
    pub setup_bytes_written: u64,
    /// User bytes loaded in set-up plus inserted or updated in the window.
    pub user_bytes_written: u64,
}

/// Metric name → (value, unit), in name order.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Record one metric.
pub fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

/// See the module docs.
pub struct Recorder {
    stores: Vec<Store>,
    trace: bool,
    smoke: bool,
    pub spans: SpanLog,
    pub samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    kill_excluded: u64,
    expect_crash: bool,
    complaints: usize,
    /// Span of the last op, when it was traced.
    last_span: Option<u32>,
    bg: BTreeMap<&'static str, BgTotals>,
    rounds: u64,
    counted_rounds: u64,
    window_start: Dev,
    window_latency_ms: f64,
    window: Option<Window>,
    deadline: Instant,
    // Plan and cursor bookkeeping for the planner / executor ledger.
    plans: u64,
    candidates: u64,
    kinds: [u64; PathKind::ALL.len()],
    cursor: CursorStats,
}

impl Recorder {
    /// `counted_rounds` rounds form the counted window; the run then
    /// continues until `seconds` have passed.
    pub fn new(cfg: &RunCfg, stores: Vec<Store>, counted_rounds: u64) -> Recorder {
        let window_start = Dev::snapshot(&stores);
        Recorder {
            stores,
            trace: cfg.trace,
            smoke: cfg.smoke,
            spans: SpanLog::new(),
            // Sized for the longest run up front: a vector that doubles
            // mid-run makes peak memory depend on how far the host got.
            samples: Vec::with_capacity(1 << 18),
            attempted: 0,
            failed: 0,
            kill_excluded: 0,
            expect_crash: false,
            complaints: 0,
            last_span: None,
            bg: BTreeMap::new(),
            rounds: 0,
            counted_rounds: counted_rounds.max(1),
            window_start,
            window_latency_ms: 0.0,
            window: None,
            deadline: Instant::now() + Duration::from_secs_f64(cfg.seconds),
            plans: 0,
            candidates: 0,
            kinds: [0; PathKind::ALL.len()],
            cursor: CursorStats::default(),
        }
    }

    /// True until the counted window is complete *and* the time is up.
    pub fn keep_going(&self) -> bool {
        self.window.is_none() || Instant::now() < self.deadline
    }

    pub fn window_open(&self) -> bool {
        self.window.is_none()
    }

    pub fn window(&self) -> Option<&Window> {
        self.window.as_ref()
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn kill_excluded(&self) -> u64 {
        self.kill_excluded
    }

    /// The next op's `Err` is the planned kill: exclude it, count it apart.
    pub fn expect_crash(&mut self, on: bool) {
        self.expect_crash = on;
    }

    fn complain(&mut self, what: &str) {
        if self.complaints < 10 {
            eprintln!("FAILED op #{}: {what}", self.attempted);
        }
        self.complaints += 1;
    }

    /// Time one client op. `f` gets the span log when this op is traced
    /// (every second op of a traced run, so the untraced half measures
    /// the tracing overhead on the same mix). Returns `None` when the op
    /// failed — counted in `failed`, or excluded when it is the planned
    /// kill.
    pub fn op<T>(
        &mut self,
        class: Class,
        f: impl FnOnce(Option<&mut SpanLog>) -> Result<T, String>,
    ) -> Option<T> {
        let traced = self.trace && self.attempted.is_multiple_of(2);
        let before = io_sum(&self.stores);
        let span = traced.then(|| {
            self.spans.set_op(self.attempted);
            self.spans.begin(class.name())
        });
        let t0 = Instant::now();
        let result = f(if traced { Some(&mut self.spans) } else { None });
        let host_ns = t0.elapsed().as_nanos() as u64;
        if let Some(id) = span {
            self.spans.end(id);
        }
        self.last_span = span;
        let io = io_sum(&self.stores).since(&before);
        if self.window.is_none() {
            self.window_latency_ms += io.total_ms();
        }
        match result {
            Ok(value) => {
                self.attempted += 1;
                self.samples.push(Sample {
                    class,
                    traced,
                    in_window: self.window.is_none(),
                    host_ns,
                    device_ms: io.total_ms(),
                    pages_read: io.page_reads,
                    rows: 0,
                    est_ms: 0.0,
                });
                Some(value)
            }
            Err(_) if self.expect_crash => {
                self.kill_excluded += 1;
                None
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.complain(&e);
                None
            }
        }
    }

    /// The sample of the op that just succeeded.
    pub fn last_mut(&mut self) -> &mut Sample {
        self.samples.last_mut().expect("an op has succeeded")
    }

    /// A scatter's latency is the max over shards, not the device sum the
    /// store-wide delta gave: replace it on the sample and in the window.
    pub fn set_last_latency_ms(&mut self, latency_ms: f64) {
        let s = self.samples.last_mut().expect("an op has succeeded");
        if s.in_window {
            self.window_latency_ms += latency_ms - s.device_ms;
        }
        s.device_ms = latency_ms;
    }

    /// Fold a query's output into the last sample and the cursor ledger.
    pub fn note_output(&mut self, out: &QueryOutput) {
        self.last_mut().rows = out.len() as u64;
        // The source root is the first span the executor priced; its
        // counters already merge its children's.
        if let Some(root) = out
            .trace
            .as_ref()
            .and_then(|t| t.spans.iter().find(|s| s.est_ms.is_some()))
            .and_then(|s| s.stats)
        {
            self.cursor = self.cursor.merged(root);
        }
    }

    /// Record the plan a traced query ran with.
    pub fn note_plan(&mut self, candidates: usize, kind: PathKind, est_ms: f64) {
        self.plans += 1;
        self.candidates += candidates as u64;
        self.kinds[kind.index()] += 1;
        self.last_mut().est_ms = est_ms;
    }

    /// The last op turned out to contain `name` (an insert that flushed
    /// the buffer): give its span a child covering it.
    pub fn mark_last_op(&mut self, name: &'static str) {
        if let Some(id) = self.last_span {
            self.spans.mark_covering(name, id);
        }
    }

    /// An answer disagreed with the oracle: the op counts as failed.
    pub fn mismatch(&mut self, what: &str) {
        self.failed += 1;
        self.complain(what);
    }

    /// Host-time and device-count a piece of background work under its
    /// own span. Returns `f`'s value and the device delta it caused.
    pub fn background<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, IoStats) {
        let before = io_sum(&self.stores);
        let span = self.trace.then(|| {
            self.spans.set_op(self.attempted);
            self.spans.begin(name)
        });
        let t0 = Instant::now();
        let out = f();
        let host_ns = t0.elapsed().as_nanos() as u64;
        if let Some(id) = span {
            self.spans.end(id);
        }
        let io = io_sum(&self.stores).since(&before);
        let t = self.bg.entry(name).or_default();
        t.count += 1;
        t.host_ns += host_ns;
        if self.window.is_none() {
            t.window_count += 1;
            t.window_device_ms += io.total_ms();
            t.window_bytes_written += io.bytes_written;
            self.window_latency_ms += io.total_ms();
        }
        (out, io)
    }

    /// Benchmark protocol that costs the device (`go_cold` write-back).
    pub fn protocol<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = io_sum(&self.stores);
        let out = f();
        if self.window.is_none() {
            self.window_latency_ms += io_sum(&self.stores).since(&before).total_ms();
        }
        out
    }

    /// Harness work on the store that must not show in any metric.
    pub fn excluded<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = Dev::snapshot(&self.stores);
        let out = f();
        if self.window.is_none() {
            // Move the window's start forward by what the section cost,
            // so the closing `since` never sees it.
            let d = Dev::snapshot(&self.stores).since(&before);
            add_io(&mut self.window_start.io, &d.io);
            add_pool(&mut self.window_start.pool, &d.pool);
        }
        out
    }

    /// End a round; returns true when this round closed the counted
    /// window (the workload then records its [`Space`]).
    pub fn end_round(&mut self) -> bool {
        self.rounds += 1;
        if self.window.is_some() || self.rounds < self.counted_rounds {
            return false;
        }
        let ops = self.samples.iter().filter(|s| s.in_window).count() as u64;
        self.window = Some(Window {
            ops,
            dev: Dev::snapshot(&self.stores).since(&self.window_start),
            latency_ms: self.window_latency_ms,
        });
        true
    }

    pub fn background_totals(&self, name: &str) -> BgTotals {
        self.bg.get(name).copied().unwrap_or_default()
    }

    fn host_ns_of(&self, pred: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| pred(s))
            .map(|s| s.host_ns as f64)
            .collect()
    }

    /// The end-to-end metrics of an untraced run. `Err` names what kept
    /// a metric from being measured.
    pub fn end_to_end(&self, setup_s: f64, space: &Space) -> Result<Metrics, String> {
        let w = self.window.ok_or("the counted window never closed")?;
        // (A smoke run is a functional check; its numbers are not compared.)
        if !self.smoke && self.samples.len() < stats::MIN_P99_SAMPLES {
            return Err(format!(
                "{} timed ops, host_us_p99 needs {}",
                self.samples.len(),
                stats::MIN_P99_SAMPLES
            ));
        }
        let mut host = self.host_ns_of(|_| true);
        let op_ns: f64 = host.iter().sum();
        let bg_ns: f64 = self.bg.values().map(|t| t.host_ns as f64).sum();
        stats::sort(&mut host);
        let mut m = Metrics::new();
        m.insert("setup_s".into(), (setup_s, "s"));
        m.insert(
            "host_ops_per_s".into(),
            (host.len() as f64 / ((op_ns + bg_ns) / 1e9), "ops/s"),
        );
        m.insert("host_us_p50".into(), (percentile(&host, 0.5) / 1e3, "us"));
        m.insert("host_us_p99".into(), (percentile(&host, 0.99) / 1e3, "us"));
        m.insert(
            "device_ms_per_op".into(),
            (w.latency_ms / w.ops as f64, "sim_ms"),
        );
        m.insert(
            "device_pages_read_per_op".into(),
            (w.dev.io.page_reads as f64 / w.ops as f64, "pages"),
        );
        m.insert(
            "stored_bytes_per_user_byte".into(),
            (
                space.stored_bytes as f64 / space.live_user_bytes as f64,
                "ratio",
            ),
        );
        m.insert(
            "written_bytes_per_user_byte".into(),
            (
                (space.setup_bytes_written + w.dev.io.bytes_written) as f64
                    / space.user_bytes_written as f64,
                "ratio",
            ),
        );
        m.insert("peak_rss_mb".into(), (peak_rss_mb()?, "MB"));
        Ok(m)
    }

    /// The layer metrics every workload shares: device and pool counts
    /// over the counted window, planner and executor spans, per-class
    /// rows, tracing overhead. Workloads add their own on top.
    pub fn per_layer(&self) -> Result<Metrics, String> {
        let w = self.window.ok_or("the counted window never closed")?;
        let ops = w.ops as f64;
        let (io, pool) = (w.dev.io, w.dev.pool);
        let mut m = Metrics::new();
        put(
            &mut m,
            "storage.disk.page_reads_per_op",
            io.page_reads as f64 / ops,
            "pages",
        );
        put(
            &mut m,
            "storage.disk.page_writes_per_op",
            io.page_writes as f64 / ops,
            "pages",
        );
        put(
            &mut m,
            "storage.disk.seeks_per_op",
            io.seeks as f64 / ops,
            "count",
        );
        put(
            &mut m,
            "storage.disk.file_opens_per_op",
            io.file_opens as f64 / ops,
            "count",
        );
        let total_ms = io.total_ms();
        put(
            &mut m,
            "storage.disk.seek_ms_share",
            ratio(io.seek_ms, total_ms),
            "ratio",
        );
        put(
            &mut m,
            "storage.disk.read_ms_share",
            ratio(io.read_ms, total_ms),
            "ratio",
        );
        put(
            &mut m,
            "storage.disk.write_ms_share",
            ratio(io.write_ms, total_ms),
            "ratio",
        );
        put(
            &mut m,
            "storage.disk.init_ms_share",
            ratio(io.init_ms, total_ms),
            "ratio",
        );
        let gets = (pool.hits + pool.misses) as f64;
        put(&mut m, "storage.pool.gets_per_op", gets / ops, "count");
        put(
            &mut m,
            "storage.pool.hit_ratio",
            ratio(pool.hits as f64, gets),
            "ratio",
        );
        put(
            &mut m,
            "storage.pool.evictions_per_op",
            pool.evictions as f64 / ops,
            "count",
        );
        put(
            &mut m,
            "storage.pool.readahead_pages_per_op",
            pool.readahead as f64 / ops,
            "pages",
        );
        put(
            &mut m,
            "storage.pool.readahead_useful_ratio",
            ratio(pool.readahead_hits as f64, pool.readahead as f64),
            "ratio",
        );
        put(
            &mut m,
            "storage.pool.readahead_wasted",
            pool.readahead_wasted as f64,
            "count",
        );
        put(
            &mut m,
            "storage.pool.hinted_runs",
            pool.hinted_runs as f64,
            "count",
        );
        put(
            &mut m,
            "storage.pool.flush_errors",
            pool.flush_errors as f64,
            "count",
        );
        put(
            &mut m,
            "storage.pool.flush_retries",
            pool.flush_retries as f64,
            "count",
        );

        // Planner and executor, from the spans of traced query ops.
        let ledger = self.spans.ledger();
        let span_ns = |name: &str| ledger.get(name).map_or(0.0, |t| t.total_ns as f64);
        let span_n = |name: &str| ledger.get(name).map_or(0.0, |t| t.count as f64);
        let traced_queries: Vec<&Sample> = self
            .samples
            .iter()
            .filter(|s| s.traced && s.class.is_query())
            .collect();
        let traced_query_ns: f64 = traced_queries.iter().map(|s| s.host_ns as f64).sum();
        let traced_rows: f64 = traced_queries.iter().map(|s| s.rows as f64).sum();
        put(
            &mut m,
            "query.planner.host_us_per_plan",
            ratio(span_ns("plan"), span_n("plan")) / 1e3,
            "us",
        );
        put(
            &mut m,
            "query.planner.plan_share_of_host",
            ratio(span_ns("plan"), traced_query_ns),
            "ratio",
        );
        put(
            &mut m,
            "query.planner.candidates_per_plan",
            ratio(self.candidates as f64, self.plans as f64),
            "count",
        );
        let mut misest: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.est_ms > 0.0 && s.device_ms > 0.0)
            .map(|s| s.device_ms / s.est_ms)
            .collect();
        stats::sort(&mut misest);
        let pct = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { percentile(v, p) };
        put(
            &mut m,
            "query.planner.misest_p50",
            pct(&misest, 0.5),
            "ratio",
        );
        put(
            &mut m,
            "query.planner.misest_p95",
            pct(&misest, 0.95),
            "ratio",
        );
        for kind in PathKind::ALL {
            put(
                &mut m,
                &kind_share_name(kind),
                ratio(self.kinds[kind.index()] as f64, self.plans as f64),
                "ratio",
            );
        }
        put(
            &mut m,
            "query.exec.host_us_per_execute",
            ratio(span_ns("execute"), span_n("execute")) / 1e3,
            "us",
        );
        put(
            &mut m,
            "query.exec.host_ns_per_row",
            ratio(span_ns("execute"), traced_rows),
            "ns",
        );
        let queries: Vec<&Sample> = self.samples.iter().filter(|s| s.class.is_query()).collect();
        let rows: f64 = queries.iter().map(|s| s.rows as f64).sum();
        put(
            &mut m,
            "query.exec.rows_per_op",
            ratio(rows, queries.len() as f64),
            "rows",
        );
        put(
            &mut m,
            "query.exec.decodes_per_row_returned",
            ratio(self.cursor.decodes as f64, rows),
            "ratio",
        );
        let cursor_rows = self.cursor.rows as f64;
        put(
            &mut m,
            "core.upi.decodes_per_row",
            ratio(self.cursor.decodes as f64, cursor_rows),
            "ratio",
        );
        put(
            &mut m,
            "core.upi.pointer_fetches_per_row",
            ratio(self.cursor.pointer_fetches as f64, cursor_rows),
            "ratio",
        );
        put(
            &mut m,
            "core.upi.suppressed_per_row",
            ratio(self.cursor.suppressed as f64, cursor_rows),
            "ratio",
        );
        let mut device: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.in_window)
            .map(|s| s.device_ms)
            .collect();
        stats::sort(&mut device);
        put(
            &mut m,
            "query.exec.device_ms_p99",
            pct(&device, 0.99),
            "sim_ms",
        );
        for class in LEDGER_CLASSES {
            let mut host = self.host_ns_of(|s| s.class == class && s.traced);
            stats::sort(&mut host);
            put(
                &mut m,
                &class_metric(class, "host_us_p50"),
                pct(&host, 0.5) / 1e3,
                "us",
            );
            let dev: Vec<f64> = self
                .samples
                .iter()
                .filter(|s| s.class == class && s.in_window)
                .map(|s| s.device_ms)
                .collect();
            put(
                &mut m,
                &class_metric(class, "device_ms_mean"),
                mean(&dev),
                "sim_ms",
            );
        }

        // Tracing overhead: traced over untraced host time per op, each
        // class weighted by how often it ran.
        let (mut traced_ns, mut plain_ns) = (0.0, 0.0);
        for class in Class::ALL {
            let t = self.host_ns_of(|s| s.class == class && s.traced);
            let p = self.host_ns_of(|s| s.class == class && !s.traced);
            if t.is_empty() || p.is_empty() {
                continue;
            }
            let n = (t.len() + p.len()) as f64;
            traced_ns += n * mean(&t);
            plain_ns += n * mean(&p);
        }
        put(
            &mut m,
            "trace.overhead_share",
            if plain_ns > 0.0 {
                traced_ns / plain_ns - 1.0
            } else {
                0.0
            },
            "ratio",
        );
        put(&mut m, "trace.spans", self.spans.len() as f64, "count");
        Ok(m)
    }
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
