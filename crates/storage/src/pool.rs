//! Write-back LRU buffer pool with sequential read-ahead.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::disk::SimDisk;
use crate::error::Result;
use crate::file::FileId;
use crate::obs::{self, QueryId};
use crate::page::PageId;
use crate::stats::IoStats;

/// Named buffer-pool counters, cumulative since creation.
///
/// Snapshot with [`BufferPool::counters`] before and after a query and
/// subtract with [`since`](PoolCounters::since) to attribute page traffic
/// to that query (the `upi-query` executor does exactly this and threads
/// the delta into `PhysicalPlan` explain output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Gets served from a cached frame.
    pub hits: u64,
    /// Gets that had to read the device.
    pub misses: u64,
    /// Frames evicted to stay under capacity.
    pub evictions: u64,
    /// Pages prefetched by sequential read-ahead.
    pub readahead: u64,
    /// Hits served from a frame that read-ahead installed (the payoff).
    pub readahead_hits: u64,
    /// Runs whose read-ahead was armed on their first miss by a
    /// run-length estimate ([`BufferPool::get_run`]) instead of the
    /// two-adjacent-miss detector.
    pub hinted_runs: u64,
    /// Eviction flushes that failed (e.g. the page was freed underneath
    /// the pool). Non-zero means a write was dropped — surfaced here
    /// instead of being silently swallowed by `put`.
    pub flush_errors: u64,
    /// Transient device faults that an eviction or flush write-back
    /// retried through successfully. Non-zero means the device
    /// misbehaved but no data was lost — the distinction
    /// `explain_analyze` draws against `flush_errors`/degraded mode.
    pub flush_retries: u64,
    /// Prefetched pages that left the cache (evicted, or dropped by a
    /// cold reset) without ever serving a demand get: speculative reads
    /// whose device time bought nothing. Non-zero means read-ahead armed
    /// on an access pattern that was not actually a run.
    pub readahead_wasted: u64,
}

impl PoolCounters {
    /// Pages that reached the device on behalf of reads (demand misses
    /// plus read-ahead) — the "pages read" a query is charged for.
    pub fn pages_read(&self) -> u64 {
        self.misses + self.readahead
    }

    /// Pages fetched on **demand** (cold misses): each is potentially a
    /// scattered read that pays a head move. One half of the per-query
    /// read split an observed-cost model wants.
    pub fn demand_pages(&self) -> u64 {
        self.misses
    }

    /// Pages fetched **speculatively** by sequential read-ahead: batched
    /// contiguous transfers that pay (at most) one head move per batch.
    /// The other half of the per-query read split — a query whose reads
    /// are mostly sequential lands here, so an observed-cost model can
    /// price the two halves differently.
    pub fn sequential_pages(&self) -> u64 {
        self.readahead
    }

    /// Component-wise difference (`self - earlier`).
    pub fn since(&self, earlier: &PoolCounters) -> PoolCounters {
        PoolCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            readahead: self.readahead - earlier.readahead,
            readahead_hits: self.readahead_hits - earlier.readahead_hits,
            hinted_runs: self.hinted_runs - earlier.hinted_runs,
            flush_errors: self.flush_errors - earlier.flush_errors,
            flush_retries: self.flush_retries - earlier.flush_retries,
            readahead_wasted: self.readahead_wasted - earlier.readahead_wasted,
        }
    }
}

impl std::fmt::Display for PoolCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} readahead={} (ra-hits={} ra-wasted={}) hinted-runs={} evictions={} flush-errors={} flush-retries={}",
            self.hits,
            self.misses,
            self.readahead,
            self.readahead_hits,
            self.readahead_wasted,
            self.hinted_runs,
            self.evictions,
            self.flush_errors,
            self.flush_retries
        )
    }
}

/// A write-back LRU page cache in front of a [`SimDisk`].
///
/// * [`get`](BufferPool::get) returns the cached frame without touching the
///   device; a miss reads from disk (charging the simulated clock).
/// * [`put`](BufferPool::put) installs a dirty frame; the device is only
///   touched when the frame is evicted or flushed.
/// * [`flush_all`](BufferPool::flush_all) writes dirty frames **sorted by
///   physical offset** (elevator order), so a bulk load whose frames are
///   contiguous pays sequential-write cost, exactly like an OS writeback
///   pass.
/// * Two consecutive misses at physically adjacent offsets of one file
///   switch that position into **run mode**: the next
///   [`DiskConfig::readahead_pages`](crate::DiskConfig::readahead_pages)
///   contiguous pages are prefetched in one batch while the head is
///   already there. Up to 16 runs are tracked concurrently, so a k-way
///   merge that interleaves reads across k component files (a fractured
///   UPI probe) keeps every component's run streaming — a switch to
///   another file no longer resets the detector.
/// * A reader that *knows* it is opening a long sequential run can skip
///   the detection latency entirely: [`get_run`](BufferPool::get_run)
///   passes the estimated run length with the run's first read, so a
///   miss there arms read-ahead at once with a window sized from the
///   estimate. The estimate lives only for that one call; the pool keeps
///   no hint state between calls. Past the estimate the run is the
///   two-miss detector's again: its next read is a plain demand read.
///
/// The pool must be configured *smaller* than the experimental tables to
/// reproduce the paper's disk-bound regime; the benchmark harness does this
/// and additionally clears the pool between queries (cold cache).
pub struct BufferPool {
    disk: Arc<SimDisk>,
    inner: Mutex<PoolInner>,
    capacity: usize,
}

struct Frame {
    data: Bytes,
    dirty: bool,
    /// Installed by read-ahead and not yet touched by a demand get.
    prefetched: bool,
    /// LRU chain: previous (colder) / next (hotter) page ids.
    prev: Option<PageId>,
    next: Option<PageId>,
}

/// State of one sequential run the pool is tracking. The pool keeps up to
/// [`MAX_TRACKED_RUNS`] of these concurrently, so a k-way merge that
/// interleaves reads across k component files (a fractured UPI's
/// fracture-parallel probe) keeps each component's run streaming instead
/// of resetting the detector on every file switch.
#[derive(Debug, Clone, Copy)]
struct RunState {
    /// File the run lives in.
    file: FileId,
    /// Offset just past the last demand-missed or prefetched page: where
    /// the next miss lands if the read pattern is a sequential run.
    next: u64,
    /// For runs opened with an estimate ([`BufferPool::get_run`]):
    /// estimated pages still ahead of `next`. `Some(r)` with `r > 0` sizes
    /// the next miss's prefetch batch from it (capped at
    /// [`HINTED_BATCH_PAGES`]); `Some(0)`, a spent estimate, prefetches
    /// nothing and leaves `None`. `None` is the two-miss detector's state
    /// (a first miss, or a detected run): the next adjacent miss
    /// prefetches the fixed `DiskConfig::readahead_pages` window.
    hinted_remaining: Option<usize>,
}

/// Upper bound on one hinted prefetch batch, in pages. Bounds the single
/// contiguous transfer a run estimate can trigger (and the pool-capacity
/// pressure of speculative frames) while still letting a long hinted run
/// stream in a few large batches instead of one fixed-size window per 8
/// pages.
const HINTED_BATCH_PAGES: usize = 64;

/// How many concurrent sequential runs the pool tracks (LRU-evicted).
/// Sized for a fractured UPI's k-way merge — main + a handful of
/// fractures, each with a heap and a cutoff file in flight.
const MAX_TRACKED_RUNS: usize = 16;

#[derive(Default)]
struct PoolInner {
    frames: HashMap<PageId, Frame>,
    bytes: usize,
    /// Coldest frame (eviction candidate).
    head: Option<PageId>,
    /// Hottest frame (most recently used).
    tail: Option<PageId>,
    counters: PoolCounters,
    /// Concurrently tracked runs (see [`RunState`]), oldest first.
    runs: Vec<RunState>,
    /// While non-zero, raw misses do not create new run-tracker state
    /// (see [`BufferPool::attributed`] /
    /// [`AttributedGuard::suppress_run_detection`]): a scatter-shaped
    /// access pattern whose plan carries no run estimates cannot arm
    /// speculative read-ahead. Runs opened with an estimate — and
    /// continuations of already-armed runs — still stream.
    suppress_runs: u32,
    /// Degraded read-only mode: `Some(reason)` after a write-back failed
    /// persistently (not transiently) or the durability layer could not
    /// advance the WAL. Reads keep working; the session layer rejects
    /// mutations while this is set instead of silently bumping a counter.
    poisoned: Option<String>,
}

/// Bounded retries a write-back attempts against transient device faults
/// before declaring the failure persistent.
const WRITEBACK_RETRIES: u32 = 4;

/// Per-retry backoff charged to the simulated clock, ms.
const RETRY_BACKOFF_MS: f64 = 0.2;

impl PoolInner {
    /// Replace (or insert) the tracked run continuing at `(file, at)`.
    fn note_run(&mut self, file: FileId, at: u64, state: RunState) {
        if let Some(i) = self
            .runs
            .iter()
            .position(|r| r.file == file && r.next == at)
        {
            self.runs.remove(i);
        }
        self.runs.push(state);
        if self.runs.len() > MAX_TRACKED_RUNS {
            self.runs.remove(0);
        }
    }
}

impl BufferPool {
    /// Create a pool that caches at most `capacity_bytes` of page data.
    pub fn new(disk: Arc<SimDisk>, capacity_bytes: usize) -> Self {
        BufferPool {
            disk,
            inner: Mutex::new(PoolInner::default()),
            capacity: capacity_bytes,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Read a page through the cache. A miss reads the device; two
    /// adjacent misses in a row trigger sequential read-ahead of the
    /// physically contiguous continuation (see the type docs).
    pub fn get(&self, pid: PageId) -> Result<Bytes> {
        self.get_run(pid, None)
    }

    /// [`get`](Self::get) for the first page of a run the caller expects
    /// to read for about `est_run_pages` pages, `pid` included (a
    /// clustered heap run, a range scan, a full scan). With an estimate,
    /// a miss arms read-ahead at once — no second adjacent miss — with the
    /// window sized from the estimate (in batches of at most 64 pages)
    /// instead of the fixed
    /// [`DiskConfig::readahead_pages`](crate::DiskConfig::readahead_pages)
    /// window, and counts in [`PoolCounters::hinted_runs`]. A hit arms
    /// nothing: the run's head is warm, and the ordinary detector covers
    /// any cold tail. An overestimate costs at most one over-sized (but
    /// contiguous, hence cheap) prefetch batch. A read past the estimate
    /// prefetches nothing: it is the two-miss detector's first miss, so a
    /// run that really continues arms the fixed window on its next
    /// adjacent miss, and a reader that stops one leaf past its estimate
    /// (the leaf holding the run's terminating key) reads that leaf alone.
    /// `None` is a plain [`get`](Self::get).
    pub fn get_run(&self, pid: PageId, est_run_pages: Option<usize>) -> Result<Bytes> {
        let mut g = self.inner.lock();
        if let Some(f) = g.frames.get_mut(&pid) {
            let data = f.data.clone();
            let was_prefetched = std::mem::take(&mut f.prefetched);
            g.counters.hits += 1;
            g.counters.readahead_hits += u64::from(was_prefetched);
            g.touch(pid);
            return Ok(data);
        }
        g.counters.misses += 1;
        // Run detection must happen before the read resets the head.
        let file = self.disk.page_file(pid)?;
        let offset = self.disk.page_offset(pid)?;
        let suppress = g.suppress_runs > 0;
        // `Some(remaining)` when this miss continues a tracked run.
        let tracked = g
            .runs
            .iter()
            .find(|r| r.file == file && r.next == offset)
            .map(|r| r.hinted_remaining);
        if est_run_pages.is_some() {
            g.counters.hinted_runs += 1;
        }
        drop(g);
        let data = self.disk.read_page(pid)?;
        let end = offset + data.len() as u64;
        let (depth, hinted_remaining) = match (est_run_pages, tracked) {
            (Some(est), _) => {
                let r = est.saturating_sub(1);
                (r.min(HINTED_BATCH_PAGES), Some(r))
            }
            // A spent estimate (`r == 0`) prefetches nothing and leaves
            // the detector's first-miss state.
            (None, Some(Some(r))) => (r.min(HINTED_BATCH_PAGES), Some(r).filter(|&r| r > 0)),
            (None, Some(None)) => (self.disk.config().readahead_pages, None),
            (None, None) => (0, None),
        };
        let prefetch = if depth > 0 && self.disk.config().readahead_pages > 0 {
            self.read_ahead(pid, depth)
        } else {
            Vec::new() // `readahead_pages == 0` disables run estimates too
        };
        let mut g = self.inner.lock();
        g.insert(pid, data.clone(), false, false);
        let mut run_end = end;
        let mut prefetched = 0usize;
        for (ppid, pdata) in prefetch {
            run_end += pdata.len() as u64;
            if !g.frames.contains_key(&ppid) {
                g.counters.readahead += 1;
                g.insert(ppid, pdata, false, true);
                prefetched += 1;
            }
        }
        // Under suppression a raw miss leaves no run state behind — only
        // a run opened with an estimate and the continuation of a tracked
        // run keep tracking, so two adjacent scatter misses can never arm.
        if !suppress || est_run_pages.is_some() || tracked.is_some() {
            g.note_run(
                file,
                offset,
                RunState {
                    file,
                    next: run_end,
                    hinted_remaining: hinted_remaining.map(|r| r.saturating_sub(prefetched)),
                },
            );
        }
        self.evict_overflow(&mut g)?;
        Ok(data)
    }

    /// Fetch the contiguous continuation of the run at `pid` (up to
    /// `depth` pages) in one batch: the head is already parked at the end
    /// of `pid`, so the batch costs one contiguous transfer. The window
    /// stops at the first page that is already cached (no device charge
    /// for frames the pool holds). Prefetch is speculative — any failure
    /// (e.g. a page freed between planning and reading the batch) yields
    /// an empty result rather than failing the demand read.
    fn read_ahead(&self, pid: PageId, depth: usize) -> Vec<(PageId, Bytes)> {
        let mut run = self.disk.contiguous_run_after(pid, depth);
        {
            let g = self.inner.lock();
            if let Some(cached) = run.iter().position(|p| g.frames.contains_key(p)) {
                run.truncate(cached);
            }
        }
        if run.is_empty() {
            return Vec::new();
        }
        match self.disk.read_run(&run) {
            Ok(datas) => run.into_iter().zip(datas).collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Install a (dirty) frame for a page, deferring the device write.
    /// Eviction-flush failures are recorded in
    /// [`PoolCounters::flush_errors`] and — unless the page was simply
    /// freed underneath the pool — poison the pool into degraded mode
    /// (see [`degraded`](Self::degraded)); transient faults are retried
    /// with backoff first ([`PoolCounters::flush_retries`]).
    pub fn put(&self, pid: PageId, data: Bytes) {
        let mut g = self.inner.lock();
        g.insert(pid, data, true, false);
        let _ = self.evict_overflow(&mut g); // failures counted inside
    }

    /// Drop a page from the cache without writing it (used when a page is
    /// freed by the tree layer).
    pub fn discard(&self, pid: PageId) {
        self.inner.lock().remove(pid);
    }

    /// Write all dirty frames to the device in physical-offset order and
    /// mark them clean. Frames stay cached.
    pub fn flush_all(&self) {
        let g = self.inner.lock();
        let mut dirty: Vec<PageId> = g
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&p, _)| p)
            .collect();
        drop(g);
        dirty.sort_by_key(|&p| self.disk.page_offset(p).unwrap_or(u64::MAX));
        for pid in dirty {
            let mut g = self.inner.lock();
            let data = match g.frames.get_mut(&pid) {
                Some(f) if f.dirty => {
                    f.dirty = false;
                    f.data.clone()
                }
                _ => continue,
            };
            drop(g);
            // Same retry/poison discipline as eviction write-backs. A
            // freed-underneath page no longer happens on the free paths
            // (they discard their frames first), but stays tolerated as
            // a moot write.
            let mut g = self.inner.lock();
            let _ = self.write_back(&mut g, pid, data);
        }
    }

    /// Drop every frame **without writing anything** — the cache contents
    /// are gone, as after a crash or power loss. This is the recovery
    /// path's reset: `clear()` would flush dirty frames, quietly making
    /// un-logged data durable and masking recovery bugs. Also lifts any
    /// degraded-mode poisoning (the reboot replaced the faulty device
    /// conditions) and resets run tracking.
    pub fn drop_all(&self) {
        let mut g = self.inner.lock();
        g.reset();
        g.poisoned = None;
    }

    /// Put the pool into degraded read-only mode with a reason (the
    /// durability layer calls this when the WAL cannot advance). The
    /// first reason wins; later calls are no-ops.
    pub fn poison(&self, reason: &str) {
        self.inner
            .lock()
            .poisoned
            .get_or_insert_with(|| reason.to_string());
    }

    /// The degraded-mode reason, if the pool is poisoned. Reads keep
    /// working while this is `Some`; the session layer rejects mutations
    /// and `explain_analyze` surfaces the reason.
    pub fn degraded(&self) -> Option<String> {
        self.inner.lock().poisoned.clone()
    }

    /// Flush then drop every frame (cold cache). Run detection resets
    /// too. Prefetched frames that never served a demand get are counted
    /// as [`PoolCounters::readahead_wasted`] — the speculation is
    /// provably dead once the cache resets.
    pub fn clear(&self) {
        self.flush_all();
        self.inner.lock().reset();
    }

    /// Cumulative counters since creation.
    pub fn counters(&self) -> PoolCounters {
        self.inner.lock().counters
    }

    /// Cumulative I/O statistics of the underlying simulated device.
    ///
    /// Everything that reads through this pool shares one device clock;
    /// snapshotting before and after an operation (and subtracting with
    /// [`IoStats::since`](crate::IoStats::since)) attributes *measured
    /// simulated milliseconds* — seek + transfer + open time — to that
    /// operation. The `upi-query` executor does exactly this to produce
    /// the observed side of cost-model calibration samples.
    pub fn device_stats(&self) -> crate::IoStats {
        self.disk.stats()
    }

    /// Open a scoped per-query attribution window (see [`crate::obs`]):
    /// until the returned guard drops, every device charge this thread
    /// causes — through the pool or directly on the disk — also accrues
    /// to `qid`'s slot, readable via
    /// [`attributed_stats`](Self::attributed_stats) /
    /// [`take_attributed`](Self::take_attributed). Guards nest (innermost
    /// id wins) and are per-thread: concurrent queries on other threads
    /// attribute to their own ids, so each query observes only its own
    /// device time instead of the store-wide clock delta.
    ///
    /// The guard must be dropped on the thread that created it.
    pub fn attributed(&self, qid: QueryId) -> AttributedGuard<'_> {
        obs::push_query(qid);
        AttributedGuard {
            pool: self,
            qid,
            suppressing: false,
        }
    }

    /// Snapshot of the I/O attributed to `qid` so far (non-consuming).
    pub fn attributed_stats(&self, qid: QueryId) -> IoStats {
        self.disk.attributed_stats(qid)
    }

    /// Remove and return the I/O attributed to `qid`.
    pub fn take_attributed(&self, qid: QueryId) -> IoStats {
        self.disk.take_attributed(qid)
    }

    /// Number of cached bytes right now.
    pub fn cached_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    fn evict_overflow(&self, g: &mut PoolInner) -> Result<()> {
        while g.bytes > self.capacity {
            let Some(victim) = g.head else { break };
            let Some(frame) = g.remove(victim) else { break };
            g.counters.evictions += 1;
            g.counters.readahead_wasted += u64::from(frame.prefetched);
            if frame.dirty {
                self.write_back(g, victim, frame.data)?;
            }
        }
        Ok(())
    }

    /// One dirty write-back: retry transient faults with backoff; a
    /// persistent failure is counted and (for anything but a
    /// freed-underneath page, which means the write is moot) poisons the
    /// pool into degraded mode.
    fn write_back(&self, g: &mut PoolInner, pid: PageId, data: Bytes) -> Result<()> {
        let mut attempt = 0u32;
        loop {
            match self.disk.write_page(pid, data.clone()) {
                Ok(()) => return Ok(()),
                Err(crate::StorageError::Transient(_)) if attempt < WRITEBACK_RETRIES => {
                    attempt += 1;
                    g.counters.flush_retries += 1;
                    self.disk.charge_ms(RETRY_BACKOFF_MS * attempt as f64);
                }
                Err(e) => {
                    g.counters.flush_errors += 1;
                    if !matches!(e, crate::StorageError::FreedPage(_)) {
                        g.poisoned.get_or_insert_with(|| {
                            format!("dirty write-back of {pid:?} failed: {e}")
                        });
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// RAII attribution window from [`BufferPool::attributed`]: pushes its
/// [`QueryId`] onto the thread's attribution stack on creation and pops
/// it on drop. Optionally also suppresses run-detection arming for its
/// lifetime ([`suppress_run_detection`](Self::suppress_run_detection)).
pub struct AttributedGuard<'a> {
    pool: &'a BufferPool,
    qid: QueryId,
    suppressing: bool,
}

impl AttributedGuard<'_> {
    /// Additionally suppress run-detection arming while this guard
    /// lives: raw cache misses no longer create run-tracker state, so a
    /// scatter-shaped access pattern (a plan whose chosen candidate
    /// carries no run estimates) cannot trick the two-adjacent-miss
    /// detector into speculative read-ahead. Runs opened with an estimate
    /// ([`BufferPool::get_run`]) — and runs they already armed — still
    /// stream normally.
    pub fn suppress_run_detection(mut self) -> Self {
        if !self.suppressing {
            self.pool.inner.lock().suppress_runs += 1;
            self.suppressing = true;
        }
        self
    }

    /// The query this guard attributes to.
    pub fn query_id(&self) -> QueryId {
        self.qid
    }

    /// Snapshot of the I/O attributed to this guard's query so far.
    pub fn stats(&self) -> IoStats {
        self.pool.attributed_stats(self.qid)
    }
}

impl Drop for AttributedGuard<'_> {
    fn drop(&mut self) {
        if self.suppressing {
            let mut g = self.pool.inner.lock();
            g.suppress_runs = g.suppress_runs.saturating_sub(1);
        }
        obs::pop_query();
    }
}

impl PoolInner {
    /// The frame a chain link (a frame's `prev` / `next`, or `tail`)
    /// names. Links only ever name cached frames: a frame is linked as it
    /// enters `frames` (`insert`), spliced out as it leaves (`remove`), and
    /// `reset` clears both together.
    fn linked(&mut self, pid: PageId) -> &mut Frame {
        self.frames
            .get_mut(&pid)
            .expect("a chain link names a cached frame")
    }

    /// Splice a frame whose chain neighbours are `prev` / `next` out of
    /// the LRU chain (the frame's own links are left as they are).
    fn unlink(&mut self, prev: Option<PageId>, next: Option<PageId>) {
        match prev {
            Some(p) => self.linked(p).next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.linked(n).prev = prev,
            None => self.tail = prev,
        }
    }

    /// Make `pid` the hot end of the chain and return the old tail, which
    /// the caller stores as `pid`'s `prev` (its `next` is `None`).
    fn link_hot(&mut self, pid: PageId) -> Option<PageId> {
        let old_tail = self.tail.replace(pid);
        match old_tail {
            Some(t) => self.linked(t).next = Some(pid),
            None => self.head = Some(pid),
        }
        old_tail
    }

    /// Move a cached `pid` to the hot end of the chain (no-op otherwise).
    fn touch(&mut self, pid: PageId) {
        if self.tail == Some(pid) {
            return;
        }
        let tail = self.tail;
        let Some(f) = self.frames.get_mut(&pid) else {
            return;
        };
        let (prev, next) = (f.prev, f.next);
        (f.prev, f.next) = (tail, None);
        self.unlink(prev, next);
        self.link_hot(pid);
    }

    fn insert(&mut self, pid: PageId, data: Bytes, dirty: bool, prefetched: bool) {
        if let Some(f) = self.frames.get_mut(&pid) {
            self.bytes = self.bytes - f.data.len() + data.len();
            f.dirty |= dirty;
            f.prefetched = prefetched;
            f.data = data;
            self.touch(pid);
        } else {
            self.bytes += data.len();
            let prev = self.link_hot(pid);
            let frame = Frame {
                data,
                dirty,
                prefetched,
                prev,
                next: None,
            };
            self.frames.insert(pid, frame);
        }
    }

    fn remove(&mut self, pid: PageId) -> Option<Frame> {
        let f = self.frames.remove(&pid)?;
        self.unlink(f.prev, f.next);
        self.bytes -= f.data.len();
        Some(f)
    }

    /// Drop every frame unwritten (cold cache) and forget tracked runs;
    /// prefetched frames that never served a demand get count as wasted.
    fn reset(&mut self) {
        let wasted = self.frames.values().filter(|f| f.prefetched).count() as u64;
        self.counters.readahead_wasted += wasted;
        self.frames.clear();
        self.bytes = 0;
        self.head = None;
        self.tail = None;
        self.runs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiskConfig;

    fn setup(cap: usize) -> (Arc<SimDisk>, BufferPool) {
        let disk = Arc::new(SimDisk::new(DiskConfig::default()));
        let pool = BufferPool::new(disk.clone(), cap);
        (disk, pool)
    }

    #[test]
    fn hit_avoids_device_io() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let p = disk.alloc_page(f).unwrap();
        disk.write_page(p, Bytes::from(vec![7u8; 4096])).unwrap();
        let before = disk.stats();
        pool.get(p).unwrap();
        pool.get(p).unwrap();
        pool.get(p).unwrap();
        let delta = disk.stats().since(&before);
        assert_eq!(delta.page_reads, 1, "only the miss reads the device");
        let c = pool.counters();
        assert_eq!((c.hits, c.misses), (2, 1));
    }

    #[test]
    fn put_defers_write_until_flush() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let p = disk.alloc_page(f).unwrap();
        pool.put(p, Bytes::from(vec![9u8; 4096]));
        assert_eq!(disk.stats().page_writes, 0);
        pool.flush_all();
        assert_eq!(disk.stats().page_writes, 1);
        // Second flush writes nothing: frame is clean.
        pool.flush_all();
        assert_eq!(disk.stats().page_writes, 1);
    }

    #[test]
    fn flush_writes_in_offset_order() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..32).map(|_| disk.alloc_page(f).unwrap()).collect();
        // Dirty them in reverse order; elevator flush should still be
        // sequential (no seeks after reaching offset 0).
        for &p in pages.iter().rev() {
            pool.put(p, Bytes::from(vec![1u8; 4096]));
        }
        disk.reset_head();
        pool.flush_all();
        let s = disk.stats();
        assert_eq!(s.page_writes, 32);
        assert_eq!(s.seeks, 0, "elevator flush must be sequential");
    }

    #[test]
    fn eviction_respects_capacity_and_writes_dirty_victims() {
        let (disk, pool) = setup(4096 * 4);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..8).map(|_| disk.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            pool.put(p, Bytes::from(vec![3u8; 4096]));
        }
        assert!(pool.cached_bytes() <= 4096 * 4);
        // The four coldest pages must have been written out.
        assert_eq!(disk.stats().page_writes, 4);
        assert_eq!(pool.counters().evictions, 4);
    }

    #[test]
    fn lru_order_is_respected() {
        let (disk, pool) = setup(4096 * 2);
        let f = disk.create_file("t", 4096);
        let a = disk.alloc_page(f).unwrap();
        let b = disk.alloc_page(f).unwrap();
        let c = disk.alloc_page(f).unwrap();
        pool.put(a, Bytes::from(vec![1u8; 4096]));
        pool.put(b, Bytes::from(vec![2u8; 4096]));
        // Touch `a` so `b` becomes coldest.
        pool.get(a).unwrap();
        pool.put(c, Bytes::from(vec![3u8; 4096]));
        // `b` must have been evicted; reading it misses (and, at capacity,
        // evicts the then-coldest frame `a`).
        let before = disk.stats();
        pool.get(b).unwrap();
        assert_eq!(disk.stats().since(&before).page_reads, 1);
        // `c` is still cached.
        let before = disk.stats();
        pool.get(c).unwrap();
        assert_eq!(disk.stats().since(&before).page_reads, 0);
    }

    #[test]
    fn clear_produces_cold_cache() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let p = disk.alloc_page(f).unwrap();
        pool.put(p, Bytes::from(vec![5u8; 4096]));
        pool.clear();
        assert_eq!(pool.cached_bytes(), 0);
        let before = disk.stats();
        let data = pool.get(p).unwrap();
        assert_eq!(data[0], 5, "flushed content must survive");
        assert_eq!(disk.stats().since(&before).page_reads, 1);
    }

    #[test]
    fn sequential_misses_trigger_readahead() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..16).map(|_| disk.alloc_page(f).unwrap()).collect();
        for (i, &p) in pages.iter().enumerate() {
            disk.write_page(p, Bytes::from(vec![i as u8; 4096]))
                .unwrap();
        }
        // First miss: no run yet, no prefetch.
        pool.get(pages[0]).unwrap();
        assert_eq!(pool.counters().readahead, 0);
        // Second adjacent miss: run detected, the continuation streams in.
        pool.get(pages[1]).unwrap();
        let c = pool.counters();
        assert_eq!(c.misses, 2);
        assert_eq!(
            c.readahead,
            disk.config().readahead_pages as u64,
            "run continuation must be prefetched"
        );
        // The prefetched pages are hits that never touch the device again.
        let before = disk.stats();
        for &p in &pages[2..2 + disk.config().readahead_pages] {
            let data = pool.get(p).unwrap();
            assert_eq!(data.len(), 4096);
        }
        assert_eq!(disk.stats().since(&before).page_reads, 0);
        assert_eq!(
            pool.counters().readahead_hits,
            disk.config().readahead_pages as u64
        );
    }

    #[test]
    fn hinted_run_arms_readahead_on_first_miss() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..32).map(|_| disk.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            disk.write_page(p, Bytes::from(vec![1u8; 4096])).unwrap();
        }
        let run_len = 20;
        // One cold miss on the run's first page prefetches the whole
        // estimated run — no second adjacent miss needed.
        pool.get_run(pages[0], Some(run_len)).unwrap();
        let c = pool.counters();
        assert_eq!(c.misses, 1);
        assert_eq!(c.hinted_runs, 1);
        assert_eq!(
            c.readahead,
            (run_len - 1) as u64,
            "window must be run-length-sized, not the fixed {} pages: {c}",
            disk.config().readahead_pages
        );
        // The whole hinted window is then served without device reads.
        let before = disk.stats();
        for &p in &pages[1..run_len] {
            pool.get(p).unwrap();
        }
        assert_eq!(disk.stats().since(&before).page_reads, 0);
        // Past the estimate the read is a plain demand read: the
        // estimate is spent, and one read beyond it is no evidence of more.
        pool.get(pages[run_len]).unwrap();
        let c = pool.counters();
        assert_eq!(c.misses, 2);
        assert_eq!(c.readahead, (run_len - 1) as u64, "{c}");
        // The next adjacent miss is the detector's second: it arms the
        // fixed window.
        pool.get(pages[run_len + 1]).unwrap();
        let c = pool.counters();
        assert_eq!(c.misses, 3);
        assert_eq!(
            c.readahead,
            (run_len - 1 + disk.config().readahead_pages) as u64,
            "{c}"
        );
    }

    #[test]
    fn exhausted_estimate_is_the_detectors_first_miss() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..16).map(|_| disk.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            disk.write_page(p, Bytes::from(vec![1u8; 4096])).unwrap();
        }
        let window = disk.config().readahead_pages as u64;
        pool.get_run(pages[0], Some(3)).unwrap();
        pool.get(pages[1]).unwrap();
        pool.get(pages[2]).unwrap();
        let c = pool.counters();
        assert_eq!((c.misses, c.readahead, c.readahead_hits), (1, 2, 2), "{c}");
        // `p3` is the leaf past the estimate (where a run's terminating
        // key sits): read on demand, alone.
        pool.get(pages[3]).unwrap();
        let c = pool.counters();
        assert_eq!(
            (c.misses, c.readahead),
            (2, 2),
            "p3 prefetches nothing: {c}"
        );
        // `p4` is the second adjacent miss: the fixed window arms.
        pool.get(pages[4]).unwrap();
        let c = pool.counters();
        assert_eq!((c.misses, c.readahead), (3, 2 + window), "{c}");
        let before = disk.stats();
        for &p in &pages[5..5 + window as usize] {
            pool.get(p).unwrap();
        }
        assert_eq!(disk.stats().since(&before).page_reads, 0);
    }

    #[test]
    fn warm_start_page_discharges_hint() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..4).map(|_| disk.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            disk.write_page(p, Bytes::from(vec![1u8; 4096])).unwrap();
        }
        pool.get(pages[0]).unwrap(); // warm the head
        pool.get_run(pages[0], Some(4)).unwrap(); // hit: arms nothing
        pool.get(pages[2]).unwrap(); // unrelated miss later
        let c = pool.counters();
        assert_eq!(c.hinted_runs, 0, "a warm head must not count as armed");
        assert_eq!(c.readahead, 0, "{c}");
    }

    #[test]
    fn single_page_hint_prefetches_nothing() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..4).map(|_| disk.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            disk.write_page(p, Bytes::from(vec![1u8; 4096])).unwrap();
        }
        pool.get_run(pages[0], Some(1)).unwrap();
        let c = pool.counters();
        assert_eq!(c.hinted_runs, 1);
        assert_eq!(c.readahead, 0, "a one-page run has no continuation: {c}");
    }

    #[test]
    fn long_hint_streams_in_capped_batches() {
        let (disk, pool) = setup(4 << 20);
        let f = disk.create_file("t", 4096);
        let n = super::HINTED_BATCH_PAGES * 2 + 10;
        let pages: Vec<_> = (0..n).map(|_| disk.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            disk.write_page(p, Bytes::from(vec![1u8; 4096])).unwrap();
        }
        pool.get_run(pages[0], Some(n)).unwrap();
        for &p in &pages[1..] {
            pool.get(p).unwrap();
        }
        let c = pool.counters();
        // First batch is capped; each later boundary miss re-prefetches
        // from the remaining estimate, so the whole run costs ~3 misses.
        assert_eq!(c.misses, 3, "{c}");
        assert_eq!(c.readahead as usize, n - 3, "{c}");
        assert_eq!(c.readahead_hits as usize, n - 3, "{c}");
    }

    #[test]
    fn concurrent_hints_arm_independently() {
        let (disk, pool) = setup(4 << 20);
        let files: Vec<_> = (0..3)
            .map(|i| disk.create_file(&format!("f{i}"), 4096))
            .collect();
        let runs: Vec<Vec<_>> = files
            .iter()
            .map(|&f| {
                let pages: Vec<_> = (0..12).map(|_| disk.alloc_page(f).unwrap()).collect();
                for &p in &pages {
                    disk.write_page(p, Bytes::from(vec![1u8; 4096])).unwrap();
                }
                pages
            })
            .collect();
        // Interleave the three runs round-robin, the way a k-way merge
        // pulls one row per component: each run must still arm on its own
        // first miss and then stream entirely from read-ahead.
        for run in &runs {
            pool.get_run(run[0], Some(run.len())).unwrap();
        }
        for i in 1..runs[0].len() {
            for run in &runs {
                pool.get(run[i]).unwrap();
            }
        }
        let c = pool.counters();
        assert_eq!(c.hinted_runs, 3, "{c}");
        assert_eq!(c.misses, 3, "one cold miss per run: {c}");
        assert_eq!(c.readahead, 3 * 11, "{c}");
        assert_eq!(c.readahead_hits, 3 * 11, "{c}");
    }

    #[test]
    fn interleaved_unhinted_runs_each_detect() {
        let (disk, pool) = setup(4 << 20);
        let fa = disk.create_file("a", 4096);
        let fb = disk.create_file("b", 4096);
        let a: Vec<_> = (0..12).map(|_| disk.alloc_page(fa).unwrap()).collect();
        let b: Vec<_> = (0..12).map(|_| disk.alloc_page(fb).unwrap()).collect();
        for &p in a.iter().chain(&b) {
            disk.write_page(p, Bytes::from(vec![1u8; 4096])).unwrap();
        }
        // a0 b0 a1 b1: each file's second miss is adjacent *within its
        // own run*; both runs must arm despite the interleaving.
        pool.get(a[0]).unwrap();
        pool.get(b[0]).unwrap();
        pool.get(a[1]).unwrap();
        pool.get(b[1]).unwrap();
        let c = pool.counters();
        assert_eq!(c.misses, 4);
        assert_eq!(
            c.readahead,
            2 * disk.config().readahead_pages as u64,
            "both interleaved runs must detect: {c}"
        );
    }

    #[test]
    fn random_misses_do_not_prefetch() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..8).map(|_| disk.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            disk.write_page(p, Bytes::from(vec![1u8; 4096])).unwrap();
        }
        // Backwards access never looks sequential.
        for &p in pages.iter().rev() {
            pool.get(p).unwrap();
        }
        let c = pool.counters();
        assert_eq!(c.readahead, 0);
        assert_eq!(c.misses, 8);
    }

    #[test]
    fn readahead_stops_at_file_boundary() {
        let (disk, pool) = setup(1 << 20);
        let f1 = disk.create_file("a", 4096);
        let f2 = disk.create_file("b", 4096);
        let a0 = disk.alloc_page(f1).unwrap();
        let a1 = disk.alloc_page(f1).unwrap();
        let _b0 = disk.alloc_page(f2).unwrap(); // physically next, other file
        pool.get(a0).unwrap();
        pool.get(a1).unwrap();
        assert_eq!(pool.counters().readahead, 0, "run ends where the file does");
    }

    #[test]
    fn eviction_flush_failure_is_counted() {
        let (disk, pool) = setup(4096 * 2);
        let f = disk.create_file("t", 4096);
        // Allocate everything up front so the free list never recycles
        // the doomed slot into a later page.
        let doomed = disk.alloc_page(f).unwrap();
        let p1 = disk.alloc_page(f).unwrap();
        let p2 = disk.alloc_page(f).unwrap();
        pool.put(doomed, Bytes::from(vec![1u8; 4096]));
        // Free the page underneath the pool, then force it out.
        disk.free_page(doomed).unwrap();
        pool.put(p1, Bytes::from(vec![2u8; 4096]));
        pool.put(p2, Bytes::from(vec![3u8; 4096]));
        assert_eq!(
            pool.counters().flush_errors,
            1,
            "dropped eviction flush must be recorded: {}",
            pool.counters()
        );
    }

    #[test]
    fn store_free_page_discards_pooled_frame() {
        // Regression for the freed-underneath wart: freeing through
        // `Store::free_page` must invalidate the pooled frame, so a
        // legitimate free can never resurface as a spurious flush error
        // when the dead frame is later evicted.
        let disk = Arc::new(SimDisk::new(DiskConfig::default()));
        let store = crate::Store::new(disk.clone(), 4096 * 2);
        let f = disk.create_file("t", 4096);
        let doomed = disk.alloc_page(f).unwrap();
        let p1 = disk.alloc_page(f).unwrap();
        let p2 = disk.alloc_page(f).unwrap();
        store.pool.put(doomed, Bytes::from(vec![1u8; 4096]));
        store.free_page(doomed).unwrap();
        // Force evictions past where the doomed frame sat.
        store.pool.put(p1, Bytes::from(vec![2u8; 4096]));
        store.pool.put(p2, Bytes::from(vec![3u8; 4096]));
        let c = store.pool.counters();
        assert_eq!(c.flush_errors, 0, "legitimate free must not count: {c}");
        assert!(store.pool.degraded().is_none());
    }

    #[test]
    fn transient_writeback_faults_are_retried_not_fatal() {
        use crate::fault::FaultPlan;
        let (disk, pool) = setup(4096 * 2);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..8).map(|_| disk.alloc_page(f).unwrap()).collect();
        disk.set_fault_plan(FaultPlan::transient(0.0, 0.4, 7));
        for &p in &pages {
            pool.put(p, Bytes::from(vec![1u8; 4096]));
        }
        pool.flush_all();
        let c = pool.counters();
        assert!(c.flush_retries > 0, "faults must have been retried: {c}");
        assert_eq!(c.flush_errors, 0, "retries must absorb transients: {c}");
        assert!(pool.degraded().is_none());
        disk.clear_fault_plan();
        // Every page must actually have reached the device.
        for &p in &pages {
            assert_eq!(disk.read_page(p).unwrap()[0], 1);
        }
    }

    #[test]
    fn persistent_writeback_failure_poisons_the_pool() {
        use crate::fault::FaultPlan;
        let (disk, pool) = setup(4096 * 2);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..4).map(|_| disk.alloc_page(f).unwrap()).collect();
        pool.put(pages[0], Bytes::from(vec![1u8; 4096]));
        disk.set_fault_plan(FaultPlan::kill_at(0));
        // Evicting the dirty frame now hits a dead device.
        pool.put(pages[1], Bytes::from(vec![2u8; 4096]));
        pool.put(pages[2], Bytes::from(vec![3u8; 4096]));
        let c = pool.counters();
        assert!(c.flush_errors > 0, "{c}");
        let reason = pool.degraded().expect("pool must be poisoned");
        assert!(reason.contains("crashed"), "reason: {reason}");
        // Reboot lifts the poisoning.
        disk.clear_fault_plan();
        pool.drop_all();
        assert!(pool.degraded().is_none());
    }

    #[test]
    fn discard_drops_without_write() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let p = disk.alloc_page(f).unwrap();
        pool.put(p, Bytes::from(vec![5u8; 4096]));
        pool.discard(p);
        pool.flush_all();
        assert_eq!(disk.stats().page_writes, 0);
    }

    #[test]
    fn suppression_blocks_two_miss_arming() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..16).map(|_| disk.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            disk.write_page(p, Bytes::from(vec![1u8; 4096])).unwrap();
        }
        {
            let _guard = pool.attributed(QueryId::next()).suppress_run_detection();
            // Two adjacent misses would normally arm read-ahead; under
            // suppression they must not.
            pool.get(pages[0]).unwrap();
            pool.get(pages[1]).unwrap();
            pool.get(pages[2]).unwrap();
            assert_eq!(pool.counters().readahead, 0, "{}", pool.counters());
        }
        // Guard dropped: the detector works again for the next query.
        pool.clear();
        pool.get(pages[0]).unwrap();
        pool.get(pages[1]).unwrap();
        assert_eq!(
            pool.counters().readahead,
            disk.config().readahead_pages as u64
        );
    }

    #[test]
    fn suppression_still_honors_hints() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..16).map(|_| disk.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            disk.write_page(p, Bytes::from(vec![1u8; 4096])).unwrap();
        }
        let _guard = pool.attributed(QueryId::next()).suppress_run_detection();
        pool.get_run(pages[0], Some(8)).unwrap();
        let c = pool.counters();
        assert_eq!(c.hinted_runs, 1, "{c}");
        assert_eq!(c.readahead, 7, "hint must stream despite suppression: {c}");
    }

    #[test]
    fn wasted_prefetch_is_counted_on_eviction_and_clear() {
        let (disk, pool) = setup(4096 * 4);
        let f = disk.create_file("t", 4096);
        let pages: Vec<_> = (0..16).map(|_| disk.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            disk.write_page(p, Bytes::from(vec![1u8; 4096])).unwrap();
        }
        // Arm a hinted run larger than the pool: prefetched frames evict
        // each other before any demand get touches them.
        pool.get_run(pages[0], Some(12)).unwrap();
        let c = pool.counters();
        assert!(c.readahead > 0, "{c}");
        assert!(
            c.readahead_wasted > 0,
            "evicted-unread prefetch must count: {c}"
        );
        // Whatever prefetched frames remain cached die unread at clear().
        let before = pool.counters();
        pool.clear();
        let after = pool.counters();
        assert_eq!(
            after.readahead - after.readahead_wasted,
            before.readahead_hits,
            "every prefetched page is either a hit or wasted: {after}"
        );
    }

    #[test]
    fn attribution_isolates_two_queries_on_one_pool() {
        let (disk, pool) = setup(1 << 20);
        let fa = disk.create_file("a", 4096);
        let fb = disk.create_file("b", 4096);
        let a: Vec<_> = (0..4).map(|_| disk.alloc_page(fa).unwrap()).collect();
        let b: Vec<_> = (0..4).map(|_| disk.alloc_page(fb).unwrap()).collect();
        for &p in a.iter().chain(&b) {
            disk.write_page(p, Bytes::from(vec![1u8; 4096])).unwrap();
        }
        disk.close_all_files();
        disk.reset_head();
        let total_before = pool.device_stats();

        let qa = QueryId::next();
        let qb = QueryId::next();
        // Interleave the two "queries" statement by statement, the way
        // two sessions would race on one store.
        for i in 0..a.len() {
            {
                let _g = pool.attributed(qa);
                pool.get(a[i]).unwrap();
            }
            {
                let _g = pool.attributed(qb);
                pool.get(b[i]).unwrap();
            }
        }

        let sa = pool.take_attributed(qa);
        let sb = pool.take_attributed(qb);
        let total = pool.device_stats().since(&total_before);
        assert_eq!(sa.page_reads, 4);
        assert_eq!(sb.page_reads, 4);
        assert_eq!(sa.file_opens, 1, "each query pays only its own open");
        assert_eq!(sb.file_opens, 1);
        assert!(sa.total_ms() > 0.0 && sb.total_ms() > 0.0);
        // Sum of attributed time == store-wide delta: nothing leaks.
        assert!(
            (sa.total_ms() + sb.total_ms() - total.total_ms()).abs() < 1e-9,
            "attributed {} + {} != store delta {}",
            sa.total_ms(),
            sb.total_ms(),
            total.total_ms()
        );
        // Slots were consumed.
        assert_eq!(pool.take_attributed(qa).page_reads, 0);
    }

    #[test]
    fn nested_guards_attribute_to_the_innermost_query() {
        let (disk, pool) = setup(1 << 20);
        let f = disk.create_file("t", 4096);
        let p0 = disk.alloc_page(f).unwrap();
        let p1 = disk.alloc_page(f).unwrap();
        disk.write_page(p0, Bytes::from(vec![1u8; 4096])).unwrap();
        disk.write_page(p1, Bytes::from(vec![1u8; 4096])).unwrap();
        pool.clear();
        let outer = QueryId::next();
        let inner = QueryId::next();
        let _og = pool.attributed(outer);
        pool.get(p0).unwrap();
        {
            let _ig = pool.attributed(inner);
            pool.get(p1).unwrap();
        }
        assert_eq!(pool.take_attributed(outer).page_reads, 1);
        assert_eq!(pool.take_attributed(inner).page_reads, 1);
    }
}
