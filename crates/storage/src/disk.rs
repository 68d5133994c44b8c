//! The simulated disk device.

use bytes::Bytes;
use parking_lot::Mutex;

use crate::config::DiskConfig;
use crate::error::{Result, StorageError};
use crate::fault::{FaultCounters, FaultOutcome, FaultPlan, FaultState};
use crate::file::{FileId, FileMeta};
use crate::obs::{self, QueryId};
use crate::page::PageId;
use crate::stats::IoStats;

/// Upper bound on concurrently tracked per-query attribution slots
/// (oldest evicted): bounds memory for callers that never collect their
/// attributed stats.
const MAX_ATTRIBUTED_QUERIES: usize = 64;

/// A byte-addressed simulated disk.
///
/// The device stores page contents in memory but charges a simulated clock
/// for every transfer according to [`DiskConfig`]:
///
/// * moving the head costs [`DiskConfig::move_cost_ms`] (zero when the next
///   access starts exactly where the previous one ended);
/// * transfers cost `T_read` / `T_write` per byte;
/// * the first touch of a file after [`close_all_files`](SimDisk::close_all_files)
///   charges `Cost_init` (the paper's per-fracture open cost).
///
/// Physical placement: a global bump allocator assigns offsets in allocation
/// order; per-file free lists are reused LIFO. Consequently a bulk-loaded
/// B+Tree occupies one contiguous run (cheap range scans), while a tree that
/// grew by random splits is physically scattered (range scans pay seeks) —
/// the exact fragmentation mechanism of §4.1 of the paper.
pub struct SimDisk {
    cfg: DiskConfig,
    inner: Mutex<Inner>,
}

struct PageSlot {
    offset: u64,
    size: u32,
    file: FileId,
    data: Option<Bytes>,
    freed: bool,
}

struct Inner {
    files: Vec<FileMeta>,
    pages: Vec<PageSlot>,
    /// Byte offset just past the end of the previous access.
    head: u64,
    /// Bump allocator frontier.
    next_offset: u64,
    clock_ms: f64,
    stats: IoStats,
    /// Per-query attribution slots (see [`crate::obs`]): while a thread
    /// holds an attribution guard, every charge also accrues to its
    /// query's slot here. Oldest-first, bounded.
    attributed: Vec<(QueryId, IoStats)>,
    /// Armed fault-injection schedule, if any (see [`crate::fault`]).
    fault: Option<FaultState>,
}

impl SimDisk {
    /// Create an empty device.
    pub fn new(cfg: DiskConfig) -> Self {
        SimDisk {
            cfg,
            inner: Mutex::new(Inner {
                files: Vec::new(),
                pages: Vec::new(),
                head: 0,
                next_offset: 0,
                clock_ms: 0.0,
                stats: IoStats::default(),
                attributed: Vec::new(),
                fault: None,
            }),
        }
    }

    /// The cost model in force.
    pub fn config(&self) -> &DiskConfig {
        &self.cfg
    }

    /// Create a new logical file whose pages are all `page_size` bytes.
    pub fn create_file(&self, name: &str, page_size: u32) -> FileId {
        let mut g = self.inner.lock();
        let id = FileId(g.files.len() as u32);
        g.files.push(FileMeta::new(name, page_size));
        id
    }

    /// Allocate a page for `file`. Reuses the file's free list first, else
    /// places the page at the global allocation frontier. Allocation itself
    /// is a metadata operation and charges nothing; the data transfer is
    /// charged when the page is written.
    pub fn alloc_page(&self, file: FileId) -> Result<PageId> {
        let mut g = self.inner.lock();
        let fidx = file.0 as usize;
        if fidx >= g.files.len() {
            return Err(StorageError::UnknownFile(file));
        }
        if let Some(pid) = g.files[fidx].free_list.pop() {
            let slot = &mut g.pages[pid.0 as usize];
            slot.freed = false;
            slot.data = None;
            return Ok(pid);
        }
        let page_size = g.files[fidx].page_size;
        let pid = PageId(g.pages.len() as u64);
        let offset = g.next_offset;
        g.next_offset += page_size as u64;
        g.pages.push(PageSlot {
            offset,
            size: page_size,
            file,
            data: None,
            freed: false,
        });
        g.files[fidx].pages.push(pid);
        Ok(pid)
    }

    /// Return a page to its file's free list. The physical slot is retained
    /// and will be handed out again by a future `alloc_page` on the same
    /// file (at its old, possibly distant, offset).
    pub fn free_page(&self, pid: PageId) -> Result<()> {
        let mut g = self.inner.lock();
        let idx = pid.0 as usize;
        if idx >= g.pages.len() {
            return Err(StorageError::UnknownPage(pid));
        }
        if g.pages[idx].freed {
            return Err(StorageError::FreedPage(pid));
        }
        g.pages[idx].freed = true;
        g.pages[idx].data = None;
        let file = g.pages[idx].file;
        g.files[file.0 as usize].free_list.push(pid);
        Ok(())
    }

    /// Read a page, charging head movement + transfer (+ `Cost_init` if the
    /// file is cold). A never-written page reads as zeroes.
    pub fn read_page(&self, pid: PageId) -> Result<Bytes> {
        let mut g = self.inner.lock();
        let idx = pid.0 as usize;
        if idx >= g.pages.len() {
            return Err(StorageError::UnknownPage(pid));
        }
        if g.pages[idx].freed {
            return Err(StorageError::FreedPage(pid));
        }
        match g.check_fault(false) {
            FaultOutcome::Crashed => return Err(StorageError::Crashed),
            FaultOutcome::Transient => return Err(StorageError::Transient("read_page")),
            _ => {}
        }
        let file = g.pages[idx].file;
        Inner::charge_open(&mut g, &self.cfg, file);
        let (offset, size) = (g.pages[idx].offset, g.pages[idx].size);
        Inner::charge_move(&mut g, &self.cfg, offset);
        let cost = self.cfg.read_cost_ms(size as u64);
        g.clock_ms += cost;
        g.stats.read_ms += cost;
        g.stats.page_reads += 1;
        g.stats.bytes_read += size as u64;
        if let Some(a) = g.attributed_slot() {
            a.read_ms += cost;
            a.page_reads += 1;
            a.bytes_read += size as u64;
        }
        g.head = offset + size as u64;
        Ok(g.pages[idx]
            .data
            .clone()
            .unwrap_or_else(|| Bytes::from(vec![0u8; size as usize])))
    }

    /// Write a page, charging head movement + transfer (+ `Cost_init` if the
    /// file is cold). The buffer must match the file's page size exactly.
    pub fn write_page(&self, pid: PageId, data: Bytes) -> Result<()> {
        let mut g = self.inner.lock();
        let idx = pid.0 as usize;
        if idx >= g.pages.len() {
            return Err(StorageError::UnknownPage(pid));
        }
        if g.pages[idx].freed {
            return Err(StorageError::FreedPage(pid));
        }
        let size = g.pages[idx].size;
        if data.len() != size as usize {
            return Err(StorageError::PageSizeMismatch {
                page: pid,
                expected: size as usize,
                got: data.len(),
            });
        }
        let torn = match g.check_fault(true) {
            FaultOutcome::Crashed => return Err(StorageError::Crashed),
            FaultOutcome::Transient => return Err(StorageError::Transient("write_page")),
            FaultOutcome::Torn(frac) => Some(frac),
            FaultOutcome::Ok => None,
        };
        let file = g.pages[idx].file;
        Inner::charge_open(&mut g, &self.cfg, file);
        let offset = g.pages[idx].offset;
        Inner::charge_move(&mut g, &self.cfg, offset);
        let cost = self.cfg.write_cost_ms(size as u64);
        g.clock_ms += cost;
        g.stats.write_ms += cost;
        g.stats.page_writes += 1;
        g.stats.bytes_written += size as u64;
        if let Some(a) = g.attributed_slot() {
            a.write_ms += cost;
            a.page_writes += 1;
            a.bytes_written += size as u64;
        }
        g.head = offset + size as u64;
        g.pages[idx].data = Some(match torn {
            // A torn write persists only the leading sectors of the new
            // buffer; the tail keeps whatever was on the platter (stale
            // bytes, or zeroes for a never-written page). The device still
            // reports success — only checksums can catch this.
            Some(frac) => {
                let cut = ((size as f64 * frac) as usize).min(size as usize);
                let old = g.pages[idx]
                    .data
                    .clone()
                    .unwrap_or_else(|| Bytes::from(vec![0u8; size as usize]));
                let mut merged = data[..cut].to_vec();
                merged.extend_from_slice(&old[cut..]);
                Bytes::from(merged)
            }
            None => data,
        });
        Ok(())
    }

    /// Pages of the same file that sit physically contiguous *after*
    /// `pid`, in offset order, up to `max` of them. Stops at the first
    /// gap, file change, or freed slot. This is what the buffer pool's
    /// sequential read-ahead prefetches: the continuation of the run the
    /// reader is currently scanning.
    pub fn contiguous_run_after(&self, pid: PageId, max: usize) -> Vec<PageId> {
        let g = self.inner.lock();
        let mut out = Vec::new();
        let idx = pid.0 as usize;
        let Some(slot) = g.pages.get(idx) else {
            return out;
        };
        let (file, mut expected) = (slot.file, slot.offset + slot.size as u64);
        // The bump allocator assigns offsets in allocation order, so the
        // physical successor of page i is page i+1 unless a free-list
        // reuse broke the run.
        for next in g.pages.iter().skip(idx + 1).take(max) {
            if out.len() >= max || next.file != file || next.offset != expected || next.freed {
                break;
            }
            expected += next.size as u64;
            out.push(PageId((idx + 1 + out.len()) as u64));
        }
        out
    }

    /// Read a batch of pages in one pass: one head move to the first page,
    /// then per-page transfers (contiguous pages charge no further moves —
    /// the read-ahead path passes a physically contiguous run, making the
    /// whole batch one seek + one sequential transfer).
    pub fn read_run(&self, pids: &[PageId]) -> Result<Vec<Bytes>> {
        let mut g = self.inner.lock();
        let mut out = Vec::with_capacity(pids.len());
        for &pid in pids {
            let idx = pid.0 as usize;
            if idx >= g.pages.len() {
                return Err(StorageError::UnknownPage(pid));
            }
            if g.pages[idx].freed {
                return Err(StorageError::FreedPage(pid));
            }
            match g.check_fault(false) {
                FaultOutcome::Crashed => return Err(StorageError::Crashed),
                FaultOutcome::Transient => return Err(StorageError::Transient("read_run")),
                _ => {}
            }
            let file = g.pages[idx].file;
            Inner::charge_open(&mut g, &self.cfg, file);
            let (offset, size) = (g.pages[idx].offset, g.pages[idx].size);
            Inner::charge_move(&mut g, &self.cfg, offset);
            let cost = self.cfg.read_cost_ms(size as u64);
            g.clock_ms += cost;
            g.stats.read_ms += cost;
            g.stats.page_reads += 1;
            g.stats.bytes_read += size as u64;
            if let Some(a) = g.attributed_slot() {
                a.read_ms += cost;
                a.page_reads += 1;
                a.bytes_read += size as u64;
            }
            g.head = offset + size as u64;
            out.push(
                g.pages[idx]
                    .data
                    .clone()
                    .unwrap_or_else(|| Bytes::from(vec![0u8; size as usize])),
            );
        }
        Ok(out)
    }

    /// Physical byte offset of a page (used by the buffer pool to flush in
    /// elevator order and by benchmarks for locality diagnostics).
    pub fn page_offset(&self, pid: PageId) -> Result<u64> {
        let g = self.inner.lock();
        g.pages
            .get(pid.0 as usize)
            .map(|s| s.offset)
            .ok_or(StorageError::UnknownPage(pid))
    }

    /// The file a page belongs to.
    pub fn page_file(&self, pid: PageId) -> Result<FileId> {
        let g = self.inner.lock();
        g.pages
            .get(pid.0 as usize)
            .map(|s| s.file)
            .ok_or(StorageError::UnknownPage(pid))
    }

    /// Live bytes of one file (allocated pages minus free list).
    pub fn file_bytes(&self, file: FileId) -> Result<u64> {
        let g = self.inner.lock();
        let f = g
            .files
            .get(file.0 as usize)
            .ok_or(StorageError::UnknownFile(file))?;
        Ok(f.live_pages() as u64 * f.page_size as u64)
    }

    /// Live bytes across all files — the "database size" of Table 8.
    pub fn total_live_bytes(&self) -> u64 {
        let g = self.inner.lock();
        g.files
            .iter()
            .map(|f| f.live_pages() as u64 * f.page_size as u64)
            .sum()
    }

    /// Free every live page of a file (metadata-only: dropping a whole
    /// index during a merge does not transfer data). The file id remains
    /// valid and its physical slots are reusable through the free list.
    pub fn free_file_pages(&self, file: FileId) -> Result<()> {
        let mut g = self.inner.lock();
        let fidx = file.0 as usize;
        if fidx >= g.files.len() {
            return Err(StorageError::UnknownFile(file));
        }
        let pages = g.files[fidx].pages.clone();
        for pid in pages {
            let slot = &mut g.pages[pid.0 as usize];
            if !slot.freed {
                slot.freed = true;
                slot.data = None;
                g.files[fidx].free_list.push(pid);
            }
        }
        Ok(())
    }

    /// Mark every file closed so that the next touch of each charges
    /// `Cost_init` again (a cold start).
    pub fn close_all_files(&self) {
        let mut g = self.inner.lock();
        for f in &mut g.files {
            f.open = false;
        }
    }

    /// Park the head at offset zero without charging anything (part of the
    /// cold-start reset; the first access after it will pay the seek).
    pub fn reset_head(&self) {
        self.inner.lock().head = 0;
    }

    /// Simulated wall clock, milliseconds.
    pub fn clock_ms(&self) -> f64 {
        self.inner.lock().clock_ms
    }

    /// Snapshot of cumulative I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.inner.lock().stats
    }

    /// Snapshot of the I/O attributed to `qid` so far (see
    /// [`crate::obs`]); zero stats if the query never charged anything.
    /// Non-consuming: the slot keeps accruing.
    pub fn attributed_stats(&self, qid: QueryId) -> IoStats {
        let g = self.inner.lock();
        g.attributed
            .iter()
            .find(|(q, _)| *q == qid)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Remove and return the I/O attributed to `qid` (zero stats if the
    /// query never charged anything). Callers collect their slot when the
    /// query finishes so the bounded slot table never fills with
    /// completed queries.
    pub fn take_attributed(&self, qid: QueryId) -> IoStats {
        let mut g = self.inner.lock();
        match g.attributed.iter().position(|(q, _)| *q == qid) {
            Some(i) => g.attributed.remove(i).1,
            None => IoStats::default(),
        }
    }

    /// Charge an explicit number of simulated milliseconds (used by the CPU
    /// cost hooks in the executor; kept out of the I/O breakdown).
    pub fn charge_ms(&self, ms: f64) {
        self.inner.lock().clock_ms += ms;
    }

    /// Arm a deterministic [`FaultPlan`]: from now on page operations are
    /// counted and may crash, tear, or fail transiently according to the
    /// plan (see [`crate::fault`]). Replaces any previous plan and resets
    /// the op cursor and [`FaultCounters`].
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.inner.lock().fault = Some(FaultState::new(plan));
    }

    /// Disarm fault injection — the "reboot" half of a crash test. The
    /// accumulated [`FaultCounters`] are discarded with the plan, so read
    /// them first if the test asserts on them.
    pub fn clear_fault_plan(&self) {
        self.inner.lock().fault = None;
    }

    /// What the armed plan has injected so far (zeroes when no plan is
    /// armed).
    pub fn fault_counters(&self) -> FaultCounters {
        self.inner
            .lock()
            .fault
            .as_ref()
            .map(|f| f.counters)
            .unwrap_or_default()
    }

    /// The most recently created file with this exact name, if any.
    /// Recovery uses this to locate a table's WAL and checkpoint files:
    /// names may repeat across incarnations (recovery creates fresh files
    /// under the old names), and the latest one is the live one.
    pub fn find_file(&self, name: &str) -> Option<FileId> {
        let g = self.inner.lock();
        g.files
            .iter()
            .rposition(|f| f.name == name)
            .map(|i| FileId(i as u32))
    }

    /// Pages of a file in allocation order (freed slots included — the
    /// WAL never frees individual pages, so its readers see the log in
    /// append order).
    pub fn file_pages(&self, file: FileId) -> Result<Vec<PageId>> {
        let g = self.inner.lock();
        g.files
            .get(file.0 as usize)
            .map(|f| f.pages.clone())
            .ok_or(StorageError::UnknownFile(file))
    }

    /// Names and live sizes of all files, for reports.
    pub fn file_inventory(&self) -> Vec<(FileId, String, u64)> {
        let g = self.inner.lock();
        g.files
            .iter()
            .enumerate()
            .map(|(i, f)| {
                (
                    FileId(i as u32),
                    f.name.clone(),
                    f.live_pages() as u64 * f.page_size as u64,
                )
            })
            .collect()
    }
}

impl Inner {
    /// Consult the armed fault plan (if any) about one page operation.
    fn check_fault(&mut self, write: bool) -> FaultOutcome {
        match self.fault.as_mut() {
            Some(f) => f.check_op(write),
            None => FaultOutcome::Ok,
        }
    }

    /// The attribution slot of the query currently on this thread's
    /// attribution stack, if any (find-or-create, oldest evicted).
    fn attributed_slot(&mut self) -> Option<&mut IoStats> {
        let qid = obs::current_query()?;
        if let Some(i) = self.attributed.iter().position(|(q, _)| *q == qid) {
            return Some(&mut self.attributed[i].1);
        }
        if self.attributed.len() >= MAX_ATTRIBUTED_QUERIES {
            self.attributed.remove(0);
        }
        self.attributed.push((qid, IoStats::default()));
        Some(&mut self.attributed.last_mut().unwrap().1)
    }

    fn charge_open(g: &mut Inner, cfg: &DiskConfig, file: FileId) {
        let f = &mut g.files[file.0 as usize];
        if !f.open {
            f.open = true;
            g.clock_ms += cfg.init_ms;
            g.stats.init_ms += cfg.init_ms;
            g.stats.file_opens += 1;
            if let Some(a) = g.attributed_slot() {
                a.init_ms += cfg.init_ms;
                a.file_opens += 1;
            }
        }
    }

    fn charge_move(g: &mut Inner, cfg: &DiskConfig, to: u64) {
        let cost = cfg.move_cost_ms(g.head, to);
        if cost > 0.0 {
            g.clock_ms += cost;
            g.stats.seek_ms += cost;
            g.stats.seeks += 1;
            if let Some(a) = g.attributed_slot() {
                a.seek_ms += cost;
                a.seeks += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(DiskConfig::default())
    }

    #[test]
    fn sequential_writes_charge_no_seeks_after_first() {
        let d = disk();
        let f = d.create_file("t", 8192);
        let pages: Vec<_> = (0..16).map(|_| d.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            d.write_page(p, Bytes::from(vec![1u8; 8192])).unwrap();
        }
        let s = d.stats();
        assert_eq!(s.page_writes, 16);
        // Head starts at 0 and the first page is at 0: zero seeks.
        assert_eq!(s.seeks, 0);
        assert_eq!(s.file_opens, 1);
    }

    #[test]
    fn random_reads_charge_seeks() {
        let d = disk();
        let f = d.create_file("t", 8192);
        let pages: Vec<_> = (0..64).map(|_| d.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            d.write_page(p, Bytes::from(vec![1u8; 8192])).unwrap();
        }
        let before = d.stats();
        // Read backwards: every read is a backward move => a seek.
        for &p in pages.iter().rev() {
            d.read_page(p).unwrap();
        }
        let delta = d.stats().since(&before);
        assert_eq!(delta.page_reads, 64);
        assert_eq!(delta.seeks, 64, "every backward hop must seek");
        assert!(delta.seek_ms > 0.0);
    }

    #[test]
    fn forward_scan_is_sequential() {
        let d = disk();
        let f = d.create_file("t", 8192);
        let pages: Vec<_> = (0..64).map(|_| d.alloc_page(f).unwrap()).collect();
        for &p in &pages {
            d.write_page(p, Bytes::from(vec![1u8; 8192])).unwrap();
        }
        d.reset_head();
        let before = d.stats();
        for &p in &pages {
            d.read_page(p).unwrap();
        }
        let delta = d.stats().since(&before);
        assert_eq!(delta.seeks, 0, "forward scan from offset 0 never seeks");
        assert!((delta.read_ms - d.config().read_cost_ms(64 * 8192)).abs() < 1e-9);
    }

    #[test]
    fn cold_open_charges_init_once_per_file() {
        let d = disk();
        let f = d.create_file("t", 4096);
        let p = d.alloc_page(f).unwrap();
        d.write_page(p, Bytes::from(vec![0u8; 4096])).unwrap();
        d.read_page(p).unwrap();
        assert_eq!(d.stats().file_opens, 1);
        d.close_all_files();
        d.read_page(p).unwrap();
        assert_eq!(d.stats().file_opens, 2);
    }

    #[test]
    fn freed_pages_are_reused_at_old_offsets() {
        let d = disk();
        let f = d.create_file("t", 4096);
        let a = d.alloc_page(f).unwrap();
        let _b = d.alloc_page(f).unwrap();
        let a_off = d.page_offset(a).unwrap();
        d.free_page(a).unwrap();
        let c = d.alloc_page(f).unwrap();
        assert_eq!(c, a, "free list must be reused");
        assert_eq!(d.page_offset(c).unwrap(), a_off);
    }

    #[test]
    fn freed_page_access_is_an_error() {
        let d = disk();
        let f = d.create_file("t", 4096);
        let p = d.alloc_page(f).unwrap();
        d.free_page(p).unwrap();
        assert!(matches!(d.read_page(p), Err(StorageError::FreedPage(_))));
        assert!(matches!(d.free_page(p), Err(StorageError::FreedPage(_))));
    }

    #[test]
    fn page_size_mismatch_is_rejected() {
        let d = disk();
        let f = d.create_file("t", 4096);
        let p = d.alloc_page(f).unwrap();
        let err = d.write_page(p, Bytes::from(vec![0u8; 100])).unwrap_err();
        assert!(matches!(err, StorageError::PageSizeMismatch { .. }));
    }

    #[test]
    fn never_written_pages_read_as_zeroes() {
        let d = disk();
        let f = d.create_file("t", 512);
        let p = d.alloc_page(f).unwrap();
        let data = d.read_page(p).unwrap();
        assert_eq!(data.len(), 512);
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn live_bytes_track_alloc_and_free() {
        let d = disk();
        let f = d.create_file("t", 4096);
        let a = d.alloc_page(f).unwrap();
        let _ = d.alloc_page(f).unwrap();
        assert_eq!(d.file_bytes(f).unwrap(), 8192);
        d.free_page(a).unwrap();
        assert_eq!(d.file_bytes(f).unwrap(), 4096);
        assert_eq!(d.total_live_bytes(), 4096);
    }

    #[test]
    fn interleaved_files_interleave_physically() {
        let d = disk();
        let f1 = d.create_file("a", 4096);
        let f2 = d.create_file("b", 4096);
        let p1 = d.alloc_page(f1).unwrap();
        let p2 = d.alloc_page(f2).unwrap();
        let p3 = d.alloc_page(f1).unwrap();
        let o1 = d.page_offset(p1).unwrap();
        let o2 = d.page_offset(p2).unwrap();
        let o3 = d.page_offset(p3).unwrap();
        assert!(o1 < o2 && o2 < o3, "offsets follow allocation order");
    }
}
