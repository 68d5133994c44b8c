//! Page-oriented write-ahead log with group commit.
//!
//! The WAL is an append-only byte stream of CRC-framed, LSN-stamped
//! records, laid out over ordinary device pages (written directly, never
//! through the buffer pool — log writes must reach the platter when the
//! barrier says they do). Framing per record:
//!
//! ```text
//! [len: u32 LE] [lsn: u64 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! `len == 0` marks the end of the log; records may span page boundaries.
//!
//! **Group commit.** [`Wal::append`] only buffers the record in memory
//! (volatile — a crash loses it) and returns its [`Lsn`]. Every
//! [`DiskConfig::wal_group_ops`](crate::DiskConfig::wal_group_ops)
//! appends — or on an explicit [`Wal::sync`] — the pending batch is
//! written in one contiguous pass and sealed with one
//! [`fsync_ms`](crate::DiskConfig::fsync_ms) barrier. An operation is
//! *committed* iff its LSN is ≤ [`Wal::durable_lsn`]: the acknowledged
//! durability horizon that recovery is guaranteed to restore.
//!
//! **Torn-write safety.** Flushing a batch rewrites the current tail page
//! (old bytes + appended bytes). The already-durable prefix of that page
//! is byte-identical in the old and new images, so whichever sectors of a
//! torn write reach the platter, the prefix survives; a record cut by the
//! tear fails its CRC and [`read_log`] truncates the log there — exactly
//! the prefix-durability contract group commit promises.
//!
//! Transient write faults (see [`crate::fault`]) are retried in place
//! with a small backoff charged to the simulated clock; a fault that
//! outlives the retries surfaces to the caller, which is expected to
//! degrade to read-only rather than lose the guarantee silently.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::disk::SimDisk;
use crate::error::{Result, StorageError};
use crate::file::FileId;

/// Log sequence number. Strictly increasing from 1 per table log;
/// `Lsn(0)` means "nothing durable yet".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

/// Cumulative WAL activity counters (see
/// [`MetricsRegistry`](../../upi_query/metrics/index.html) for where they
/// surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCounters {
    /// Records appended (durable or not yet).
    pub records: u64,
    /// Group-commit flushes (each = one contiguous write + one barrier).
    pub batches: u64,
    /// Records made durable by those flushes.
    pub synced_records: u64,
    /// Transient write faults retried during flushes.
    pub retries: u64,
}

impl WalCounters {
    /// Mean records per group-commit batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.synced_records as f64 / self.batches as f64
        }
    }
}

/// Sanity bound on one record's payload: recovery treats anything larger
/// as corruption (a torn length field reads as garbage).
const MAX_RECORD_BYTES: u32 = 16 << 20;

/// Bounded retries against transient write faults before a flush gives up.
const FLUSH_RETRIES: u32 = 4;

/// Per-retry backoff charged to the simulated clock, ms.
const RETRY_BACKOFF_MS: f64 = 0.2;

/// The write-ahead log of one table.
pub struct Wal {
    disk: Arc<SimDisk>,
    file: FileId,
    page_size: usize,
    group_ops: usize,
    fsync_ms: f64,
    inner: Mutex<WalInner>,
}

struct WalInner {
    /// Log pages in append order.
    pages: Vec<crate::page::PageId>,
    /// Bytes of the stream that are durable on the device.
    durable_bytes: usize,
    /// Content of the partially-filled tail page (the durable stream's
    /// last `durable_bytes % page_size` bytes), kept so a flush can
    /// rewrite that page with the batch appended.
    tail: Vec<u8>,
    next_lsn: u64,
    durable_lsn: u64,
    /// Appended, not yet flushed records (lsn, frame bytes).
    pending: Vec<(u64, Vec<u8>)>,
    counters: WalCounters,
}

impl Wal {
    /// Create a fresh, empty log file named `name`, with LSNs starting at
    /// `first_lsn` (1 for a brand-new table; recovery continues the old
    /// numbering so LSNs stay unique across incarnations).
    pub fn create(disk: Arc<SimDisk>, name: &str, page_size: u32, first_lsn: u64) -> Self {
        let cfg = disk.config();
        let (group_ops, fsync_ms) = (cfg.wal_group_ops.max(1), cfg.fsync_ms);
        let file = disk.create_file(name, page_size);
        Wal {
            disk,
            file,
            page_size: page_size as usize,
            group_ops,
            fsync_ms,
            inner: Mutex::new(WalInner {
                pages: Vec::new(),
                durable_bytes: 0,
                tail: Vec::new(),
                next_lsn: first_lsn.max(1),
                durable_lsn: first_lsn.max(1) - 1,
                pending: Vec::new(),
                counters: WalCounters::default(),
            }),
        }
    }

    /// The log's device file.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Append one record. Returns its [`Lsn`] immediately; the record is
    /// only *durable* (committed) once a group flush carries it out —
    /// automatically after
    /// [`wal_group_ops`](crate::DiskConfig::wal_group_ops) appends, or on
    /// [`sync`](Self::sync). An error means the flush this append
    /// triggered could not complete even with retries; the record stays
    /// pending and the caller should degrade to read-only.
    pub fn append(&self, payload: &[u8]) -> Result<Lsn> {
        let mut g = self.inner.lock();
        let lsn = g.next_lsn;
        g.next_lsn += 1;
        g.counters.records += 1;
        let mut frame = Vec::with_capacity(16 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&lsn.to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        g.pending.push((lsn, frame));
        if g.pending.len() >= self.group_ops {
            self.flush_group(&mut g)?;
        }
        Ok(Lsn(lsn))
    }

    /// Force every pending record to the device behind one barrier and
    /// return the new durability horizon.
    pub fn sync(&self) -> Result<Lsn> {
        let mut g = self.inner.lock();
        self.flush_group(&mut g)?;
        Ok(Lsn(g.durable_lsn))
    }

    /// Highest LSN guaranteed on the device (0 = none).
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.inner.lock().durable_lsn)
    }

    /// The LSN the next append will get.
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.inner.lock().next_lsn)
    }

    /// Cumulative activity counters.
    pub fn counters(&self) -> WalCounters {
        self.inner.lock().counters
    }

    /// Write the pending batch: tail page rewrite + full pages + one
    /// fsync barrier. On success the batch is durable and cleared; on
    /// failure nothing is acknowledged (pending stays, `durable_lsn`
    /// unchanged) and the same batch is retried by the next flush.
    fn flush_group(&self, g: &mut WalInner) -> Result<()> {
        if g.pending.is_empty() {
            return Ok(());
        }
        let ps = self.page_size;
        // The stream image to (re)write starts at the tail page boundary.
        let page_start = g.durable_bytes - g.tail.len();
        let first_page = page_start / ps;
        let mut image = g.tail.clone();
        for (_, frame) in &g.pending {
            image.extend_from_slice(frame);
        }
        // Make sure every page the image spans exists.
        let pages_needed = first_page + image.len().div_ceil(ps);
        while g.pages.len() < pages_needed {
            g.pages.push(self.disk.alloc_page(self.file)?);
        }
        for (i, chunk) in image.chunks(ps).enumerate() {
            let pid = g.pages[first_page + i];
            let mut buf = chunk.to_vec();
            buf.resize(ps, 0);
            write_with_retry(&self.disk, pid, Bytes::from(buf), &mut g.counters.retries)?;
        }
        // The fsync-equivalent barrier: the device acknowledges the batch.
        self.disk.charge_ms(self.fsync_ms);
        let batch = std::mem::take(&mut g.pending);
        g.counters.batches += 1;
        g.counters.synced_records += batch.len() as u64;
        g.durable_lsn = batch.last().map(|(l, _)| *l).unwrap_or(g.durable_lsn);
        g.durable_bytes = page_start + image.len();
        let tail_len = image.len() % ps;
        g.tail = image[image.len() - tail_len..].to_vec();
        Ok(())
    }
}

/// Write one page, retrying transient faults in place with a growing
/// backoff charged to the simulated clock; `retries` counts them. The
/// page image is built once — every attempt clones the `Bytes` handle,
/// not the buffer. A fault that outlives the retries is returned.
fn write_with_retry(
    disk: &SimDisk,
    pid: crate::page::PageId,
    data: Bytes,
    retries: &mut u64,
) -> Result<()> {
    let mut last = StorageError::Transient("page write");
    for attempt in 0..=FLUSH_RETRIES {
        match disk.write_page(pid, data.clone()) {
            Ok(()) => return Ok(()),
            Err(StorageError::Transient(op)) => {
                *retries += 1;
                last = StorageError::Transient(op);
                disk.charge_ms(RETRY_BACKOFF_MS * (attempt + 1) as f64);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// One record as recovered from the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredRecord {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// The payload exactly as appended.
    pub payload: Vec<u8>,
}

/// Read a log file back: every record whose frame survives validation, in
/// order, plus whether the log was truncated by damage (torn tail, crash
/// mid-batch) rather than ending cleanly. Transient read faults are
/// retried; reading stops at the first record that fails its length,
/// CRC, or LSN-monotonicity check — everything before it is exactly the
/// durable prefix.
pub fn read_log(disk: &SimDisk, file: FileId) -> Result<(Vec<RecoveredRecord>, bool)> {
    let pages = disk.file_pages(file)?;
    let mut stream = Vec::new();
    for pid in pages {
        stream.extend_from_slice(&read_with_retry(disk, pid)?);
    }
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut prev_lsn = 0u64;
    loop {
        if pos + 16 > stream.len() {
            // Ran off the end without a terminator: only damaged if any
            // header bytes straggle.
            return Ok((out, stream[pos..].iter().any(|&b| b != 0)));
        }
        let len = u32::from_le_bytes(stream[pos..pos + 4].try_into().unwrap());
        if len == 0 {
            return Ok((out, false));
        }
        if len > MAX_RECORD_BYTES || pos + 16 + len as usize > stream.len() {
            return Ok((out, true));
        }
        let lsn = u64::from_le_bytes(stream[pos + 4..pos + 12].try_into().unwrap());
        let crc = u32::from_le_bytes(stream[pos + 12..pos + 16].try_into().unwrap());
        let payload = &stream[pos + 16..pos + 16 + len as usize];
        if lsn <= prev_lsn || crc32(payload) != crc {
            return Ok((out, true));
        }
        prev_lsn = lsn;
        out.push(RecoveredRecord {
            lsn: Lsn(lsn),
            payload: payload.to_vec(),
        });
        pos += 16 + len as usize;
    }
}

/// Magic sealing a blob (checkpoint) file's header.
const BLOB_MAGIC: u32 = 0x5550_4943; // "UPIC"

/// `[magic u32][len u32][crc u32]`, then the payload.
const BLOB_HEADER_LEN: usize = 12;

/// Write `payload` as a standalone CRC-sealed blob file (used for
/// checkpoint images). Creates a fresh file named `name`; the header
/// `[magic][len][crc]` plus payload is laid out over pages and written
/// with transient-fault retries. No barrier is charged here — the caller
/// seals the checkpoint by appending (and syncing) a WAL record that
/// points at it, so a blob without a durable pointer is garbage by
/// construction.
pub fn write_blob(
    disk: &Arc<SimDisk>,
    name: &str,
    page_size: u32,
    payload: &[u8],
) -> Result<FileId> {
    let file = disk.create_file(name, page_size);
    let ps = page_size as usize;
    let mut header = [0u8; BLOB_HEADER_LEN];
    header[0..4].copy_from_slice(&BLOB_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    // The stream is `header ++ payload`, cut into zero-padded pages; each
    // page image is assembled once, straight from the two slices.
    let mut parts: [&[u8]; 2] = [&header, payload];
    while parts.iter().any(|p| !p.is_empty()) {
        let mut buf = Vec::with_capacity(ps);
        for part in &mut parts {
            let (chunk, rest) = part.split_at(part.len().min(ps - buf.len()));
            buf.extend_from_slice(chunk);
            *part = rest;
        }
        buf.resize(ps, 0);
        let pid = disk.alloc_page(file)?;
        write_with_retry(disk, pid, Bytes::from(buf), &mut 0)?;
    }
    Ok(file)
}

/// Read a blob file back, validating magic, length, and CRC.
pub fn read_blob(disk: &SimDisk, file: FileId) -> Result<Vec<u8>> {
    let pages = disk.file_pages(file)?;
    let mut stream = Vec::new();
    for pid in pages {
        stream.extend_from_slice(&read_with_retry(disk, pid)?);
    }
    if stream.len() < BLOB_HEADER_LEN {
        return Err(StorageError::Corrupted("blob too short".into()));
    }
    let magic = u32::from_le_bytes(stream[0..4].try_into().unwrap());
    if magic != BLOB_MAGIC {
        return Err(StorageError::Corrupted("blob magic mismatch".into()));
    }
    let len = u32::from_le_bytes(stream[4..8].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(stream[8..12].try_into().unwrap());
    if BLOB_HEADER_LEN + len > stream.len() {
        return Err(StorageError::Corrupted("blob truncated".into()));
    }
    if crc32(&stream[BLOB_HEADER_LEN..BLOB_HEADER_LEN + len]) != crc {
        return Err(StorageError::Corrupted("blob crc mismatch".into()));
    }
    // Hand the read buffer back as the payload instead of copying it out.
    stream.truncate(BLOB_HEADER_LEN + len);
    stream.drain(..BLOB_HEADER_LEN);
    Ok(stream)
}

fn read_with_retry(disk: &SimDisk, pid: crate::page::PageId) -> Result<Bytes> {
    let mut last = StorageError::Transient("wal read");
    for attempt in 0..=FLUSH_RETRIES {
        match disk.read_page(pid) {
            Ok(b) => return Ok(b),
            Err(StorageError::Transient(op)) => {
                last = StorageError::Transient(op);
                disk.charge_ms(RETRY_BACKOFF_MS * (attempt + 1) as f64);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// The reflected CRC-32 polynomial (IEEE 802.3).
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-
/// time table, `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k`
/// zero bytes. Derived at compile time from [`CRC_POLY`] alone.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3), table-driven: eight bytes per step through
/// `CRC_TABLES` (slicing-by-8), then the tail a byte at a time. Same
/// values as the bitwise definition (kept as the test reference), so
/// every existing log frame and blob verifies.
///
/// Every WAL append and every checkpoint blob — written once, read and
/// re-written on recovery — passes through here. The bitwise loop this
/// replaces ran at ≈ 200 MB/s: measured on `dml_lifecycle`, ≈ 3 µs of the
/// 3.8 µs one ≈ 750-byte append cost (0.8 µs now) and about half of a
/// 7.4 MB checkpoint's 67 ms of host time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The bitwise definition [`crc32`] must agree with.
#[cfg(test)]
fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC_POLY & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiskConfig;
    use crate::fault::FaultPlan;

    fn disk_with(group_ops: usize) -> Arc<SimDisk> {
        Arc::new(SimDisk::new(DiskConfig {
            wal_group_ops: group_ops,
            ..DiskConfig::default()
        }))
    }

    #[test]
    fn append_buffers_until_group_boundary() {
        let d = disk_with(4);
        let wal = Wal::create(d.clone(), "t.wal", 512, 1);
        for i in 0..3 {
            let lsn = wal.append(&[i as u8]).unwrap();
            assert_eq!(lsn, Lsn(i + 1));
        }
        assert_eq!(wal.durable_lsn(), Lsn(0), "batch not full: nothing durable");
        assert_eq!(d.stats().page_writes, 0);
        wal.append(&[3]).unwrap(); // 4th record: group flush
        assert_eq!(wal.durable_lsn(), Lsn(4));
        assert!(d.stats().page_writes > 0);
        assert_eq!(wal.counters().batches, 1);
        assert!((wal.counters().mean_batch() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sync_flushes_partial_batches() {
        let d = disk_with(64);
        let wal = Wal::create(d.clone(), "t.wal", 512, 1);
        wal.append(b"hello").unwrap();
        assert_eq!(wal.durable_lsn(), Lsn(0));
        assert_eq!(wal.sync().unwrap(), Lsn(1));
        let (recs, truncated) = read_log(&d, wal.file()).unwrap();
        assert!(!truncated);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"hello");
    }

    #[test]
    fn group_commit_amortizes_the_barrier() {
        // Same 64 records: per-op commit pays 64 barriers, group-of-16
        // pays 4. The clock difference must show ~60 barriers.
        let clock = |group: usize| {
            let d = disk_with(group);
            let wal = Wal::create(d.clone(), "t.wal", 4096, 1);
            for i in 0..64u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            wal.sync().unwrap();
            d.clock_ms()
        };
        let per_op = clock(1);
        let grouped = clock(16);
        let fsync = DiskConfig::default().fsync_ms;
        assert!(
            per_op - grouped >= 59.0 * fsync,
            "per-op {per_op} vs grouped {grouped}"
        );
    }

    #[test]
    fn records_span_page_boundaries() {
        let d = disk_with(1);
        let wal = Wal::create(d.clone(), "t.wal", 128, 1);
        for i in 0..8u8 {
            wal.append(&[i; 100]).unwrap();
        }
        let (recs, truncated) = read_log(&d, wal.file()).unwrap();
        assert!(!truncated);
        assert_eq!(recs.len(), 8);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.lsn, Lsn(i as u64 + 1));
            assert_eq!(r.payload, vec![i as u8; 100]);
        }
    }

    #[test]
    fn crash_mid_batch_recovers_a_prefix() {
        let d = disk_with(1);
        let wal = Wal::create(d.clone(), "t.wal", 512, 1);
        for i in 0..5u64 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        let durable = wal.durable_lsn();
        assert_eq!(durable, Lsn(5));
        // Kill the device: the next appends fail.
        d.set_fault_plan(FaultPlan::kill_at(0));
        assert!(matches!(
            wal.append(&99u64.to_le_bytes()),
            Err(StorageError::Crashed)
        ));
        d.clear_fault_plan();
        let (recs, _) = read_log(&d, wal.file()).unwrap();
        assert_eq!(recs.len(), 5, "exactly the durable prefix survives");
    }

    #[test]
    fn torn_tail_page_is_truncated_not_fatal() {
        let d = disk_with(4);
        let wal = Wal::create(d.clone(), "t.wal", 512, 1);
        // First batch durable cleanly.
        for i in 0..4u64 {
            wal.append(&[i as u8; 40]).unwrap();
        }
        assert_eq!(wal.durable_lsn(), Lsn(4));
        // Tear the tail-page rewrite of the second batch.
        d.set_fault_plan(FaultPlan::torn_write(0));
        for i in 4..8u64 {
            wal.append(&[i as u8; 40]).unwrap();
        }
        d.clear_fault_plan();
        let (recs, truncated) = read_log(&d, wal.file()).unwrap();
        assert!(truncated, "the tear must be detected");
        assert!(
            recs.len() >= 4,
            "records durable before the torn batch must survive, got {}",
            recs.len()
        );
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.payload, vec![i as u8; 40]);
        }
    }

    #[test]
    fn transient_write_faults_are_retried() {
        let d = disk_with(1);
        d.set_fault_plan(FaultPlan::transient(0.0, 0.3, 42));
        let wal = Wal::create(d.clone(), "t.wal", 512, 1);
        for i in 0..32u64 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        let c = wal.counters();
        assert!(c.retries > 0, "0.3 write-fault rate must trigger retries");
        d.clear_fault_plan();
        let (recs, truncated) = read_log(&d, wal.file()).unwrap();
        assert!(!truncated);
        assert_eq!(recs.len(), 32, "every record must survive the faults");
    }

    #[test]
    fn blob_round_trips_and_detects_tears() {
        let d = disk_with(1);
        let payload: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        let f = write_blob(&d, "t.ckpt", 512, &payload).unwrap();
        assert_eq!(read_blob(&d, f).unwrap(), payload);
        // A torn blob write must fail validation, not return garbage.
        d.set_fault_plan(FaultPlan::torn_write(2));
        let f2 = write_blob(&d, "t.ckpt2", 512, &payload).unwrap();
        d.clear_fault_plan();
        assert!(matches!(read_blob(&d, f2), Err(StorageError::Corrupted(_))));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
    }

    /// Seeded filler bytes (xorshift64*).
    fn noise(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn table_crc_equals_the_bitwise_reference() {
        // Every length 0..=4096 at every start offset within an 8-byte
        // word: the word loop, its tail and their hand-over all occur.
        let buf = noise(4096 + 8, 0x9E37_79B9_7F4A_7C15);
        for align in 0..8 {
            for len in 0..=4096 {
                let data = &buf[align..align + len];
                assert_eq!(
                    crc32(data),
                    crc32_reference(data),
                    "len {len} at offset {align}"
                );
            }
        }
        let big = noise(8 << 20, 42);
        assert_eq!(crc32(&big), crc32_reference(&big));
    }

    /// A log generation and a blob laid out by hand with the *reference*
    /// CRC — what a build from before the table-driven `crc32` left on the
    /// device — must replay and load.
    #[test]
    fn logs_and_blobs_sealed_by_the_bitwise_crc_still_verify() {
        let d = disk_with(1);
        let ps = 256usize;
        let write_stream = |name: &str, stream: &[u8]| {
            let file = d.create_file(name, ps as u32);
            for chunk in stream.chunks(ps) {
                let mut page = chunk.to_vec();
                page.resize(ps, 0);
                let pid = d.alloc_page(file).unwrap();
                d.write_page(pid, Bytes::from(page)).unwrap();
            }
            file
        };

        let payloads: Vec<Vec<u8>> = (0..12u64)
            .map(|i| noise(40 + 61 * i as usize, i + 1))
            .collect();
        let mut log = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            log.extend_from_slice(&(p.len() as u32).to_le_bytes());
            log.extend_from_slice(&(i as u64 + 1).to_le_bytes());
            log.extend_from_slice(&crc32_reference(p).to_le_bytes());
            log.extend_from_slice(p);
        }
        let (recs, truncated) = read_log(&d, write_stream("old.wal", &log)).unwrap();
        assert!(!truncated);
        assert_eq!(recs.len(), payloads.len());
        for (i, (r, p)) in recs.iter().zip(&payloads).enumerate() {
            assert_eq!(r.lsn, Lsn(i as u64 + 1));
            assert_eq!(&r.payload, p);
        }

        let image = noise(5000, 7);
        let mut blob = Vec::new();
        blob.extend_from_slice(&BLOB_MAGIC.to_le_bytes());
        blob.extend_from_slice(&(image.len() as u32).to_le_bytes());
        blob.extend_from_slice(&crc32_reference(&image).to_le_bytes());
        blob.extend_from_slice(&image);
        assert_eq!(
            read_blob(&d, write_stream("old.ckpt", &blob)).unwrap(),
            image
        );
        // And the other way round: what `write_blob` lays out today is
        // byte for byte that hand-built stream.
        let f = write_blob(&d, "new.ckpt", ps as u32, &image).unwrap();
        let mut written = Vec::new();
        for pid in d.file_pages(f).unwrap() {
            written.extend_from_slice(&d.read_page(pid).unwrap());
        }
        assert_eq!(&written[..blob.len()], &blob[..]);
        assert!(written[blob.len()..].iter().all(|&b| b == 0));
        assert_eq!(written.len(), blob.len().div_ceil(ps) * ps);
    }

    #[test]
    fn blob_pages_survive_write_retries() {
        let d = disk_with(1);
        let payload = noise(10_000, 3);
        d.set_fault_plan(FaultPlan::transient(0.0, 0.3, 9));
        let f = write_blob(&d, "t.ckpt", 512, &payload).unwrap();
        assert!(d.fault_counters().transients() > 0, "faults were injected");
        d.clear_fault_plan();
        assert_eq!(read_blob(&d, f).unwrap(), payload);
    }
}
