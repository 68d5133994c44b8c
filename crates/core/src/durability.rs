//! Logical WAL records and checkpoint images for
//! [`UncertainTable`](crate::UncertainTable).
//!
//! ## Why logical redo, not physical
//!
//! The index structures keep essential metadata in memory only (B+Tree
//! roots, fracture component lists, pointer histograms, `AttrStats`, the
//! fractured insert buffer) — a physical page-level REDO log would need a
//! persistent catalog for every one of them. Instead the WAL records the
//! *operations* (`Insert`/`Delete`/`Update`/`AddSecondary`/`Flush`/
//! `Merge`), a checkpoint snapshots the *possible-worlds content* (schema,
//! layout, the live tuple set, a session payload), and recovery rebuilds
//! the table by loading the last durable checkpoint and replaying the
//! durable log suffix through the ordinary DML paths. Heap, cutoff index,
//! secondaries, PII and pointer histograms all re-derive from that replay,
//! so they are *jointly consistent* by construction — the admissible-state
//! notion the crash oracle checks.
//!
//! One consequence, documented rather than fought: a fractured table's
//! *component layout* is not bit-stable across recovery — tuples that
//! lived in pre-checkpoint fractures load into the rebuilt main component
//! (exactly as a merge would have placed them), while post-checkpoint
//! `Flush`/`Merge` records reproduce the later fracture events. The
//! possible-worlds state (what every query sees) is identical.
//!
//! ## Record catalog
//!
//! | tag | record | payload |
//! |-----|--------|---------|
//! | 1 | `Insert(t)` | length-prefixed [`encode_tuple`](upi_uncertain::encode_tuple) |
//! | 2 | `Delete(t)` | length-prefixed tuple (full image: UPI delete needs the alternatives) |
//! | 3 | `Update{old,new}` | two length-prefixed tuples |
//! | 4 | `AddSecondary(attr)` | `u32` column index |
//! | 5 | `Flush` | — (fractured buffer → new fracture) |
//! | 6 | `Merge` | — (fracture merge) |
//! | 7 | `Checkpoint{file}` | `u32` device file id of the checkpoint blob |
//! | 8 | `MergeStep{components}` | `u32` component count compacted into one |
//!
//! A checkpoint is *sealed* by its WAL record: the blob is written first,
//! the pointer record is appended and synced after, so a crash between
//! the two leaves the old checkpoint authoritative and the orphan blob is
//! garbage by construction.

use upi_storage::error::{Result, StorageError};
use upi_storage::{wal, FileId, Lsn, Store};
use upi_uncertain::tuple::encode_tuple_into;
use upi_uncertain::{FieldKind, Schema, Tuple, TupleView};

use crate::fractured::FracturedConfig;
use crate::records::Records;
use crate::table::TableLayout;
use crate::upi::UpiConfig;

/// One logical redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A tuple was inserted (covers both auto-id and caller-id inserts —
    /// the tuple carries its id).
    Insert(Tuple),
    /// A tuple was deleted; the full image is logged because the UPI
    /// delete path must unhook every alternative's index entries.
    Delete(Tuple),
    /// Delete `old`, insert `new`, as one logical operation.
    Update {
        /// The tuple image being replaced.
        old: Tuple,
        /// The replacement image (may change id).
        new: Tuple,
    },
    /// A secondary index was attached on this column.
    AddSecondary(u32),
    /// The fractured insert buffer was flushed into a new fracture.
    Flush,
    /// Fractures were merged into a fresh main component.
    Merge,
    /// A checkpoint blob (an encoded `CheckpointImage`) became
    /// authoritative.
    Checkpoint {
        /// Device file holding the blob.
        file: u32,
    },
    /// One incremental maintenance step compacted `components` adjacent
    /// components into one (see `FracturedUpi::merge_step`). Replay is a
    /// clamped best-effort compaction: the rebuilt layout after a crash
    /// differs from the logged one (pre-checkpoint fractures load into
    /// main), and *any* compaction preserves the possible-worlds state,
    /// so the replayed step folds what the rebuilt layout has.
    MergeStep {
        /// Number of adjacent components merged into one (>= 2).
        components: u32,
    },
}

impl WalRecord {
    /// Binary encoding (tag byte + payload, see the module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Insert(t) => {
                out.push(1);
                push_tuple(&mut out, t);
            }
            WalRecord::Delete(t) => {
                out.push(2);
                push_tuple(&mut out, t);
            }
            WalRecord::Update { old, new } => {
                out.push(3);
                push_tuple(&mut out, old);
                push_tuple(&mut out, new);
            }
            WalRecord::AddSecondary(attr) => {
                out.push(4);
                out.extend_from_slice(&attr.to_le_bytes());
            }
            WalRecord::Flush => out.push(5),
            WalRecord::Merge => out.push(6),
            WalRecord::Checkpoint { file } => {
                out.push(7);
                out.extend_from_slice(&file.to_le_bytes());
            }
            WalRecord::MergeStep { components } => {
                out.push(8);
                out.extend_from_slice(&components.to_le_bytes());
            }
        }
        out
    }

    /// Decode one record; `Err(Corrupted)` on anything malformed.
    pub fn decode(data: &[u8]) -> Result<WalRecord> {
        let mut cur = Cursor::new(data);
        let rec = match cur.u8()? {
            1 => WalRecord::Insert(cur.tuple()?),
            2 => WalRecord::Delete(cur.tuple()?),
            3 => WalRecord::Update {
                old: cur.tuple()?,
                new: cur.tuple()?,
            },
            4 => WalRecord::AddSecondary(cur.u32()?),
            5 => WalRecord::Flush,
            6 => WalRecord::Merge,
            7 => WalRecord::Checkpoint { file: cur.u32()? },
            8 => WalRecord::MergeStep {
                components: cur.u32()?,
            },
            t => return Err(corrupt(format!("unknown WAL record tag {t}"))),
        };
        Ok(rec)
    }
}

/// Everything a checkpoint must capture to rebuild the table from scratch:
/// definition (schema, layout, clustering column), identity state
/// (`next_id`), the secondary indexes attached so far, the live
/// possible-worlds content, and an opaque session payload (the query
/// layer stores its serialized cost-model calibration here).
///
/// The live tuples stay encoded: a checkpoint copies their records off
/// the heap pages into the blob, and recovery builds from the blob's.
#[derive(Debug)]
pub(crate) struct CheckpointImage {
    /// Table schema.
    pub schema: Schema,
    /// Physical layout (with its tuning config).
    pub layout: TableLayout,
    /// The clustering (primary uncertain) column.
    pub primary_attr: u32,
    /// Secondary-index columns in attach order.
    pub sec_attrs: Vec<u32>,
    /// Auto-id high-water mark.
    pub next_id: u64,
    /// Live tuples (the possible-worlds state at checkpoint time), in
    /// blob order.
    pub records: Records,
    /// Opaque session payload (e.g. serialized calibration).
    pub extra: Vec<u8>,
}

const CKPT_VERSION: u8 = 1;

impl CheckpointImage {
    /// Binary encoding of the full image.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![CKPT_VERSION];
        match &self.layout {
            TableLayout::Unclustered => out.push(0),
            TableLayout::Upi(cfg) => {
                out.push(1);
                push_upi_cfg(&mut out, cfg);
            }
            TableLayout::FracturedUpi(cfg) => {
                out.push(2);
                push_upi_cfg(&mut out, &cfg.upi);
                out.extend_from_slice(&(cfg.buffer_ops as u64).to_le_bytes());
            }
        }
        out.extend_from_slice(&self.primary_attr.to_le_bytes());
        out.extend_from_slice(&(self.schema.len() as u16).to_le_bytes());
        for i in 0..self.schema.len() {
            let (name, kind) = self.schema.field(i);
            let bytes = name.as_bytes();
            out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            out.extend_from_slice(bytes);
            out.push(match kind {
                FieldKind::U64 => 0,
                FieldKind::F64 => 1,
                FieldKind::Str => 2,
                FieldKind::Discrete => 3,
                FieldKind::Point => 4,
            });
        }
        out.extend_from_slice(&(self.sec_attrs.len() as u16).to_le_bytes());
        for a in &self.sec_attrs {
            out.extend_from_slice(&a.to_le_bytes());
        }
        out.extend_from_slice(&self.next_id.to_le_bytes());
        let framed: usize = self.records.iter().map(|r| 4 + r.len()).sum();
        out.reserve(8 + framed + 4 + self.extra.len());
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        for record in self.records.iter() {
            out.extend_from_slice(&(record.len() as u32).to_le_bytes());
            out.extend_from_slice(record);
        }
        out.extend_from_slice(&(self.extra.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.extra);
        out
    }

    /// Decode a checkpoint image; `Err(Corrupted)` on anything malformed.
    pub fn decode(data: &[u8]) -> Result<CheckpointImage> {
        let mut cur = Cursor::new(data);
        let version = cur.u8()?;
        if version != CKPT_VERSION {
            return Err(corrupt(format!("checkpoint version {version}")));
        }
        let layout = match cur.u8()? {
            0 => TableLayout::Unclustered,
            1 => TableLayout::Upi(cur.upi_cfg()?),
            2 => TableLayout::FracturedUpi(FracturedConfig {
                upi: cur.upi_cfg()?,
                buffer_ops: cur.u64()? as usize,
            }),
            t => return Err(corrupt(format!("unknown layout tag {t}"))),
        };
        let primary_attr = cur.u32()?;
        let n_fields = cur.u16()? as usize;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let n = cur.u16()? as usize;
            let name = String::from_utf8(cur.bytes(n)?.to_vec())
                .map_err(|_| corrupt("schema name not utf-8".into()))?;
            let kind = match cur.u8()? {
                0 => FieldKind::U64,
                1 => FieldKind::F64,
                2 => FieldKind::Str,
                3 => FieldKind::Discrete,
                4 => FieldKind::Point,
                t => return Err(corrupt(format!("unknown field kind {t}"))),
            };
            fields.push((name, kind));
        }
        let schema = Schema::new(fields.iter().map(|(n, k)| (n.as_str(), *k)).collect());
        let n_sec = cur.u16()? as usize;
        let mut sec_attrs = Vec::with_capacity(n_sec);
        for _ in 0..n_sec {
            sec_attrs.push(cur.u32()?);
        }
        let next_id = cur.u64()?;
        let mut records = Records::default();
        for _ in 0..cur.u64()? {
            records.push(&cur.record()?);
        }
        let n_extra = cur.u32()? as usize;
        let extra = cur.bytes(n_extra)?.to_vec();
        Ok(CheckpointImage {
            schema,
            layout,
            primary_attr,
            sec_attrs,
            next_id,
            records,
            extra,
        })
    }
}

/// What [`UncertainTable::recover`](crate::table::UncertainTable::recover)
/// found and did.
#[derive(Debug, Clone)]
pub struct RecoveryInfo {
    /// Highest LSN recovered from the device — the durability horizon.
    /// Guaranteed ≥ the last `durable_lsn` the crashed incarnation
    /// acknowledged (a mid-flush crash may persist *more* than was
    /// acknowledged, never less).
    pub durable_lsn: Lsn,
    /// DML records replayed on top of the checkpoint.
    pub replayed: usize,
    /// Whether the log ended in damage (torn page, crash mid-batch)
    /// rather than a clean terminator.
    pub log_truncated: bool,
    /// The session payload of the recovered checkpoint.
    pub extra: Vec<u8>,
    /// Injected faults the crashed incarnation had survived, snapshot at
    /// reboot (for observability; zeroed if no plan was armed).
    pub faults_survived: u64,
}

/// Internal: the durable log of one table plus its degraded-mode state.
pub(crate) struct TableWal {
    pub wal: upi_storage::Wal,
    /// `Some(reason)` once the WAL failed to advance: DML is rejected.
    pub read_only: Option<String>,
    /// File of the authoritative checkpoint blob (freed when superseded).
    pub ckpt_file: Option<FileId>,
}

impl TableWal {
    /// Append + encode one logical record; on persistent failure the
    /// table enters read-only mode and the pool is poisoned.
    pub fn log(&mut self, store: &Store, rec: &WalRecord) -> Result<Lsn> {
        if let Some(reason) = &self.read_only {
            return Err(StorageError::ReadOnly(reason.clone()));
        }
        match self.wal.append(&rec.encode()) {
            Ok(lsn) => Ok(lsn),
            Err(e) => {
                let reason = format!("WAL cannot advance: {e}");
                store.pool.poison(&reason);
                self.read_only = Some(reason.clone());
                Err(StorageError::ReadOnly(reason))
            }
        }
    }
}

/// Read and concatenate every durable generation of `{name}.wal`, in
/// LSN order, into one logical log.
///
/// [`UncertainTable::checkpoint`](crate::table::UncertainTable::checkpoint)
/// rotates the log to a fresh generation file after every sealed
/// checkpoint and retires the covered one, so at most two live
/// generations normally exist — but a crash inside the
/// rotate→seal→retire window can leave several (including freed or
/// still-empty files, which contribute no records). Generations are
/// ordered by their first record's LSN; concatenation stops at any
/// cross-generation gap or overlap (the tail past a gap is unusable,
/// exactly like a torn record inside one file), reported via the
/// `log_truncated` flag.
pub(crate) fn read_wal_generations(
    store: &Store,
    name: &str,
) -> Result<(Vec<wal::RecoveredRecord>, bool)> {
    let wal_name = format!("{name}.wal");
    let mut found = false;
    let mut gens: Vec<(Vec<wal::RecoveredRecord>, bool)> = Vec::new();
    for (fid, fname, live_bytes) in store.disk.file_inventory() {
        if fname != wal_name {
            continue;
        }
        found = true;
        // A retired generation keeps its file id but every page is freed
        // (`free_file_pages` is metadata-only); reading it would trip the
        // freed-page tripwire, and it has nothing durable to contribute.
        if live_bytes == 0 {
            continue;
        }
        gens.push(wal::read_log(&store.disk, fid)?);
    }
    if !found {
        return Err(corrupt(format!("no WAL for table '{name}'")));
    }
    gens.sort_by_key(|(recs, _)| recs.first().map(|r| r.lsn.0).unwrap_or(u64::MAX));
    let mut records: Vec<wal::RecoveredRecord> = Vec::new();
    let mut log_truncated = false;
    for (recs, trunc) in gens {
        if recs.is_empty() {
            // Freed generation or a rotation the crash caught before any
            // record landed: nothing to contribute. Its damage flag is
            // meaningless too (the file holds no acknowledged records).
            continue;
        }
        if let Some(last) = records.last() {
            if recs[0].lsn.0 != last.lsn.0 + 1 {
                log_truncated = true;
                break;
            }
        }
        records.extend(recs);
        log_truncated |= trunc;
    }
    Ok((records, log_truncated))
}

/// Scan a recovered log for the authoritative checkpoint: the *last*
/// `Checkpoint` record whose blob still validates (a torn blob falls back
/// to the previous one). Returns `(record index, image)`.
pub(crate) fn find_checkpoint(
    store: &Store,
    records: &[wal::RecoveredRecord],
) -> Result<(usize, CheckpointImage)> {
    let mut candidates: Vec<(usize, u32)> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if let Ok(WalRecord::Checkpoint { file }) = WalRecord::decode(&r.payload) {
            candidates.push((i, file));
        }
    }
    for (i, file) in candidates.into_iter().rev() {
        match wal::read_blob(&store.disk, FileId(file)) {
            Ok(blob) => return Ok((i, CheckpointImage::decode(&blob)?)),
            Err(StorageError::Corrupted(_)) => continue, // torn blob: fall back
            Err(e) => return Err(e),
        }
    }
    Err(corrupt("no valid checkpoint in the log".into()))
}

fn corrupt(msg: String) -> StorageError {
    StorageError::Corrupted(msg)
}

fn push_tuple(out: &mut Vec<u8>, t: &Tuple) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    encode_tuple_into(t, out);
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

fn push_upi_cfg(out: &mut Vec<u8>, cfg: &UpiConfig) {
    out.extend_from_slice(&cfg.cutoff.to_le_bytes());
    out.extend_from_slice(&cfg.page_size.to_le_bytes());
    out.extend_from_slice(&(cfg.max_secondary_pointers as u64).to_le_bytes());
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(corrupt("record truncated".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// A length-prefixed tuple record, checked.
    fn record(&mut self) -> Result<TupleView<'a>> {
        let n = self.u32()? as usize;
        TupleView::parse(self.bytes(n)?).map_err(|why| corrupt(why.to_string()))
    }

    fn tuple(&mut self) -> Result<Tuple> {
        Ok(self.record()?.to_tuple())
    }

    fn upi_cfg(&mut self) -> Result<UpiConfig> {
        Ok(UpiConfig {
            cutoff: self.f64()?,
            page_size: self.u32()?,
            max_secondary_pointers: self.u64()? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upi_uncertain::{Datum, DiscretePmf, Field, TupleId};

    fn tuple(id: u64) -> Tuple {
        Tuple::new(
            TupleId(id),
            0.9,
            vec![
                Field::Certain(Datum::Str("x".into())),
                Field::Discrete(DiscretePmf::new(vec![(1, 0.6), (2, 0.3)])),
            ],
        )
    }

    #[test]
    fn records_round_trip() {
        let records = vec![
            WalRecord::Insert(tuple(1)),
            WalRecord::Delete(tuple(2)),
            WalRecord::Update {
                old: tuple(3),
                new: tuple(4),
            },
            WalRecord::AddSecondary(2),
            WalRecord::Flush,
            WalRecord::Merge,
            WalRecord::Checkpoint { file: 17 },
            WalRecord::MergeStep { components: 3 },
        ];
        for r in records {
            assert_eq!(WalRecord::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn malformed_records_are_corrupted_not_panics() {
        assert!(matches!(
            WalRecord::decode(&[]),
            Err(StorageError::Corrupted(_))
        ));
        assert!(matches!(
            WalRecord::decode(&[99]),
            Err(StorageError::Corrupted(_))
        ));
        assert!(matches!(
            WalRecord::decode(&[1, 200, 0, 0, 0, 1, 2]), // length > payload
            Err(StorageError::Corrupted(_))
        ));
    }

    #[test]
    fn checkpoint_image_round_trips() {
        let img = CheckpointImage {
            schema: Schema::new(vec![
                ("name", FieldKind::Str),
                ("inst", FieldKind::Discrete),
            ]),
            layout: TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig {
                    cutoff: 0.25,
                    page_size: 4096,
                    max_secondary_pointers: 7,
                },
                buffer_ops: 12,
            }),
            primary_attr: 1,
            sec_attrs: vec![1],
            next_id: 42,
            records: Records::from_tuples(&(0..5).map(tuple).collect::<Vec<_>>()),
            extra: vec![9, 8, 7],
        };
        let decoded = CheckpointImage::decode(&img.encode()).unwrap();
        assert_eq!(decoded.primary_attr, 1);
        assert_eq!(decoded.sec_attrs, vec![1]);
        assert_eq!(decoded.next_id, 42);
        let tuples = decoded.records.to_tuples().unwrap();
        assert_eq!(tuples, (0..5).map(tuple).collect::<Vec<_>>());
        assert_eq!(decoded.extra, vec![9, 8, 7]);
        assert_eq!(decoded.schema.field(1).0, "inst");
        match decoded.layout {
            TableLayout::FracturedUpi(cfg) => {
                assert_eq!(cfg.buffer_ops, 12);
                assert_eq!(cfg.upi.page_size, 4096);
                assert!((cfg.upi.cutoff - 0.25).abs() < 1e-12);
            }
            other => panic!("wrong layout: {other:?}"),
        }
    }
}
