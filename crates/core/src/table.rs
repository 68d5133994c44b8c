//! A table facade unifying the paper's three physical layouts.
//!
//! Downstream users pick a [`TableLayout`] — the unclustered-heap + PII
//! baseline, a [`DiscreteUpi`], or a [`FracturedUpi`] — and get one API for
//! loading and maintenance, making the paper's comparisons ("same data,
//! different clustering") one-line configuration changes.
//!
//! **Queries do not run through this type.** `UncertainTable` owns the
//! physical structures and exposes them read-only (see [`Self::as_upi`],
//! [`Self::as_fractured`], [`Self::unclustered_parts`]); the query entry
//! points live on `upi_query::UncertainDb`, the session layer that
//! registers those structures in a planner `Catalog` so every query is
//! cost-planned across whatever access paths the layout offers. This
//! split keeps the dependency arrow pointing one way (`upi-query` builds
//! on `upi`) while making it impossible to sneak a query past the
//! planner: there simply is no direct-index entry point on the table.

use upi_storage::error::{Result, StorageError};
use upi_storage::{wal, Lsn, Store, Wal, WalCounters};
use upi_uncertain::{Datum, Field, FieldKind, Schema, Tuple, TupleId};

use crate::durability::{
    find_checkpoint, read_wal_generations, CheckpointImage, RecoveryInfo, TableWal, WalRecord,
};
use crate::fractured::{Chain, FracturedConfig, FracturedUpi};
use crate::heap::UnclusteredHeap;
use crate::maintenance::CompactionStep;
use crate::pii::Pii;
use crate::records::Records;
use crate::upi::{DiscreteUpi, UpiConfig};

/// Physical layout of an [`UncertainTable`].
#[derive(Debug, Clone)]
pub enum TableLayout {
    /// Auto-increment-clustered heap with PII secondary indexes (the
    /// baseline of the paper's evaluation).
    Unclustered,
    /// A UPI clustered on the primary uncertain attribute (§§2–3).
    Upi(UpiConfig),
    /// An LSM-maintained UPI (§4).
    FracturedUpi(FracturedConfig),
}

// The unclustered variant now carries inline statistics, so variant sizes
// differ; a table is a long-lived singleton, making the boxing churn of
// equalizing them pointless.
#[allow(clippy::large_enum_variant)]
enum Inner {
    Unclustered {
        heap: UnclusteredHeap,
        primary: Pii,
        secondaries: Vec<Pii>,
    },
    // Boxed: the index structs are much larger than the Unclustered
    // variant and a table is a long-lived singleton anyway.
    Upi(Box<DiscreteUpi>),
    Fractured(Box<FracturedUpi>),
}

/// A schema-checked uncertain table over one of the three layouts.
///
/// ## Durability (opt-in)
///
/// [`enable_durability`](Self::enable_durability) attaches a write-ahead
/// log: every DML operation is logged as a logical record *before* it is
/// applied, group-committed per
/// [`DiskConfig::wal_group_ops`](upi_storage::DiskConfig::wal_group_ops),
/// and [`checkpoint`](Self::checkpoint) seals the current possible-worlds
/// state into a CRC-validated blob. After a crash,
/// [`recover`](Self::recover) rebuilds the whole table — heap, cutoff
/// index, secondaries, PII, fracture components, pointer histograms —
/// from the last durable checkpoint plus the durable log suffix (see
/// [`crate::durability`] for the protocol and its invariants). If the WAL
/// cannot advance past a persistent fault the table degrades to
/// read-only ([`read_only_reason`](Self::read_only_reason)) instead of
/// acknowledging writes it cannot make durable.
pub struct UncertainTable {
    name: String,
    store: Store,
    schema: Schema,
    layout: TableLayout,
    primary_attr: usize,
    sec_attrs: Vec<usize>,
    inner: Inner,
    next_id: u64,
    page_size: u32,
    /// Durability state; `None` until `enable_durability`.
    wal: Option<TableWal>,
}

impl UncertainTable {
    /// Create an empty table. `primary_attr` must name a
    /// [`FieldKind::Discrete`] column of `schema`.
    pub fn create(
        store: Store,
        name: &str,
        schema: Schema,
        primary_attr: usize,
        layout: TableLayout,
    ) -> Result<UncertainTable> {
        assert!(
            primary_attr < schema.len(),
            "primary attribute {primary_attr} out of range"
        );
        assert_eq!(
            schema.field(primary_attr).1,
            FieldKind::Discrete,
            "the clustering attribute must be discrete-uncertain"
        );
        let page_size = match &layout {
            TableLayout::Upi(cfg) => cfg.page_size,
            TableLayout::FracturedUpi(cfg) => cfg.upi.page_size,
            TableLayout::Unclustered => 8192,
        };
        let inner = match layout.clone() {
            TableLayout::Unclustered => Inner::Unclustered {
                heap: UnclusteredHeap::create(store.clone(), &format!("{name}.heap"), page_size)?,
                primary: Pii::create(
                    store.clone(),
                    &format!("{name}.pii"),
                    primary_attr,
                    page_size,
                )?,
                secondaries: Vec::new(),
            },
            TableLayout::Upi(cfg) => Inner::Upi(Box::new(DiscreteUpi::create(
                store.clone(),
                name,
                primary_attr,
                cfg,
            )?)),
            TableLayout::FracturedUpi(cfg) => Inner::Fractured(Box::new(FracturedUpi::create(
                store.clone(),
                name,
                primary_attr,
                &[],
                cfg,
            )?)),
        };
        Ok(UncertainTable {
            name: name.to_string(),
            store,
            schema,
            layout,
            primary_attr,
            sec_attrs: Vec::new(),
            inner,
            next_id: 0,
            page_size,
            wal: None,
        })
    }

    /// Attach a secondary index on a discrete column. Returns the index
    /// position (the `idx` of `upi_query::UncertainDb::ptq_secondary`).
    ///
    /// Works on every layout at any point in the table's life: each
    /// layout backfills the new index from its live heap(s) — the UPI
    /// from its clustered heap, a fractured table across the main
    /// component and every existing fracture (the old
    /// must-declare-at-creation restriction is gone), and the
    /// unclustered layout's PII from a sequential heap scan.
    pub fn add_secondary(&mut self, attr: usize) -> Result<usize> {
        assert_eq!(
            self.schema.field(attr).1,
            FieldKind::Discrete,
            "secondary indexes require a discrete-uncertain column"
        );
        self.log_dml(&WalRecord::AddSecondary(attr as u32))?;
        let pos = self.sec_attrs.len();
        match &mut self.inner {
            Inner::Unclustered {
                heap, secondaries, ..
            } => {
                let mut pii = Pii::create(
                    self.store.clone(),
                    &format!("{}.sec{}", self.name, pos),
                    attr,
                    self.page_size,
                )?;
                if !heap.is_empty() {
                    let live: Vec<Tuple> = heap.scan_run()?.collect::<Result<_>>()?;
                    pii.bulk_load(&live)?;
                }
                secondaries.push(pii);
            }
            Inner::Upi(upi) => {
                upi.add_secondary(attr)?;
            }
            Inner::Fractured(f) => {
                f.add_secondary(attr)?;
            }
        }
        self.sec_attrs.push(attr);
        Ok(pos)
    }

    /// Validate a tuple against the schema and its existence probability
    /// against `(0, 1]` before anything is logged: a tuple the table could
    /// not read back is [`StorageError::InvalidTuple`] here, not a
    /// corrupted record later.
    fn check(&self, t: &Tuple) -> Result<()> {
        let (got, want) = (t.fields.len(), self.schema.len());
        let fits = |(i, f): (usize, &Field)| {
            matches!(
                (f, self.schema.field(i).1),
                (Field::Certain(Datum::U64(_)), FieldKind::U64)
                    | (Field::Certain(Datum::F64(_)), FieldKind::F64)
                    | (Field::Certain(Datum::Str(_)), FieldKind::Str)
                    | (Field::Discrete(_), FieldKind::Discrete)
                    | (Field::Point(_), FieldKind::Point)
            )
        };
        let why = if got != want {
            format!("arity {got} != schema arity {want}")
        } else if let Some(i) = t.fields.iter().enumerate().position(|f| !fits(f)) {
            let (name, kind) = self.schema.field(i);
            format!("field '{name}' (index {i}) does not match {kind:?}")
        } else if !(t.exist > 0.0 && t.exist <= 1.0) {
            // Written so that a NaN fails the test.
            format!("existence probability {} out of (0,1]", t.exist)
        } else {
            return Ok(());
        };
        Err(StorageError::InvalidTuple(format!(
            "tuple {}: {why}",
            t.id.0
        )))
    }

    /// Bulk-load tuples into an empty table (ids must be ascending; the
    /// auto-id counter resumes past the maximum).
    pub fn load(&mut self, tuples: &[Tuple]) -> Result<()> {
        for t in tuples {
            self.check(t)?;
        }
        self.next_id = tuples.iter().fold(self.next_id, |n, t| n.max(t.id.0 + 1));
        if self.wal.is_some() {
            for t in tuples {
                self.log_dml(&WalRecord::Insert(t.clone()))?;
            }
        }
        match &mut self.inner {
            Inner::Unclustered {
                heap,
                primary,
                secondaries,
            } => {
                heap.bulk_load(tuples)?;
                primary.bulk_load(tuples)?;
                for s in secondaries {
                    s.bulk_load(tuples)?;
                }
            }
            Inner::Upi(upi) => upi.bulk_load(tuples)?,
            Inner::Fractured(f) => f.load_initial(tuples)?,
        }
        Ok(())
    }

    /// Insert a row, assigning the next tuple id. Returns the id.
    pub fn insert(&mut self, exist: f64, fields: Vec<Field>) -> Result<TupleId> {
        let id = TupleId(self.next_id);
        self.insert_tuple(&Tuple { id, exist, fields })?;
        Ok(id)
    }

    /// Insert a fully-formed tuple (caller manages ids; they must never
    /// repeat except to supersede a deleted tuple on fractured tables).
    pub fn insert_tuple(&mut self, t: &Tuple) -> Result<()> {
        self.check(t)?;
        self.log_dml(&WalRecord::Insert(t.clone()))?;
        self.apply_insert(t)
    }

    fn apply_insert(&mut self, t: &Tuple) -> Result<()> {
        self.next_id = self.next_id.max(t.id.0 + 1);
        match &mut self.inner {
            Inner::Unclustered {
                heap,
                primary,
                secondaries,
            } => {
                heap.insert(t)?;
                primary.insert(t)?;
                for s in secondaries {
                    s.insert(t)?;
                }
            }
            Inner::Upi(upi) => upi.insert(t)?,
            Inner::Fractured(f) => f.insert(t.clone())?,
        }
        Ok(())
    }

    /// Delete a tuple.
    pub fn delete(&mut self, t: &Tuple) -> Result<()> {
        self.log_dml(&WalRecord::Delete(t.clone()))?;
        self.apply_delete(t)
    }

    fn apply_delete(&mut self, t: &Tuple) -> Result<()> {
        match &mut self.inner {
            Inner::Unclustered {
                heap,
                primary,
                secondaries,
            } => {
                heap.delete(t.id)?;
                primary.delete(t)?;
                for s in secondaries {
                    s.delete(t)?;
                }
            }
            Inner::Upi(upi) => upi.delete(t)?,
            Inner::Fractured(f) => f.delete(t.id)?,
        }
        Ok(())
    }

    /// Replace `old` with `new` as one logical operation (a single WAL
    /// record, so recovery never observes the half-applied state).
    pub fn update(&mut self, old: &Tuple, new: &Tuple) -> Result<()> {
        self.check(new)?;
        self.log_dml(&WalRecord::Update {
            old: old.clone(),
            new: new.clone(),
        })?;
        self.apply_delete(old)?;
        self.apply_insert(new)
    }

    /// Flush buffered changes (fractured layout only; no-op otherwise —
    /// the buffer pool flushes through [`Store::go_cold`] or eviction).
    pub fn flush(&mut self) -> Result<()> {
        if matches!(self.inner, Inner::Fractured(_)) {
            self.log_dml(&WalRecord::Flush)?;
        }
        if let Inner::Fractured(f) = &mut self.inner {
            f.flush()?;
        }
        Ok(())
    }

    /// Merge fractures (fractured layout only; no-op otherwise).
    pub fn merge(&mut self) -> Result<()> {
        if matches!(self.inner, Inner::Fractured(_)) {
            self.log_dml(&WalRecord::Merge)?;
        }
        if let Inner::Fractured(f) = &mut self.inner {
            f.merge()?;
        }
        Ok(())
    }

    /// Execute one incremental maintenance step (fractured layout only;
    /// returns 0 otherwise) — how a scheduling policy commits the
    /// candidate it priced. The step is logged as a `MergeStep` WAL
    /// record *before* execution, so a crash mid-step replays an
    /// equivalent (clamped) compaction on the rebuilt layout —
    /// compaction never changes the possible-worlds state, so any
    /// replayed shape is correct. Returns the number of components
    /// eliminated.
    pub fn apply_merge_step(&mut self, step: CompactionStep) -> Result<usize> {
        let Inner::Fractured(f) = &mut self.inner else {
            return Ok(0);
        };
        self.wal
            .as_mut()
            .map(|tw| {
                tw.log(
                    &self.store,
                    &WalRecord::MergeStep {
                        components: step.merged() as u32,
                    },
                )
            })
            .transpose()?;
        f.apply_compaction(step)
    }

    /// Log one logical record if durability is on (no-op otherwise).
    fn log_dml(&mut self, rec: &WalRecord) -> Result<()> {
        if let Some(tw) = self.wal.as_mut() {
            tw.log(&self.store, rec)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Attach a WAL to this table and write the initial checkpoint.
    /// `extra` is an opaque session payload stored inside the checkpoint
    /// (the query layer keeps its serialized calibration there). Returns
    /// the LSN of the sealing checkpoint record.
    pub fn enable_durability(&mut self, extra: &[u8]) -> Result<Lsn> {
        assert!(self.wal.is_none(), "durability already enabled");
        let w = Wal::create(
            self.store.disk.clone(),
            &format!("{}.wal", self.name),
            self.page_size,
            1,
        );
        self.wal = Some(TableWal {
            wal: w,
            read_only: None,
            ckpt_file: None,
        });
        self.checkpoint(extra)
    }

    /// Snapshot the live possible-worlds state into a checkpoint blob and
    /// seal it with a synced `Checkpoint` WAL record; the superseded
    /// blob (if any) is freed only after the new one is authoritative.
    ///
    /// ## WAL recycling
    ///
    /// A sealed checkpoint makes every earlier log record redundant, so
    /// the log then rotates to a **fresh generation**: a new `{name}.wal`
    /// file continuing the LSN sequence, sealed with a duplicate
    /// `Checkpoint` record, after which the retired generation's pages
    /// are freed. Ordering makes every crash window safe — *rotate,
    /// seal, then retire*: a crash before the new generation's seal is
    /// durable leaves the old generation (and its checkpoint record)
    /// intact; a crash between seal and retire leaves two generations
    /// whose concatenation recovery reads (duplicate `Checkpoint`
    /// records are harmless — the last valid one wins).
    pub fn checkpoint(&mut self, extra: &[u8]) -> Result<Lsn> {
        assert!(self.wal.is_some(), "enable_durability first");
        let image = CheckpointImage {
            schema: self.schema.clone(),
            layout: self.layout.clone(),
            primary_attr: self.primary_attr as u32,
            sec_attrs: self.sec_attrs.iter().map(|&a| a as u32).collect(),
            next_id: self.next_id,
            records: self.live_records()?,
            extra: extra.to_vec(),
        };
        let file = wal::write_blob(
            &self.store.disk,
            &format!("{}.ckpt", self.name),
            self.page_size,
            &image.encode(),
        )?;
        let tw = self.wal.as_mut().unwrap();
        let lsn = tw.log(&self.store, &WalRecord::Checkpoint { file: file.0 })?;
        if let Err(e) = tw.wal.sync() {
            let reason = format!("WAL cannot sync: {e}");
            self.store.pool.poison(&reason);
            tw.read_only = Some(reason.clone());
            return Err(StorageError::ReadOnly(reason));
        }
        let old = tw.ckpt_file.replace(file);
        if let Some(old) = old {
            self.store.free_file_pages(old)?;
        }
        // Rotate: the sync above drained the group buffer, so the new
        // generation continues the LSN sequence with nothing pending.
        let retired = tw.wal.file();
        let next_lsn = tw.wal.next_lsn();
        tw.wal = Wal::create(
            self.store.disk.clone(),
            &format!("{}.wal", self.name),
            self.page_size,
            next_lsn.0,
        );
        // Seal: the new generation must be self-sufficient before the
        // old one disappears.
        tw.log(&self.store, &WalRecord::Checkpoint { file: file.0 })?;
        if let Err(e) = tw.wal.sync() {
            let reason = format!("WAL cannot sync: {e}");
            self.store.pool.poison(&reason);
            tw.read_only = Some(reason.clone());
            return Err(StorageError::ReadOnly(reason));
        }
        // Retire: the old generation is fully covered by the sealed
        // checkpoint; its pages go back to the device.
        self.store.free_file_pages(retired)?;
        Ok(lsn)
    }

    /// Force the group-commit buffer to the device (one fsync barrier).
    /// Returns the new durable LSN; `Lsn(0)` when durability is off.
    pub fn sync_wal(&mut self) -> Result<Lsn> {
        let Some(tw) = self.wal.as_mut() else {
            return Ok(Lsn(0));
        };
        if let Some(reason) = &tw.read_only {
            return Err(StorageError::ReadOnly(reason.clone()));
        }
        match tw.wal.sync() {
            Ok(lsn) => Ok(lsn),
            Err(e) => {
                let reason = format!("WAL cannot sync: {e}");
                self.store.pool.poison(&reason);
                tw.read_only = Some(reason.clone());
                Err(StorageError::ReadOnly(reason))
            }
        }
    }

    /// Rebuild a table after a crash: reboot the store (dropping every
    /// unflushed frame — volatile memory is gone), read the durable log,
    /// load the last sealed checkpoint, replay the durable suffix through
    /// the ordinary DML paths, then start a fresh WAL generation with an
    /// immediate re-checkpoint so the old generation's pages are
    /// reclaimed. See [`crate::durability`] for the protocol.
    pub fn recover(store: Store, name: &str) -> Result<(UncertainTable, RecoveryInfo)> {
        let faults_survived = store.disk.fault_counters().transients();
        store.reboot();
        let (records, log_truncated) = read_wal_generations(&store, name)?;
        let (ckpt_idx, image) = find_checkpoint(&store, &records)?;
        let durable_lsn = records.last().map(|r| r.lsn).unwrap_or(Lsn(0));

        // Everything durable is now in memory; free every file of the
        // crashed incarnation so the rebuild starts a fresh generation
        // (`find_file` resolves re-created names to the newest file).
        let prefix = format!("{name}.");
        for (fid, fname, _) in store.disk.file_inventory() {
            if fname == name || fname.starts_with(&prefix) {
                store.free_file_pages(fid)?;
            }
        }

        let mut t = UncertainTable::create(
            store.clone(),
            name,
            image.schema.clone(),
            image.primary_attr as usize,
            image.layout.clone(),
        )?;
        for &a in &image.sec_attrs {
            t.add_secondary(a as usize)?;
        }
        // The image's records go into the build as they are; its `next_id`
        // is past every id it holds.
        match &mut t.inner {
            Inner::Upi(upi) => upi.load_records(&image.records)?,
            Inner::Fractured(f) => f.load_records(&image.records)?,
            Inner::Unclustered { .. } => t.load(&image.records.to_tuples()?)?,
        }
        t.next_id = t.next_id.max(image.next_id);

        let mut replayed = 0usize;
        for r in &records[ckpt_idx + 1..] {
            match WalRecord::decode(&r.payload)? {
                WalRecord::Insert(tp) => t.insert_tuple(&tp)?,
                WalRecord::Delete(tp) => t.delete(&tp)?,
                WalRecord::Update { old, new } => t.update(&old, &new)?,
                WalRecord::AddSecondary(a) => {
                    t.add_secondary(a as usize)?;
                }
                WalRecord::Flush => t.flush()?,
                WalRecord::Merge => t.merge()?,
                WalRecord::MergeStep { components } => {
                    // Clamped best-effort replay: the rebuilt layout
                    // differs from the logged one (pre-checkpoint
                    // fractures loaded into main), and any compaction
                    // preserves the possible-worlds state, so fold the
                    // oldest fractures the rebuilt chain actually has.
                    if let Inner::Fractured(f) = &mut t.inner {
                        f.apply_compaction(CompactionStep::FoldPrefix {
                            fractures: components.saturating_sub(1) as usize,
                        })?;
                    }
                }
                WalRecord::Checkpoint { .. } => continue,
            }
            replayed += 1;
        }

        let w = Wal::create(
            store.disk.clone(),
            &format!("{name}.wal"),
            t.page_size,
            durable_lsn.0 + 1,
        );
        t.wal = Some(TableWal {
            wal: w,
            read_only: None,
            ckpt_file: None,
        });
        t.checkpoint(&image.extra)?;

        Ok((
            t,
            RecoveryInfo {
                durable_lsn,
                replayed,
                log_truncated,
                extra: image.extra,
                faults_survived,
            },
        ))
    }

    /// The live possible-worlds tuple set (what a checkpoint snapshots).
    pub fn live_tuples(&self) -> Result<Vec<Tuple>> {
        self.live_records()?.to_tuples()
    }

    /// [`live_tuples`](Self::live_tuples) as records, in the order the
    /// checkpoint blob lists them.
    fn live_records(&self) -> Result<Records> {
        let mut live = Records::default();
        match &self.inner {
            Inner::Unclustered { heap, .. } if !heap.is_empty() => {
                for t in heap.scan_run()? {
                    live.push_tuple(&t?);
                }
            }
            Inner::Unclustered { .. } => {}
            Inner::Upi(upi) => upi.scan_records(&mut live, |_| true)?,
            Inner::Fractured(f) => return f.live_records(),
        }
        Ok(live)
    }

    /// Whether `enable_durability` has been called.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Highest acknowledged-durable LSN (`Lsn(0)` when durability is off).
    pub fn durable_lsn(&self) -> Lsn {
        self.wal
            .as_ref()
            .map(|tw| tw.wal.durable_lsn())
            .unwrap_or(Lsn(0))
    }

    /// LSN of the last logged (possibly not yet durable) record.
    pub fn last_lsn(&self) -> Lsn {
        self.wal
            .as_ref()
            .map(|tw| Lsn(tw.wal.next_lsn().0 - 1))
            .unwrap_or(Lsn(0))
    }

    /// WAL counters (zeroed when durability is off).
    pub fn wal_counters(&self) -> WalCounters {
        self.wal
            .as_ref()
            .map(|tw| tw.wal.counters())
            .unwrap_or_default()
    }

    /// `Some(reason)` once the table has degraded to read-only because
    /// the WAL could not advance past a persistent device fault.
    pub fn read_only_reason(&self) -> Option<String> {
        self.wal.as_ref().and_then(|tw| tw.read_only.clone())
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The clustered (primary) uncertain attribute.
    pub fn primary_attr(&self) -> usize {
        self.primary_attr
    }

    /// Attributes of the attached secondary indexes, in
    /// [`add_secondary`](Self::add_secondary) position order.
    pub fn sec_attrs(&self) -> &[usize] {
        &self.sec_attrs
    }

    /// The store (simulated disk + shared buffer pool) this table
    /// performs all I/O through.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The id this table would assign to its next [`insert`](Self::insert)
    /// — one past the largest id ever inserted, loaded, or recovered.
    /// Sharded facades re-seed their **global** id sequence from the max
    /// of this across shards, which (unlike scanning live tuples) still
    /// covers ids whose rows have since been deleted.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Direct access to the underlying UPI, when the layout has one
    /// (for cost models and statistics).
    ///
    /// For fractured tables this returns the *main* component only —
    /// suitable for statistics, **not** for queries (fractures and the
    /// insert buffer hold rows the main component does not); query
    /// planning must register the whole structure via
    /// [`as_fractured`](Self::as_fractured).
    pub fn as_upi(&self) -> Option<&DiscreteUpi> {
        match &self.inner {
            Inner::Upi(upi) => Some(upi),
            Inner::Fractured(f) => Some(f.main()),
            Inner::Unclustered { .. } => None,
        }
    }

    /// The fractured UPI, when the layout is [`TableLayout::FracturedUpi`].
    pub fn as_fractured(&self) -> Option<&FracturedUpi> {
        match &self.inner {
            Inner::Fractured(f) => Some(f),
            _ => None,
        }
    }

    /// The clustered read side — the whole chain for a fractured UPI, a
    /// chain of one for a plain UPI — or `None` for the unclustered layout.
    pub fn chain(&self) -> Option<Chain<'_>> {
        match &self.inner {
            Inner::Upi(upi) => Some(upi.chain()),
            Inner::Fractured(f) => Some(f.chain()),
            Inner::Unclustered { .. } => None,
        }
    }

    /// Serialize the planner-facing statistics (primary [`AttrStats`]
    /// plus each secondary's selectivity histogram and pointer-region
    /// histogram) for the checkpoint's session payload — so a recovered
    /// session prices tailored-secondary coverage without a warm-up scan.
    /// Empty on layouts without persisted statistics (unclustered).
    ///
    /// [`AttrStats`]: upi_uncertain::AttrStats
    pub fn stats_payload(&self) -> Vec<u8> {
        match &self.inner {
            Inner::Upi(upi) => upi.stats_payload(),
            Inner::Fractured(f) => f.stats_payload(),
            Inner::Unclustered { .. } => Vec::new(),
        }
    }

    /// Inverse of [`stats_payload`](Self::stats_payload): replace the
    /// live statistics with the checkpoint-time snapshot. `false` (state
    /// untouched) on malformation or layout mismatch; restoring an empty
    /// payload is a no-op success on any layout.
    pub fn restore_stats_payload(&mut self, data: &[u8]) -> bool {
        if data.is_empty() {
            return true;
        }
        match &mut self.inner {
            Inner::Upi(upi) => upi.restore_stats_payload(data),
            Inner::Fractured(f) => f.restore_stats_payload(data),
            Inner::Unclustered { .. } => false,
        }
    }

    /// The unclustered layout's parts — `(heap, primary PII, secondary
    /// PIIs)` — when the layout is [`TableLayout::Unclustered`].
    pub fn unclustered_parts(&self) -> Option<(&UnclusteredHeap, &Pii, &[Pii])> {
        match &self.inner {
            Inner::Unclustered {
                heap,
                primary,
                secondaries,
            } => Some((heap, primary, secondaries)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractured::FracturedConfig;
    use std::sync::Arc;
    use upi_storage::{DiskConfig, SimDisk};
    use upi_uncertain::{Datum, DiscretePmf};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
    }

    fn schema() -> Schema {
        Schema::new(vec![
            ("name", FieldKind::Str),
            ("institution", FieldKind::Discrete),
            ("country", FieldKind::Discrete),
        ])
    }

    fn row(inst: u64, p: f64, country: u64) -> Vec<Field> {
        vec![
            Field::Certain(Datum::Str("x".into())),
            Field::Discrete(DiscretePmf::new(vec![
                (inst, p),
                (inst + 100, (1.0 - p) * 0.5),
            ])),
            Field::Discrete(DiscretePmf::new(vec![(country, 1.0)])),
        ]
    }

    fn table(layout: TableLayout) -> UncertainTable {
        let mut t = UncertainTable::create(store(), "t", schema(), 1, layout).unwrap();
        if !matches!(t.inner, Inner::Fractured(_)) {
            t.add_secondary(2).unwrap();
        }
        t
    }

    // Query behaviour across layouts is covered by the integration suite
    // (`tests/tests/facade.rs`) through `upi_query::UncertainDb`, the only
    // query entry point. The unit tests here cover what the table itself
    // owns: schema checking, id assignment, and structure exposure.

    #[test]
    fn layout_parts_are_exposed_for_catalog_registration() {
        let unc = table(TableLayout::Unclustered);
        let (heap, primary, secs) = unc.unclustered_parts().expect("unclustered parts");
        assert_eq!(primary.attr(), 1);
        assert_eq!(secs.len(), 1);
        assert_eq!(secs[0].attr(), 2);
        assert!(heap.is_empty());
        assert!(unc.as_upi().is_none());
        assert!(unc.as_fractured().is_none());
        assert_eq!(unc.sec_attrs(), &[2]);

        let upi = table(TableLayout::Upi(UpiConfig::default()));
        assert!(upi.as_upi().is_some());
        assert!(upi.unclustered_parts().is_none());
        assert_eq!(upi.as_upi().unwrap().secondaries().len(), 1);

        let frac = table(TableLayout::FracturedUpi(FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        }));
        assert!(frac.as_fractured().is_some());
        assert!(frac.as_upi().is_some(), "main component for statistics");
    }

    #[test]
    fn auto_ids_are_dense_and_resume_after_load() {
        let mut t = table(TableLayout::Upi(UpiConfig::default()));
        let preloaded: Vec<Tuple> = (0..10u64)
            .map(|i| Tuple::new(TupleId(i), 1.0, row(1, 0.8, 0)))
            .collect();
        t.load(&preloaded).unwrap();
        let id = t.insert(1.0, row(1, 0.8, 0)).unwrap();
        assert_eq!(id, TupleId(10));
        assert_eq!(t.as_upi().unwrap().n_tuples(), 11);
    }

    #[test]
    fn maintenance_flows_through_every_layout() {
        for layout in [
            TableLayout::Unclustered,
            TableLayout::Upi(UpiConfig::default()),
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 0,
            }),
        ] {
            let mut t = table(layout);
            for i in 0..50u64 {
                t.insert(0.9, row(i % 5, 0.7, i % 3)).unwrap();
            }
            let victim = Tuple::new(TupleId(7), 0.9, row(7 % 5, 0.7, 7 % 3));
            t.delete(&victim).unwrap();
            t.flush().unwrap();
            t.merge().unwrap();
        }
    }

    fn sorted_by_id(mut v: Vec<Tuple>) -> Vec<Tuple> {
        v.sort_by_key(|t| t.id.0);
        v
    }

    #[test]
    fn durable_tables_recover_after_reboot() {
        for layout in [
            TableLayout::Unclustered,
            TableLayout::Upi(UpiConfig::default()),
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 4,
            }),
        ] {
            let st = store();
            let mut t = UncertainTable::create(st.clone(), "t", schema(), 1, layout).unwrap();
            t.add_secondary(2).unwrap();
            t.enable_durability(b"cal").unwrap();
            for i in 0..40u64 {
                t.insert(0.9, row(i % 5, 0.7, i % 3)).unwrap();
            }
            let live = sorted_by_id(t.live_tuples().unwrap());
            t.delete(&live[3]).unwrap();
            let fresh = Tuple::new(live[5].id, 0.8, row(9, 0.6, 1));
            t.update(&live[5], &fresh).unwrap();
            t.sync_wal().unwrap();
            let expect = sorted_by_id(t.live_tuples().unwrap());
            assert_eq!(t.durable_lsn(), t.last_lsn(), "sync drained the group");

            let (r, info) = UncertainTable::recover(st.clone(), "t").unwrap();
            assert_eq!(info.extra, b"cal");
            assert!(info.replayed >= 42, "40 inserts + delete + update");
            assert!(!info.log_truncated, "clean shutdown leaves no damage");
            assert_eq!(sorted_by_id(r.live_tuples().unwrap()), expect);
            assert_eq!(r.sec_attrs(), &[2]);
            assert!(r.is_durable() && r.read_only_reason().is_none());

            // The recovered incarnation keeps accepting (and logging) DML
            // with ids that never collide with recovered ones.
            let mut r = r;
            let id = r.insert(1.0, row(2, 0.9, 0)).unwrap();
            assert!(id.0 >= 40, "auto-id resumes past the recovered horizon");
        }
    }

    #[test]
    fn unsynced_tail_can_be_lost_but_never_acknowledged_state() {
        // Group commit buffers records in volatile memory: a crash before
        // the group flushes loses them, and recovery restores exactly a
        // durable prefix (here: the checkpoint plus any flushed groups).
        let st = store();
        let mut t =
            UncertainTable::create(st.clone(), "t", schema(), 1, TableLayout::Unclustered).unwrap();
        t.enable_durability(&[]).unwrap();
        for i in 0..5u64 {
            t.insert(0.9, row(i, 0.7, 0)).unwrap();
        }
        let acked = t.durable_lsn();
        assert!(t.last_lsn().0 > acked.0, "5 ops sit in the group buffer");

        let (r, info) = UncertainTable::recover(st, "t").unwrap();
        assert!(
            info.durable_lsn.0 >= acked.0,
            "never less than acknowledged"
        );
        assert_eq!(
            r.live_tuples().unwrap().len(),
            info.replayed,
            "exactly the durable suffix was replayed onto an empty checkpoint"
        );
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn schema_violations_are_rejected() {
        let mut t = table(TableLayout::Unclustered);
        t.insert(
            1.0,
            vec![
                Field::Certain(Datum::U64(3)), // schema says Str
                Field::Discrete(DiscretePmf::certain(1)),
                Field::Discrete(DiscretePmf::certain(1)),
            ],
        )
        .unwrap();
    }

    #[test]
    fn invalid_tuples_are_errors_before_anything_is_logged() {
        let certain = |v| Field::Discrete(DiscretePmf::certain(v));
        let bad_rows: Vec<(f64, Vec<Field>, &str)> = vec![
            (
                0.9,
                row(1, 0.7, 0)[..2].to_vec(),
                "arity 2 != schema arity 3",
            ),
            (
                0.9,
                vec![Field::Certain(Datum::U64(3)), certain(1), certain(1)],
                "does not match Str",
            ),
            (1.5, row(1, 0.7, 0), "existence probability 1.5"),
            (0.0, row(1, 0.7, 0), "existence probability 0"),
            (-0.5, row(1, 0.7, 0), "existence probability -0.5"),
            (f64::NAN, row(1, 0.7, 0), "existence probability NaN"),
            (f64::INFINITY, row(1, 0.7, 0), "existence probability inf"),
        ];
        for layout in [
            TableLayout::Unclustered,
            TableLayout::Upi(UpiConfig::default()),
            TableLayout::FracturedUpi(FracturedConfig {
                upi: UpiConfig::default(),
                buffer_ops: 4,
            }),
        ] {
            let mut t = table(layout);
            t.enable_durability(&[]).unwrap();
            for i in 0..6u64 {
                t.insert(0.9, row(i % 3, 0.7, 0)).unwrap();
            }
            let live = sorted_by_id(t.live_tuples().unwrap());
            let (records, next_id) = (t.wal_counters().records, t.next_id());
            for (exist, fields, why) in &bad_rows {
                let bad = Tuple {
                    id: TupleId(99),
                    exist: *exist,
                    fields: fields.clone(),
                };
                for r in [
                    t.insert(*exist, fields.clone()).map(drop),
                    t.insert_tuple(&bad),
                    t.update(&live[2], &bad),
                ] {
                    match r {
                        Err(StorageError::InvalidTuple(what)) => {
                            assert!(what.contains(why), "{what}")
                        }
                        other => panic!("expected InvalidTuple({why}), got {other:?}"),
                    }
                }
            }
            assert_eq!(t.wal_counters().records, records, "nothing was logged");
            assert_eq!(t.next_id(), next_id, "no id was consumed");
            assert_eq!(
                sorted_by_id(t.live_tuples().unwrap()),
                live,
                "nothing was applied"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be discrete")]
    fn primary_attr_must_be_discrete() {
        let _ = UncertainTable::create(
            store(),
            "bad",
            schema(),
            0, // "name" is a string column
            TableLayout::Unclustered,
        );
    }
}
