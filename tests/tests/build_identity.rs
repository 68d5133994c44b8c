//! Build identity: the component build (bulk load, flush, compaction,
//! fold, merge, checkpoint, recovery) is a pure function of the tuples it
//! is given — down to the device ledger, the page images, the statistics
//! payload and the checkpoint blob.
//!
//! A seeded fractured life cycle is driven stage by stage and, after each
//! stage, a fingerprint is compared with the constants in [`EXPECTED`].
//! The constants were recorded on the commit *before* the build path was
//! rewritten, so any change that moves a split point, an
//! allocation, a pool call, a statistic or a checkpoint byte fails here and
//! names the first stage that moved. A deliberate format change re-records
//! them: the test prints the per-file hashes and the table it measured
//! (libtest shows them on a failure; `-- --nocapture` shows them on a pass).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upi::{CompactionStep, FracturedConfig, TableLayout, UncertainTable, UpiConfig};
use upi_storage::{wal, DiskConfig, FaultPlan, SimDisk, StorageError, Store};
use upi_uncertain::Tuple;
use upi_workloads::dblp::{self, author_fields as f, DblpConfig};
use upi_workloads::DblpData;

const TABLE: &str = "author";

/// Everything pinned after one stage.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stage {
    name: &'static str,
    page_reads: u64,
    page_writes: u64,
    seeks: u64,
    bytes_written: u64,
    /// `IoStats::total_ms().to_bits()`.
    total_ms_bits: u64,
    pool_hits: u64,
    pool_misses: u64,
    /// Hash over every live page image of every file, by file.
    pages: u64,
    /// Hash of `UncertainTable::stats_payload()`.
    stats: u64,
    /// Hash of the authoritative checkpoint blob's payload.
    checkpoint: u64,
}

const EXPECTED: &[Stage] = &[
    Stage {
        name: "bulk load",
        page_reads: 0,
        page_writes: 501,
        seeks: 1,
        bytes_written: 4104192,
        total_ms_bits: 4650211668914077696,
        pool_hits: 255,
        pool_misses: 0,
        pages: 7945284238859993563,
        stats: 4868025322398499974,
        checkpoint: 788975513935360079,
    },
    Stage {
        name: "flush 1",
        page_reads: 652,
        page_writes: 652,
        seeks: 78,
        bytes_written: 5341184,
        total_ms_bits: 4654988072238419978,
        pool_hits: 255,
        pool_misses: 0,
        pages: 4161259411853922295,
        stats: 4868025322398499974,
        checkpoint: 788975513935360079,
    },
    Stage {
        name: "flush 2",
        page_reads: 1381,
        page_writes: 805,
        seeks: 159,
        bytes_written: 6594560,
        total_ms_bits: 4657788908407491242,
        pool_hits: 255,
        pool_misses: 0,
        pages: 11716926243179492621,
        stats: 4868025322398499974,
        checkpoint: 788975513935360079,
    },
    Stage {
        name: "flush 3",
        page_reads: 2188,
        page_writes: 958,
        seeks: 242,
        bytes_written: 7847936,
        total_ms_bits: 4659766746249117573,
        pool_hits: 255,
        pool_misses: 0,
        pages: 6753499107391487079,
        stats: 4868025322398499974,
        checkpoint: 788975513935360079,
    },
    Stage {
        name: "compact run",
        page_reads: 3074,
        page_writes: 1059,
        seeks: 256,
        bytes_written: 8675328,
        total_ms_bits: 4661119531272208860,
        pool_hits: 331,
        pool_misses: 0,
        pages: 419511841171125140,
        stats: 4868025322398499974,
        checkpoint: 788975513935360079,
    },
    Stage {
        name: "fold prefix",
        page_reads: 4245,
        page_writes: 1400,
        seeks: 272,
        bytes_written: 11468800,
        total_ms_bits: 4661907239033098580,
        pool_hits: 586,
        pool_misses: 38,
        pages: 732167225077555946,
        stats: 8273583770114220106,
        checkpoint: 788975513935360079,
    },
    Stage {
        name: "merge",
        page_reads: 5390,
        page_writes: 1844,
        seeks: 298,
        bytes_written: 15106048,
        total_ms_bits: 4662727632726476240,
        pool_hits: 868,
        pool_misses: 80,
        pages: 8664516532735524594,
        stats: 16175632021450270401,
        checkpoint: 788975513935360079,
    },
    Stage {
        name: "checkpoint",
        page_reads: 6525,
        page_writes: 2039,
        seeks: 311,
        bytes_written: 16703488,
        total_ms_bits: 4663276359476762850,
        pool_hits: 1148,
        pool_misses: 119,
        pages: 12458048465287224122,
        stats: 16175632021450270401,
        checkpoint: 14784063771396130127,
    },
    Stage {
        name: "recover",
        page_reads: 7549,
        page_writes: 2806,
        seeks: 366,
        bytes_written: 22986752,
        total_ms_bits: 4665748044525284285,
        pool_hits: 1838,
        pool_misses: 119,
        pages: 17784864993436509824,
        stats: 14797337497945041103,
        checkpoint: 132237768019790064,
    },
];

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fnv_of(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    fnv(&mut h, bytes);
    h
}

/// Per-file hashes of the live page images, in file-creation order. Read
/// straight off the device (the build paths end in `flush_all`, so the
/// device is what a reader would see); the reads are charged, identically
/// on every run, after the stage's own ledger was captured.
fn page_hashes(store: &Store) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (fid, name, live_bytes) in store.disk.file_inventory() {
        if live_bytes == 0 {
            continue;
        }
        let mut h = fnv_of(name.as_bytes());
        for (i, pid) in store.disk.file_pages(fid).unwrap().into_iter().enumerate() {
            match store.disk.read_page(pid) {
                Ok(page) => {
                    fnv(&mut h, &(i as u64).to_le_bytes());
                    fnv(&mut h, &page);
                }
                Err(StorageError::FreedPage(_)) => {}
                Err(e) => panic!("reading {name} page {i}: {e}"),
            }
        }
        out.push((name, h));
    }
    out
}

fn fingerprint(name: &'static str, store: &Store, table: &UncertainTable) -> Stage {
    let io = store.disk.stats();
    let pool = store.pool.counters();
    let stats = fnv_of(&table.stats_payload());
    let checkpoint = match store.disk.find_file(&format!("{TABLE}.ckpt")) {
        Some(file) => fnv_of(&wal::read_blob(&store.disk, file).expect("sealed blob validates")),
        None => 0,
    };
    let files = page_hashes(store);
    let mut pages = 0xCBF2_9CE4_8422_2325;
    for (file, h) in &files {
        fnv(&mut pages, file.as_bytes());
        fnv(&mut pages, &h.to_le_bytes());
    }
    for (file, h) in &files {
        println!("{name}: {file} {h:#018x}");
    }
    Stage {
        name,
        page_reads: io.page_reads,
        page_writes: io.page_writes,
        seeks: io.seeks,
        bytes_written: io.bytes_written,
        total_ms_bits: io.total_ms().to_bits(),
        pool_hits: pool.hits,
        pool_misses: pool.misses,
        pages,
        stats,
        checkpoint,
    }
}

/// One DML batch: inserts of fresh authors, deletes and updates of live
/// ones (picked by the seeded rng from the model), then a flush.
struct Driver {
    data: DblpData,
    rng: StdRng,
    live: Vec<Tuple>,
    next_id: u64,
}

impl Driver {
    fn batch(&mut self, t: &mut UncertainTable, inserts: usize, deletes: usize, updates: usize) {
        let fresh = self
            .data
            .more_authors(inserts + updates, self.next_id, self.next_id);
        self.next_id += (inserts + updates) as u64;
        let (ins, images) = fresh.split_at(inserts);
        for tuple in ins {
            t.insert_tuple(tuple).unwrap();
            self.live.push(tuple.clone());
        }
        for _ in 0..deletes {
            let at = self.rng.gen_range(0..self.live.len());
            let victim = self.live.swap_remove(at);
            t.delete(&victim).unwrap();
        }
        for image in images {
            let at = self.rng.gen_range(0..self.live.len());
            let new = Tuple::new(self.live[at].id, image.exist, image.fields.clone());
            t.update(&self.live[at], &new).unwrap();
            self.live[at] = new;
        }
    }
}

#[test]
fn fractured_lifecycle_is_bit_identical() {
    // Institutions outnumber the pointer histogram's 256 regions, so the
    // secondary's statistics coarsen during every build, as DBLP does.
    let data = dblp::generate(&DblpConfig {
        n_authors: 3_000,
        n_institutions: 2_000,
        n_countries: 40,
        n_publications: 0,
        payload_bytes: 160,
        seed: 0x1DE7,
        ..DblpConfig::default()
    });
    let store = Store::new(
        Arc::new(SimDisk::new(DiskConfig {
            wal_group_ops: 8,
            ..DiskConfig::default()
        })),
        4 << 20,
    );
    let mut t = UncertainTable::create(
        store.clone(),
        TABLE,
        DblpData::author_schema(),
        f::INSTITUTION,
        TableLayout::FracturedUpi(FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        }),
    )
    .unwrap();
    t.add_secondary(f::COUNTRY).unwrap();
    let mut drv = Driver {
        live: data.authors.clone(),
        next_id: data.authors.len() as u64,
        rng: StdRng::seed_from_u64(0x1DE7_0001),
        data,
    };
    let mut got = Vec::new();

    t.load(&drv.live).unwrap();
    let payload = t.stats_payload();
    t.enable_durability(&payload).unwrap();
    got.push(fingerprint("bulk load", &store, &t));

    for name in ["flush 1", "flush 2", "flush 3"] {
        drv.batch(&mut t, 400, 120, 60);
        t.flush().unwrap();
        got.push(fingerprint(name, &store, &t));
    }
    assert_eq!(t.as_fractured().unwrap().n_fractures(), 3);

    let merged = t
        .apply_merge_step(CompactionStep::CompactRun { first: 1, last: 2 })
        .unwrap();
    assert_eq!(merged, 1);
    got.push(fingerprint("compact run", &store, &t));

    let merged = t
        .apply_merge_step(CompactionStep::FoldPrefix { fractures: 1 })
        .unwrap();
    assert_eq!(merged, 1);
    got.push(fingerprint("fold prefix", &store, &t));

    // A buffered tail rides through the merge untouched and into the
    // checkpoint image.
    drv.batch(&mut t, 50, 20, 10);
    t.merge().unwrap();
    assert_eq!(t.as_fractured().unwrap().n_fractures(), 0);
    got.push(fingerprint("merge", &store, &t));

    let payload = t.stats_payload();
    t.checkpoint(&payload).unwrap();
    got.push(fingerprint("checkpoint", &store, &t));

    // Post-checkpoint work for the log replay: a flushed batch, a
    // buffered one, then the machine dies with the log synced.
    drv.batch(&mut t, 200, 60, 30);
    t.flush().unwrap();
    drv.batch(&mut t, 40, 10, 5);
    t.sync_wal().unwrap();
    store.disk.set_fault_plan(FaultPlan::kill_at(0));
    assert!(matches!(
        t.insert_tuple(&drv.data.more_authors(1, drv.next_id, 7)[0])
            .and_then(|()| t.sync_wal()),
        Err(StorageError::ReadOnly(_))
    ));
    drop(t);
    store.disk.clear_fault_plan();
    let (t, info) = UncertainTable::recover(store.clone(), TABLE).unwrap();
    assert!(info.replayed > 300 && !info.log_truncated);
    let mut recovered = t.live_tuples().unwrap();
    recovered.sort_by_key(|t| t.id);
    drv.live.sort_by_key(|t| t.id);
    assert_eq!(recovered, drv.live, "recovery restores the live set");
    got.push(fingerprint("recover", &store, &t));

    for s in &got {
        println!("    {s:#?},");
    }
    for (i, stage) in got.iter().enumerate() {
        assert_eq!(
            Some(stage),
            EXPECTED.get(i),
            "stage {i} ({}) moved; earlier stages are identical",
            stage.name
        );
    }
    assert_eq!(got.len(), EXPECTED.len());
}
