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
//!
//! A second test pins the read side the same way: the §6 estimates to the
//! bit, and the cold device ledger plus the `(tuple id, confidence)` row
//! list of every batch query body (see [`QUERIES`] and [`PRICING`]). A
//! third pins the executor's access paths, forced one by one through a
//! planner `Catalog` (see [`EXEC_QUERIES`]).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upi::cost::{
    cutoff_query_cost_parts, estimate_query_cutoff_ms, estimate_query_fractured_ms,
    fractured_cost_parts, pointer_fetch_ms,
};
use upi::maintenance::merge_slice_cost_ms;
use upi::{
    CompactionStep, DeviceCoeffs, DiscreteUpi, FracturedConfig, FracturedUpi, Pii, PtqResult,
    TableLayout, TuningAdvisor, UncertainTable, UnclusteredHeap, UpiConfig, WorkloadProfile,
};
use upi_query::{AccessPath, Catalog, PhysicalPlan, PtqQuery};
use upi_storage::{wal, DiskConfig, FaultPlan, SimDisk, StorageError, Store};
use upi_uncertain::{Tuple, TupleId};
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
        page_reads: 4041,
        page_writes: 1400,
        seeks: 267,
        bytes_written: 11468800,
        total_ms_bits: 4661851533093951931,
        pool_hits: 613,
        pool_misses: 11,
        pages: 732167225077555946,
        stats: 8273583770114220106,
        checkpoint: 788975513935360079,
    },
    Stage {
        name: "merge",
        page_reads: 4862,
        page_writes: 1844,
        seeks: 287,
        bytes_written: 15106048,
        total_ms_bits: 4662585210092143956,
        pool_hits: 937,
        pool_misses: 11,
        pages: 8664516532735524594,
        stats: 16175632021450270401,
        checkpoint: 788975513935360079,
    },
    Stage {
        name: "checkpoint",
        page_reads: 5678,
        page_writes: 2039,
        seeks: 296,
        bytes_written: 16703488,
        total_ms_bits: 4663061307266654385,
        pool_hits: 1256,
        pool_misses: 11,
        pages: 12458048465287224122,
        stats: 16175632021450270401,
        checkpoint: 14784063771396130127,
    },
    Stage {
        name: "recover",
        page_reads: 6702,
        page_writes: 2806,
        seeks: 351,
        bytes_written: 22986752,
        total_ms_bits: 4665551822884626249,
        pool_hits: 1946,
        pool_misses: 11,
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

/// One batch query body, run cold: its device ledger and its answer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct QueryPin {
    name: &'static str,
    page_reads: u64,
    seeks: u64,
    /// `IoStats::total_ms().to_bits()`.
    total_ms_bits: u64,
    n_rows: usize,
    /// Hash over the `(tuple id, confidence bits)` list, in result order.
    rows: u64,
}

/// The `rows` hash of `fractured ptq_range` was re-recorded when a
/// cutoff-only range row began summing its terms in descending
/// probability, as every other path does; its ledger did not move.
const QUERIES: &[QueryPin] = &[
    QueryPin {
        name: "upi ptq qt>=C",
        page_reads: 12,
        seeks: 3,
        total_ms_bits: 4637726028192735019,
        n_rows: 115,
        rows: 7441116365099431984,
    },
    QueryPin {
        name: "upi ptq qt<C",
        page_reads: 186,
        seeks: 32,
        total_ms_bits: 4643481502339981282,
        n_rows: 341,
        rows: 11646692244343983410,
    },
    QueryPin {
        name: "fractured ptq qt>=C",
        page_reads: 18,
        seeks: 9,
        total_ms_bits: 4646436128316738678,
        n_rows: 131,
        rows: 410267996182770345,
    },
    QueryPin {
        name: "fractured ptq qt<C",
        page_reads: 262,
        seeks: 49,
        total_ms_bits: 4651500270941362682,
        n_rows: 430,
        rows: 9138644424688807781,
    },
    QueryPin {
        name: "fractured ptq_range",
        page_reads: 163,
        seeks: 39,
        total_ms_bits: 4651383236716107107,
        n_rows: 765,
        rows: 2265263367869267531,
    },
    QueryPin {
        name: "fractured ptq_secondary tailored",
        page_reads: 352,
        seeks: 24,
        total_ms_bits: 4651409362745185786,
        n_rows: 1568,
        rows: 2602228157473923652,
    },
    QueryPin {
        name: "fractured ptq_secondary plain",
        page_reads: 357,
        seeks: 23,
        total_ms_bits: 4651405222960378208,
        n_rows: 1568,
        rows: 2602228157473923652,
    },
    QueryPin {
        name: "pii ptq",
        page_reads: 143,
        seeks: 5,
        total_ms_bits: 4642603516983203062,
        n_rows: 341,
        rows: 11646692244343983410,
    },
    QueryPin {
        name: "pii ptq_range",
        page_reads: 144,
        seeks: 4,
        total_ms_bits: 4642603536991333774,
        n_rows: 641,
        rows: 13688775575216269210,
    },
];

/// Hash over the `to_bits()` of every estimate of one kind, in grid order.
const PRICING: &[(&str, u64)] = &[
    ("cutoff_query_cost_parts", 12341702505225726745),
    ("estimate_query_cutoff_ms", 5824952907843715192),
    ("fractured_cost_parts", 3438059829387801794),
    ("estimate_query_fractured_ms", 2143662956826246794),
    ("evaluate_cutoffs est_query_ms", 12326835356052059105),
    ("merge_slice_cost_ms", 10606131069540348199),
    ("pointer_fetch_ms", 13537034267140423896),
];

fn cold_query(
    store: &Store,
    name: &'static str,
    run: impl FnOnce() -> upi_storage::error::Result<Vec<PtqResult>>,
) -> QueryPin {
    store.go_cold();
    let before = store.disk.stats();
    let rows = run().unwrap();
    let io = store.disk.stats().since(&before);
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for r in &rows {
        println!("{name}: {} {:#018x}", r.tuple.id.0, r.confidence.to_bits());
        fnv(&mut hash, &r.tuple.id.0.to_le_bytes());
        fnv(&mut hash, &r.confidence.to_bits().to_le_bytes());
    }
    QueryPin {
        name,
        page_reads: io.page_reads,
        seeks: io.seeks,
        total_ms_bits: io.total_ms().to_bits(),
        n_rows: rows.len(),
        rows: hash,
    }
}

fn price_pin(name: &'static str, estimates: &[f64]) -> (&'static str, u64) {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for e in estimates {
        println!("{name}: {e} {:#018x}", e.to_bits());
        fnv(&mut hash, &e.to_bits().to_le_bytes());
    }
    (name, hash)
}

/// The read-side fixture both query pins share, built on one store in
/// this order: a UPI with a secondary, an unclustered heap + PII, and a
/// fractured UPI of main + three fractures (each deleting from older
/// components) + a buffered tail of inserts and deletes.
struct ReadSide {
    data: DblpData,
    store: Store,
    upi: DiscreteUpi,
    heap: UnclusteredHeap,
    pii: Pii,
    fr: FracturedUpi,
}

fn read_side() -> ReadSide {
    let data = dblp::generate(&DblpConfig {
        n_authors: 3_000,
        n_institutions: 300,
        n_countries: 12,
        n_publications: 0,
        payload_bytes: 160,
        seed: 0x1DE7,
        ..DblpConfig::default()
    });
    let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20);
    let (attr, sec_attr) = (f::INSTITUTION, f::COUNTRY);

    let mut upi = DiscreteUpi::create(store.clone(), "upi", attr, UpiConfig::default()).unwrap();
    upi.add_secondary(sec_attr).unwrap();
    upi.bulk_load(&data.authors).unwrap();

    let mut heap = UnclusteredHeap::create(store.clone(), "heap", 8192).unwrap();
    heap.bulk_load(&data.authors).unwrap();
    let mut pii = Pii::create(store.clone(), "pii", attr, 8192).unwrap();
    pii.bulk_load(&data.authors).unwrap();

    let cfg = FracturedConfig {
        upi: UpiConfig::default(),
        buffer_ops: 0,
    };
    let mut fr = FracturedUpi::create(store.clone(), "fupi", attr, &[sec_attr], cfg).unwrap();
    fr.load_initial(&data.authors).unwrap();
    let mut next_id = data.authors.len() as u64;
    for round in 0..4u64 {
        for t in data.more_authors(300, next_id, round) {
            fr.insert(t).unwrap();
        }
        for victim in (round * 7..next_id).step_by(23) {
            fr.delete(TupleId(victim)).unwrap();
        }
        next_id += 300;
        if round < 3 {
            fr.flush().unwrap();
        }
    }
    assert_eq!(fr.n_fractures(), 3);
    ReadSide {
        data,
        store,
        upi,
        heap,
        pii,
        fr,
    }
}

#[test]
fn batch_queries_and_estimates_are_bit_identical() {
    let ReadSide {
        data,
        store,
        upi,
        heap,
        pii,
        fr,
    } = read_side();
    let hot = data.popular_institution();
    let country = data.query_country();
    let got = vec![
        cold_query(&store, "upi ptq qt>=C", || upi.ptq(hot, 0.3)),
        cold_query(&store, "upi ptq qt<C", || upi.ptq(hot, 0.02)),
        cold_query(&store, "fractured ptq qt>=C", || fr.ptq(hot, 0.3)),
        cold_query(&store, "fractured ptq qt<C", || fr.ptq(hot, 0.02)),
        cold_query(&store, "fractured ptq_range", || fr.ptq_range(2, 9, 0.1)),
        cold_query(&store, "fractured ptq_secondary tailored", || {
            fr.ptq_secondary(0, country, 0.05, true)
        }),
        cold_query(&store, "fractured ptq_secondary plain", || {
            fr.ptq_secondary(0, country, 0.05, false)
        }),
        cold_query(&store, "pii ptq", || pii.ptq(&heap, hot, 0.02)),
        cold_query(&store, "pii ptq_range", || pii.ptq_range(&heap, 2, 9, 0.1)),
    ];

    let disk = store.disk.config();
    let coeffs = DeviceCoeffs::from_disk(disk);
    // Thresholds on both sides of C = 0.1, and C itself.
    let grid: Vec<(u64, f64)> = [hot, data.selective_institution()]
        .into_iter()
        .flat_map(|v| [0.01, 0.05, 0.1, 0.3, 0.8].map(|qt| (v, qt)))
        .collect();
    let cutoff_parts: Vec<f64> = grid
        .iter()
        .flat_map(|&(v, qt)| {
            let (fixed, dominant) = cutoff_query_cost_parts(&coeffs, &upi, v, qt);
            [fixed, dominant]
        })
        .collect();
    let cutoff_est: Vec<f64> = grid
        .iter()
        .map(|&(v, qt)| estimate_query_cutoff_ms(disk, &upi, v, qt))
        .collect();
    let fractured_parts: Vec<f64> = [0.0, 0.001, 0.05, 1.0]
        .into_iter()
        .flat_map(|sel| {
            let (fixed, dominant) = fractured_cost_parts(&coeffs, &fr, sel);
            [fixed, dominant]
        })
        .collect();
    let fractured_est: Vec<f64> = grid
        .iter()
        .map(|&(v, qt)| estimate_query_fractured_ms(disk, &fr, v, qt))
        .collect();
    let mut workload = WorkloadProfile::new();
    for &(_, qt) in &grid {
        workload.record(qt);
    }
    let (choices, _) = TuningAdvisor.evaluate_cutoffs(
        disk,
        &upi,
        hot,
        &workload,
        u64::MAX,
        &[0.0, 0.05, 0.1, 0.3, 0.6],
    );
    let tuning: Vec<f64> = choices.iter().map(|c| c.est_query_ms).collect();
    let merge_cost = merge_slice_cost_ms(&coeffs, fr.total_bytes());
    let heap = upi.heap_stats();
    let n_leaf = heap.leaf_pages as f64;
    let sigmoid: Vec<f64> = [0.0, 1.0, 0.05 * n_leaf, 10.0 * n_leaf]
        .into_iter()
        .map(|x| pointer_fetch_ms(&coeffs, heap.bytes, heap.leaf_pages as u64, x))
        .collect();
    let priced = vec![
        price_pin("cutoff_query_cost_parts", &cutoff_parts),
        price_pin("estimate_query_cutoff_ms", &cutoff_est),
        price_pin("fractured_cost_parts", &fractured_parts),
        price_pin("estimate_query_fractured_ms", &fractured_est),
        price_pin("evaluate_cutoffs est_query_ms", &tuning),
        price_pin("merge_slice_cost_ms", &[merge_cost]),
        price_pin("pointer_fetch_ms", &sigmoid),
    ];

    for q in &got {
        println!("    {q:#?},");
    }
    for p in &priced {
        println!("    {p:?},");
    }
    for (i, q) in got.iter().enumerate() {
        assert_eq!(Some(q), QUERIES.get(i), "query {i} ({}) moved", q.name);
    }
    assert_eq!(got.len(), QUERIES.len());
    assert_eq!(priced, PRICING, "an estimate moved");
}

/// One executor path per cell of (point, top-k, range, secondary tailored,
/// secondary plain, full scan) × (qt ≥ C, qt < C), on the UPI and on the
/// fractured UPI of [`read_side`] (a fractured table has no full-scan
/// path), each forced through a pool-registered [`Catalog`] and run cold,
/// planning included — the executor's counterpart of [`QUERIES`].
///
/// Re-recorded when planning stopped reading pages (each run's seek now
/// descends and arms its own read-ahead hint at open): the low bits of
/// most `total_ms` moved with the missing plan-time descents, one seek
/// left the fractured range below `C`, and no other page count moved.
///
/// Re-recorded when a read past a run's estimate stopped prefetching a
/// blind window (it is the run detector's first miss): the UPI range
/// below `C`, the fractured range on both sides, the fractured top-k
/// below `C` and the fractured point below `C` moved in pages, seeks or
/// `total_ms`; no row hash moved.
///
/// Re-recorded when a cutoff-only range row began summing its terms in
/// descending probability: only the `rows` hash of the fractured range
/// below `C` moved.
const EXEC_QUERIES: &[QueryPin] = &[
    QueryPin {
        name: "upi top-k qt>=C",
        page_reads: 3,
        seeks: 3,
        total_ms_bits: 4637627072146235179,
        n_rows: 10,
        rows: 7878649078322884333,
    },
    QueryPin {
        name: "upi range qt>=C",
        page_reads: 44,
        seeks: 5,
        total_ms_bits: 4642196310422842055,
        n_rows: 372,
        rows: 4052846389389727857,
    },
    QueryPin {
        name: "upi secondary tailored qt>=C",
        page_reads: 86,
        seeks: 43,
        total_ms_bits: 4643381614131611212,
        n_rows: 658,
        rows: 745271050039840225,
    },
    QueryPin {
        name: "upi secondary plain qt>=C",
        page_reads: 94,
        seeks: 49,
        total_ms_bits: 4643411871296736930,
        n_rows: 658,
        rows: 745271050039840225,
    },
    QueryPin {
        name: "upi full scan qt>=C",
        page_reads: 252,
        seeks: 3,
        total_ms_bits: 4639536236145504149,
        n_rows: 115,
        rows: 7441116365099431984,
    },
    QueryPin {
        name: "upi point qt>=C",
        page_reads: 8,
        seeks: 3,
        total_ms_bits: 4637682047727623978,
        n_rows: 115,
        rows: 7441116365099431984,
    },
    QueryPin {
        name: "upi top-k qt<C",
        page_reads: 93,
        seeks: 74,
        total_ms_bits: 4647571472875279084,
        n_rows: 300,
        rows: 6770880013419813594,
    },
    QueryPin {
        name: "upi range qt<C",
        page_reads: 257,
        seeks: 14,
        total_ms_bits: 4643577017283725535,
        n_rows: 938,
        rows: 7173174628390586573,
    },
    QueryPin {
        name: "upi secondary tailored qt<C",
        page_reads: 232,
        seeks: 33,
        total_ms_bits: 4643431159305768985,
        n_rows: 1455,
        rows: 2877745361092139727,
    },
    QueryPin {
        name: "upi secondary plain qt<C",
        page_reads: 241,
        seeks: 24,
        total_ms_bits: 4643433918027353012,
        n_rows: 1455,
        rows: 2877745361092139727,
    },
    QueryPin {
        name: "upi full scan qt<C",
        page_reads: 252,
        seeks: 3,
        total_ms_bits: 4639536236145504152,
        n_rows: 341,
        rows: 11646692244343983410,
    },
    QueryPin {
        name: "upi point qt<C",
        page_reads: 186,
        seeks: 32,
        total_ms_bits: 4643481502339981284,
        n_rows: 341,
        rows: 11646692244343983410,
    },
    QueryPin {
        name: "fractured top-k qt>=C",
        page_reads: 7,
        seeks: 7,
        total_ms_bits: 4644504555181986892,
        n_rows: 10,
        rows: 15953111270598581852,
    },
    QueryPin {
        name: "fractured range qt>=C",
        page_reads: 65,
        seeks: 19,
        total_ms_bits: 4651013131918800272,
        n_rows: 416,
        rows: 3969378627951404314,
    },
    QueryPin {
        name: "fractured secondary tailored qt>=C",
        page_reads: 233,
        seeks: 45,
        total_ms_bits: 4651672979635350388,
        n_rows: 775,
        rows: 14469640755665520232,
    },
    QueryPin {
        name: "fractured secondary plain qt>=C",
        page_reads: 249,
        seeks: 51,
        total_ms_bits: 4651799774484122984,
        n_rows: 775,
        rows: 14469640755665520232,
    },
    QueryPin {
        name: "fractured point qt>=C",
        page_reads: 14,
        seeks: 9,
        total_ms_bits: 4646425991742084484,
        n_rows: 131,
        rows: 410267996182770345,
    },
    QueryPin {
        name: "fractured top-k qt<C",
        page_reads: 58,
        seeks: 47,
        total_ms_bits: 4651981905876353429,
        n_rows: 300,
        rows: 911785315898612442,
    },
    QueryPin {
        name: "fractured range qt<C",
        page_reads: 340,
        seeks: 37,
        total_ms_bits: 4651851915152577942,
        n_rows: 1140,
        rows: 16844294204917992177,
    },
    QueryPin {
        name: "fractured secondary tailored qt<C",
        page_reads: 350,
        seeks: 32,
        total_ms_bits: 4651817855926169738,
        n_rows: 1731,
        rows: 7635455577600699474,
    },
    QueryPin {
        name: "fractured secondary plain qt<C",
        page_reads: 349,
        seeks: 33,
        total_ms_bits: 4651824672008752480,
        n_rows: 1731,
        rows: 7635455577600699474,
    },
    QueryPin {
        name: "fractured point qt<C",
        page_reads: 230,
        seeks: 67,
        total_ms_bits: 4651747353665600270,
        n_rows: 430,
        rows: 9138644424688807781,
    },
];

/// Plan `q` inside the cold window, take the candidate whose path is
/// `like` (its hints and pricing), force `path` onto it and execute.
fn cold_forced(
    store: &Store,
    catalog: &Catalog<'_>,
    name: &'static str,
    q: PtqQuery,
    like: AccessPath,
    path: AccessPath,
) -> QueryPin {
    cold_query(store, name, || {
        let plan = q.plan(catalog).unwrap();
        let mut cand = plan
            .candidates
            .into_iter()
            .find(|c| c.path == like)
            .unwrap_or_else(|| panic!("{name}: no {} candidate", like.label()));
        cand.path = path;
        let forced = PhysicalPlan {
            query: q,
            candidates: vec![cand],
        };
        Ok(forced.execute(catalog).unwrap().rows)
    })
}

#[test]
fn executor_paths_are_bit_identical() {
    let ReadSide {
        data,
        store,
        upi,
        fr,
        ..
    } = read_side();
    let (attr, sec_attr) = (f::INSTITUTION, f::COUNTRY);
    let (hot, country) = (data.popular_institution(), data.query_country());
    let upi_catalog = Catalog::new(store.disk.config())
        .with_upi(&upi)
        .with_pool(&store.pool);
    let fractured_catalog = Catalog::new(store.disk.config())
        .with_fractured(&fr)
        .with_pool(&store.pool);

    let mut got = Vec::new();
    for (layout, catalog) in [("upi", &upi_catalog), ("fractured", &fractured_catalog)] {
        let fractured = layout == "fractured";
        // `C` is `UpiConfig::default().cutoff`, 0.1; the top-k below `C`
        // asks for more rows than the heap run holds above it.
        for (qt, side, k) in [(0.3, "qt>=C", 10), (0.02, "qt<C", 300)] {
            let point = AccessPath::UpiHeap {
                use_cutoff: qt < 0.1,
                fractured,
            };
            let range = AccessPath::UpiRange { fractured };
            let secondary = |tailored| AccessPath::UpiSecondary {
                index: 0,
                tailored,
                fractured,
            };
            let eq = PtqQuery::eq(attr, hot).with_qt(qt);
            let sec = PtqQuery::eq(sec_attr, country).with_qt(qt);
            let mut cells = vec![
                (
                    "top-k",
                    eq.clone().with_top_k(k),
                    point.clone(),
                    point.clone(),
                ),
                (
                    "range",
                    PtqQuery::range(attr, 2, 9).with_qt(qt),
                    range.clone(),
                    range,
                ),
                (
                    "secondary tailored",
                    sec.clone(),
                    secondary(true),
                    secondary(true),
                ),
                ("secondary plain", sec, secondary(true), secondary(false)),
            ];
            if !fractured {
                cells.push((
                    "full scan",
                    eq.clone(),
                    AccessPath::UpiFullScan,
                    AccessPath::UpiFullScan,
                ));
            }
            // The plain point probe runs last on each side: `cold_query`
            // subtracts cumulative device clocks, so a cell whose ledger
            // moves shifts the low bits of every later cell's `total_ms`.
            cells.push(("point", eq, point.clone(), point));
            for (shape, q, like, path) in cells {
                let name: &'static str = Box::leak(format!("{layout} {shape} {side}").into());
                got.push(cold_forced(&store, catalog, name, q, like, path));
            }
        }
    }

    for q in &got {
        println!("    {q:#?},");
    }
    for (i, q) in got.iter().enumerate() {
        assert_eq!(
            Some(q),
            EXEC_QUERIES.get(i),
            "executor path {i} ({}) moved",
            q.name
        );
    }
    assert_eq!(got.len(), EXEC_QUERIES.len());
}
