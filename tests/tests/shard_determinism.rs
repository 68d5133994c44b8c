//! Sharded determinism oracle: a scatter is a function of the data.
//!
//! The same table is built twice — fresh stores, the same seeded rows,
//! loads, inserts, deletes and flushes — once per shard layout
//! (`HashTid` over 2, 4 and 8 shards, and `RangeTid` split 7 : 1). A
//! seeded mix of top-k (several k), point, range and secondary queries
//! then runs on both builds, some from cold caches and some warm. Every
//! query's device ledger (`QueryOutput::device`, every `IoStats` field
//! compared bit for bit), row list and rendered trace must be equal
//! between the two builds: the shards advance in bulk-synchronous rounds
//! on the caller's thread, so how far a shard reads never depends on
//! timing.

use std::sync::Arc;

use upi::{FracturedConfig, ShardLayout, TableLayout, UpiConfig};
use upi_query::{PtqQuery, QueryOutput, ShardedDb};
use upi_storage::{DiskConfig, IoStats, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema, Tuple, TupleId};

const ROWS: u64 = 2_400;
const VALUES: u64 = 12;
const PRIMARY: usize = 1;
const SECONDARY: usize = 2;

/// Seeded LCG: the same stream on every build and every run.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        ("pad", FieldKind::Str),
        ("value", FieldKind::Discrete),
        ("sec", FieldKind::Discrete),
    ])
}

fn tuple(id: u64, rng: &mut Lcg) -> Tuple {
    let value = rng.next() % VALUES;
    let p = 0.3 + (rng.next() % 650) as f64 / 1000.0;
    Tuple::new(
        TupleId(id),
        1.0,
        vec![
            Field::Certain(Datum::Str(format!("pad-{id}-{}", "x".repeat(160)))),
            Field::Discrete(DiscretePmf::new(vec![
                (value, p),
                ((value + 1) % VALUES, (1.0 - p) * 0.5),
            ])),
            Field::Discrete(DiscretePmf::new(vec![(rng.next() % 6, 0.9)])),
        ],
    )
}

/// One build of the table: half bulk-loaded, half inserted through the
/// fracture buffer, every 37th row deleted, then flushed.
fn build(layout: &ShardLayout) -> ShardedDb {
    let stores = (0..layout.n_shards())
        .map(|_| Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 2 << 20))
        .collect();
    let mut db = ShardedDb::create(
        stores,
        "det",
        schema(),
        PRIMARY,
        TableLayout::FracturedUpi(FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 150,
        }),
        layout.clone(),
    )
    .unwrap();
    db.add_secondary(SECONDARY).unwrap();
    let mut rng = Lcg(0x5EED);
    let tuples: Vec<Tuple> = (0..ROWS).map(|id| tuple(id, &mut rng)).collect();
    let half = tuples.len() / 2;
    db.load(&tuples[..half]).unwrap();
    for t in &tuples[half..] {
        db.insert_tuple(t).unwrap();
    }
    for t in tuples.iter().step_by(37) {
        db.delete(t).unwrap();
    }
    db.flush().unwrap();
    db
}

/// The seeded query mix: `(cold, query)`.
fn queries() -> Vec<(bool, PtqQuery)> {
    let mut rng = Lcg(0xC0FFEE);
    (0..60)
        .map(|i| {
            let v = rng.next() % VALUES;
            let qt = [0.0, 0.3, 0.5, 0.7][rng.next() as usize % 4];
            let q = match i % 6 {
                0 | 1 => {
                    PtqQuery::eq(PRIMARY, v).with_top_k([1, 3, 10, 40][rng.next() as usize % 4])
                }
                2 => PtqQuery::eq(PRIMARY, v).with_qt(qt).with_top_k(5),
                3 => PtqQuery::eq(PRIMARY, v).with_qt(qt),
                4 => PtqQuery::range(PRIMARY, v, (v + 2).min(VALUES - 1)).with_qt(qt),
                _ => PtqQuery::eq(SECONDARY, rng.next() % 6).with_qt(qt),
            };
            (i % 3 == 0, q)
        })
        .collect()
}

fn ledger(d: &IoStats) -> [u64; 10] {
    [
        d.page_reads,
        d.page_writes,
        d.seeks,
        d.bytes_read,
        d.bytes_written,
        d.file_opens,
        d.seek_ms.to_bits(),
        d.read_ms.to_bits(),
        d.write_ms.to_bits(),
        d.init_ms.to_bits(),
    ]
}

/// Everything a query's output must repeat exactly.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `(tuple id, confidence bits)` in result order.
    rows: Vec<(u64, u64)>,
    device: [u64; 10],
    latency_bits: u64,
    trace: String,
}

fn observe(out: &QueryOutput) -> Observed {
    Observed {
        rows: out
            .rows
            .iter()
            .map(|r| (r.tuple.id.0, r.confidence.to_bits()))
            .collect(),
        device: ledger(&out.device.expect("a scatter attributes device time")),
        latency_bits: out.latency_ms.expect("a scatter reports latency").to_bits(),
        trace: out.trace.as_ref().expect("a scatter traces").render(),
    }
}

fn run(db: &ShardedDb) -> Vec<Observed> {
    queries()
        .iter()
        .map(|(cold, q)| {
            if *cold {
                for s in db.shards() {
                    s.table().store().go_cold();
                }
            }
            observe(&db.query(q).unwrap())
        })
        .collect()
}

#[test]
fn two_builds_answer_read_and_trace_every_query_identically() {
    let mut floors = 0;
    for layout in [
        ShardLayout::HashTid(2),
        ShardLayout::HashTid(4),
        ShardLayout::HashTid(8),
        ShardLayout::RangeTid(vec![ROWS * 7 / 8]),
    ] {
        let (a, b) = (build(&layout), build(&layout));
        let (runs_a, runs_b) = (run(&a), run(&b));
        for (i, (x, y)) in runs_a.iter().zip(&runs_b).enumerate() {
            assert_eq!(x, y, "{layout:?}: query {i} diverged between builds");
        }
        assert_eq!(a.shards_skipped(), b.shards_skipped(), "{layout:?}");
        floors += runs_a
            .iter()
            .filter(|o| o.trace.contains("below floor"))
            .count();
    }
    assert!(floors > 0, "the mix must exercise the round floor");
}
