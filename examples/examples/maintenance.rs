//! Cost-driven background maintenance: the LSM-style merge scheduler.
//!
//! A fractured UPI deteriorates as DML accumulates fractures — every
//! query pays a k-way merge across the whole chain. Instead of the
//! paper's stop-the-world §4.3 merge, [`UncertainDb::maintenance_tick`]
//! prices bounded incremental compaction steps (fold the oldest
//! components into main, or compact a run of small fractures) and buys
//! one only once the rent queries already paid for its fractures — their
//! descents and the opens they paid — covers its device cost. An idle
//! table never pays for maintenance; a busy one converges back towards
//! the merged floor in bounded steps.
//!
//! Run with: `cargo run --release -p upi-examples --example maintenance`

use std::sync::Arc;

use upi::{FracturedConfig, TableLayout};
use upi_query::{PtqQuery, UncertainDb};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, FieldKind, Schema, Tuple, TupleId};

const VALUES: u64 = 4;

fn row(id: u64) -> Tuple {
    let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    Tuple::new(
        TupleId(id),
        1.0,
        vec![
            Field::Certain(Datum::Str(format!("payload-{id}-{}", "x".repeat(120)))),
            Field::Discrete(DiscretePmf::new(vec![(
                id % VALUES,
                0.55 + (h % 4000) as f64 / 10_000.0,
            )])),
        ],
    )
}

fn main() {
    let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
    let schema = Schema::new(vec![
        ("payload", FieldKind::Str),
        ("value", FieldKind::Discrete),
    ]);
    let mut db = UncertainDb::create(
        store.clone(),
        "maintained",
        schema,
        1,
        TableLayout::FracturedUpi(FracturedConfig {
            buffer_ops: 0,
            ..FracturedConfig::default()
        }),
    )
    .unwrap();
    let n_rows = 6_000u64;
    let initial: Vec<Tuple> = (0..n_rows).map(row).collect();
    db.load(&initial).unwrap();
    db.enable_durability().unwrap();
    println!(
        "loaded {n_rows} rows, durable; policy: {:?}\n",
        db.maintenance_policy()
    );

    // A tick on a freshly opened session declines: no query has paid
    // rent yet, so there is nothing to buy a step with.
    assert!(db.maintenance_tick().unwrap().is_none());
    println!("tick before any traffic -> deferred (no rent paid)\n");

    // Deterioration workload: each batch inserts 5% of the table,
    // flushes one fracture, then serves a cold query pass — the traffic
    // whose rent buys the steps.
    let mut next_id = n_rows;
    for batch in 1..=6 {
        for _ in 0..n_rows / 20 {
            db.insert_tuple(&row(next_id)).unwrap();
            next_id += 1;
        }
        db.flush().unwrap();

        store.go_cold();
        for v in 0..VALUES {
            db.query(&PtqQuery::eq(1, v).with_qt(0.5)).unwrap();
        }

        let chain = db.table().as_fractured().unwrap().n_fractures() + 1;
        match db.maintenance_tick().unwrap() {
            Some(report) => println!(
                "batch {batch}: chain {chain} -> step merged {} components \
                 ({:.0} ms device, bought with {:.0} ms of rent)",
                report.components, report.device_ms, report.rent_ms
            ),
            None => println!("batch {batch}: chain {chain} -> deferred (rent below every price)"),
        }
    }

    // One more deterioration round, then drain whatever is paid for
    // and seal it: on a durable table, `maintain` checkpoints after the
    // last step, which also rotates the WAL onto a fresh generation and
    // retires the old one.
    for _ in 0..n_rows / 20 {
        db.insert_tuple(&row(next_id)).unwrap();
        next_id += 1;
    }
    db.flush().unwrap();
    let summary = db.maintain().unwrap();
    println!(
        "\nmaintain(): {} step(s), {} components compacted, {:.0} ms, checkpoint {:?}",
        summary.steps, summary.components_compacted, summary.device_ms, summary.checkpoint
    );
    let final_chain = db.table().as_fractured().unwrap().n_fractures() + 1;
    let m = db.metrics();
    println!(
        "final chain {final_chain} component(s); session counters: merge_steps={} \
         components_compacted={} maintenance_device_ms={:.0}",
        m.merge_steps, m.components_compacted, m.maintenance_device_ms
    );
    assert!(m.merge_steps > 0, "the workload must trigger maintenance");
}
