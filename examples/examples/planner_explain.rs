//! Cost-based planner walkthrough through the planner-first facade:
//! load the paper's DBLP publication table twice — once as an
//! unclustered heap + PII baseline, once UPI-clustered with a country
//! secondary — and let each `UncertainDb` session plan Queries 1 and 3.
//! The same logical `PtqQuery` picks a different physical story per
//! layout, and `explain_analyze` shows the chosen operator tree, the
//! planner's prefetch hint, every priced candidate, the buffer-pool
//! traffic the execution actually caused, and the executed span tree.
//!
//! Run: `cargo run -p upi-examples --example planner_explain`

use std::sync::Arc;

use upi::{TableLayout, UpiConfig};
use upi_query::{PtqQuery, UncertainDb};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_workloads::dblp::{self, publication_fields, DblpConfig, DblpData};

fn main() {
    let data = dblp::generate(&DblpConfig {
        n_authors: 5_000,
        n_publications: 20_000,
        ..DblpConfig::default()
    });

    // Two sessions over the same rows: the evaluation's baseline layout
    // and the UPI layout. Each session registers its own structures (and
    // the shared buffer pool) in the planner catalog internally.
    let baseline_store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
    let mut baseline = UncertainDb::create(
        baseline_store.clone(),
        "pub_baseline",
        DblpData::publication_schema(),
        publication_fields::INSTITUTION,
        TableLayout::Unclustered,
    )
    .unwrap();
    baseline.add_secondary(publication_fields::COUNTRY).unwrap();
    baseline.load(&data.publications).unwrap();

    let upi_store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
    let mut clustered = UncertainDb::create(
        upi_store.clone(),
        "pub_upi",
        DblpData::publication_schema(),
        publication_fields::INSTITUTION,
        TableLayout::Upi(UpiConfig::default()),
    )
    .unwrap();
    clustered
        .add_secondary(publication_fields::COUNTRY)
        .unwrap();
    clustered.load(&data.publications).unwrap();

    let mit = data.popular_institution();
    let japan = data.query_country();

    // Query 1/2 shape: point PTQ on the clustered attribute, aggregated
    // per journal. Query 3 shape: the same through the secondary
    // attribute.
    let q1 = PtqQuery::eq(publication_fields::INSTITUTION, mit)
        .with_qt(0.3)
        .with_group_count(publication_fields::JOURNAL);
    let q3 = PtqQuery::eq(publication_fields::COUNTRY, japan)
        .with_qt(0.3)
        .with_group_count(publication_fields::JOURNAL);

    for (name, db, store) in [
        ("unclustered + PII", &baseline, &baseline_store),
        ("UPI-clustered", &clustered, &upi_store),
    ] {
        println!("=== layout: {name} ===\n");
        for (label, q) in [("Query 1", &q1), ("Query 3", &q3)] {
            store.go_cold();
            let (out, text) = db.explain_analyze(q).unwrap();
            println!("--- {label}\n{text}-> {} journal groups\n", out.len());
        }
    }

    // Top-k through the same engine: the confidence-ordered merge lets
    // the sink stop after 5 rows — compare the buffer-pool line against
    // the full Query 1 run above.
    let topk = PtqQuery::eq(publication_fields::INSTITUTION, mit).with_top_k(5);
    upi_store.go_cold();
    let (out, text) = clustered.explain_analyze(&topk).unwrap();
    println!("=== top-5, UPI-clustered ===\n\n{text}");
    for r in out.rows {
        println!("  tid {:>6}  confidence {:.3}", r.tuple.id.0, r.confidence);
    }
}
