//! Cost-based planner walkthrough: load the paper's DBLP publication
//! table twice — once as the evaluation's unclustered heap + PII
//! baseline, built from its parts and registered in a planner `Catalog`,
//! once as a UPI-clustered `UncertainDb` session with a country
//! secondary — and plan Queries 1 and 3 on each. The same logical
//! `PtqQuery` picks a different physical story per layout, and the
//! analyzed explain shows the chosen operator tree, the planner's
//! prefetch hint, every priced candidate, the buffer-pool traffic the
//! execution actually caused, and the executed span tree.
//!
//! Run: `cargo run -p upi-examples --example planner_explain`

use std::sync::Arc;

use upi::{Pii, TableLayout, UnclusteredHeap, UpiConfig};
use upi_query::{Catalog, PtqQuery, QueryOutput, UncertainDb};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_workloads::dblp::{self, publication_fields, DblpConfig, DblpData};

fn main() {
    let data = dblp::generate(&DblpConfig {
        n_authors: 5_000,
        n_publications: 20_000,
        ..DblpConfig::default()
    });

    // The same rows twice. The evaluation's baseline is an unclustered
    // heap with one PII per queried attribute, registered by hand (with
    // the buffer pool) in a planner catalog; the UPI session registers
    // its own structures internally.
    let baseline_store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
    let mut heap = UnclusteredHeap::create(baseline_store.clone(), "pub.heap", 8192).unwrap();
    heap.bulk_load(&data.publications).unwrap();
    let mut piis = Vec::new();
    for (name, attr) in [
        ("pub.pii_inst", publication_fields::INSTITUTION),
        ("pub.pii_country", publication_fields::COUNTRY),
    ] {
        let mut pii = Pii::create(baseline_store.clone(), name, attr, 8192).unwrap();
        pii.bulk_load(&data.publications).unwrap();
        piis.push(pii);
    }
    let baseline = piis.iter().fold(
        Catalog::new(baseline_store.disk.config())
            .with_pool(baseline_store.pool.as_ref())
            .with_heap(&heap),
        |c, pii| c.with_pii(pii),
    );

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

    println!("=== layout: unclustered + PII ===\n");
    for (label, q) in [("Query 1", &q1), ("Query 3", &q3)] {
        baseline_store.go_cold();
        let plan = q.plan(&baseline).unwrap();
        print_analyzed(label, plan.execute_analyzed(&baseline).unwrap());
    }
    println!("=== layout: UPI-clustered ===\n");
    for (label, q) in [("Query 1", &q1), ("Query 3", &q3)] {
        upi_store.go_cold();
        print_analyzed(label, clustered.explain_analyze(q).unwrap());
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

/// One analyzed execution of a grouped query: the explain text, then the
/// group count.
fn print_analyzed(label: &str, (out, text): (QueryOutput, String)) {
    println!("--- {label}\n{text}-> {} journal groups\n", out.len());
}
