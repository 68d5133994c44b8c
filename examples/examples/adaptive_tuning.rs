//! Cost-model-driven tuning (§6.3 and §4.2–4.3 of the paper).
//!
//! Demonstrates the two administrative decisions the paper's cost models
//! support:
//!
//! 1. **Choosing the cutoff threshold `C`** — "an administrator collects
//!    query workloads …, figures out the acceptable size of her database
//!    …, and picks a value of C that yields acceptable database size and
//!    also achieves a tolerable average query runtime."
//! 2. **Scheduling fracture merges** — "based on this estimate and the
//!    speed of database size growth, a database administrator can schedule
//!    merging of UPIs to keep the required query performance."
//!
//! Run with: `cargo run --release -p upi-examples --example adaptive_tuning`

use std::sync::Arc;

use upi::{DiscreteUpi, FracturedConfig, FracturedUpi, TuningAdvisor, UpiConfig, WorkloadProfile};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_workloads::dblp::{self, author_fields, DblpConfig};

fn main() {
    let cfg = DblpConfig {
        n_authors: 20_000,
        payload_bytes: 128,
        ..DblpConfig::default()
    };
    let data = dblp::generate(&cfg);
    let key = data.popular_institution();

    // The workload the administrator observed: mostly selective PTQs, a
    // few deep low-threshold scans.
    let mut workload = WorkloadProfile::new();
    for _ in 0..55 {
        workload.record(0.30);
    }
    for _ in 0..30 {
        workload.record(0.15);
    }
    for _ in 0..15 {
        workload.record(0.05);
    }
    println!(
        "observed workload: {} queries, {:.0}% below QT=0.1",
        workload.len(),
        workload.fraction_below(0.1) * 100.0
    );

    // Statistics come from the live index (any cutoff works for stats
    // collection; the advisor extrapolates across candidates).
    let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
    let mut upi = DiscreteUpi::create(
        store.clone(),
        "live",
        author_fields::INSTITUTION,
        UpiConfig::default(),
    )
    .unwrap();
    upi.bulk_load(&data.authors).unwrap();

    let budget_bytes = 40u64 << 20;
    let candidates = [0.0, 0.05, 0.1, 0.2, 0.3];
    let (choices, pick) = TuningAdvisor.evaluate_cutoffs(
        store.disk.config(),
        &upi,
        key,
        &workload,
        budget_bytes,
        &candidates,
    );
    println!("\nC\test_DB_bytes\test_query_ms\tfits_budget");
    for ch in &choices {
        println!(
            "{:.2}\t{}\t{:.0}\t{}",
            ch.cutoff, ch.est_bytes, ch.est_query_ms, ch.fits_budget
        );
    }
    let chosen_c = choices[pick].cutoff;
    println!(
        "\n-> chosen C = {chosen_c} (expected workload query time {:.0} ms \
         within the {budget_bytes}-byte budget)\n",
        choices[pick].est_query_ms
    );

    // ---- Merge scheduling ------------------------------------------------
    // Keep inserting; merge as soon as the estimated Query-1 time exceeds
    // an SLO, using the §6.2 fracture cost model.
    let store = Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20);
    let mut f = FracturedUpi::create(
        store.clone(),
        "adaptive",
        author_fields::INSTITUTION,
        &[],
        FracturedConfig {
            upi: UpiConfig {
                cutoff: chosen_c,
                ..UpiConfig::default()
            },
            buffer_ops: 0,
        },
    )
    .unwrap();
    f.load_initial(&data.authors).unwrap();

    let slo_ms = 700.0;
    println!("merge scheduling with an SLO of {slo_ms} ms on Query 1 (QT=0.15):");
    let mut next_id = data.authors.len() as u64;
    for batch in 1..=12 {
        let new = data.more_authors(data.authors.len() / 10, next_id, batch);
        next_id += new.len() as u64;
        for t in new {
            f.insert(t).unwrap();
        }
        f.flush().unwrap();
        let (merge_now, est, merge_cost) =
            TuningAdvisor.should_merge(store.disk.config(), &f, key, 0.15, slo_ms);
        if merge_now {
            println!(
                "  batch {batch:2}: est {est:.0} ms > SLO -> merge \
                 (predicted cost {merge_cost:.0} ms, {} fractures)",
                f.n_fractures()
            );
            f.merge().unwrap();
        } else {
            println!(
                "  batch {batch:2}: est {est:.0} ms ({} fractures) — ok",
                f.n_fractures()
            );
        }
    }
    println!(
        "\nfinal state: {} fractures, {} live tuples, {} bytes",
        f.n_fractures(),
        f.n_live_tuples(),
        f.total_bytes()
    );
}
