//! Cost-model-driven tuning (§6.3 and §4.2–4.3 of the paper).
//!
//! Demonstrates the administrative decision the paper's cost models
//! support at load time: **choosing the cutoff threshold `C`** — "an
//! administrator collects query workloads …, figures out the acceptable
//! size of her database …, and picks a value of C that yields acceptable
//! database size and also achieves a tolerable average query runtime."
//! Scheduling fracture merges is the maintenance scheduler's job (see
//! the `maintenance` example).
//!
//! Run with: `cargo run --release -p upi-examples --example adaptive_tuning`

use std::sync::Arc;

use upi::{DiscreteUpi, TuningAdvisor, UpiConfig, WorkloadProfile};
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
         within the {budget_bytes}-byte budget)",
        choices[pick].est_query_ms
    );
}
