//! Ablation 3 — sensitivity of the headline result to the simulated disk
//! model.
//!
//! The reproduction's central substitution is the simulated disk (see
//! the `upi_storage` crate docs). This ablation re-runs Query 1 (PII vs
//! UPI) under different seek-floor assumptions — from an SSD-like device (no
//! rotational penalty) to a pessimistic spindle — showing that the paper's
//! conclusion (the clustered UPI beats the secondary PII) holds across the
//! model space, while the *magnitude* scales with how expensive random
//! access is, exactly as the paper's analysis predicts.

use std::sync::Arc;

use upi::{DiscreteUpi, Pii, UnclusteredHeap, UpiConfig};
use upi_bench::{banner, dblp_config, header, measure_cold, ms, summary, POOL_BYTES};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_workloads::dblp::{self, author_fields};

fn main() {
    let mut cfg = dblp_config();
    cfg.n_authors /= 2; // ablations run at half scale
    let data = dblp::generate(&cfg);
    let key = data.popular_institution();
    banner(
        "Ablation 3",
        "Disk-model sensitivity: Query 1 (QT=0.3) under varying seek floors",
        "UPI wins under every model; the gap tracks random-access cost",
    );
    header(&["seek_floor_ms", "seek_ms", "PII_ms", "UPI_ms", "speedup"]);
    let mut speedups = Vec::new();
    for (floor, seek) in [(0.05, 0.1), (2.0, 10.0), (4.0, 10.0), (8.0, 16.0)] {
        let disk = DiskConfig {
            seek_floor_ms: floor,
            seek_ms: seek,
            ..DiskConfig::default()
        };
        let store = Store::new(Arc::new(SimDisk::new(disk)), POOL_BYTES);
        let mut heap = UnclusteredHeap::create(store.clone(), "heap", 8192).unwrap();
        heap.bulk_load(&data.authors).unwrap();
        let mut pii = Pii::create(store.clone(), "pii", author_fields::INSTITUTION, 8192).unwrap();
        pii.bulk_load(&data.authors).unwrap();
        let mut upi = DiscreteUpi::create(
            store.clone(),
            "upi",
            author_fields::INSTITUTION,
            UpiConfig::default(),
        )
        .unwrap();
        upi.bulk_load(&data.authors).unwrap();

        let p = measure_cold(&store, || pii.ptq(&heap, key, 0.3).unwrap().len());
        let u = measure_cold(&store, || upi.ptq(key, 0.3).unwrap().len());
        assert_eq!(p.rows, u.rows);
        let speedup = p.sim_ms / u.sim_ms;
        speedups.push(speedup);
        println!(
            "{floor}\t{seek}\t{}\t{}\t{speedup:.1}x",
            ms(p.sim_ms),
            ms(u.sim_ms)
        );
    }
    summary(
        "abl3.upi_wins_under_all_models",
        speedups.iter().all(|&s| s > 1.0),
    );
}
