//! Table 8 — merging cost: time and database size for three successive
//! merges of a growing Fractured UPI.
//!
//! Paper shape: merge time grows linearly with database size and is close
//! to the cost of sequentially reading + writing the whole database
//! (`Cost_merge = S_table (T_read + T_write)`, §6.2).

use upi::maintenance::merge_slice_cost_ms;
use upi::DeviceCoeffs;
use upi_bench::setups::fractured_author_setup;
use upi_bench::{banner, header, measure_cold, ms, summary};

fn main() {
    let mut s = fractured_author_setup(0.1);
    banner(
        "Table 8",
        "Merging cost over three successive merges",
        "time ≈ sequential read+write of the DB, growing with size",
    );
    header(&["merge#", "time_ms", "db_bytes", "model_ms", "real/model"]);
    let mut next_id = s.data.authors.len() as u64;
    let batch = s.data.authors.len() / 5; // grow 20% between merges
    let mut ratios = Vec::new();
    for round in 1..=3 {
        for b in 0..2 {
            let new = s.data.more_authors(batch, next_id, (round * 10 + b) as u64);
            next_id += batch as u64;
            for t in new {
                s.fractured.insert(t).unwrap();
            }
            s.fractured.flush().unwrap();
        }
        let db_bytes = s.fractured.total_bytes();
        let coeffs = DeviceCoeffs::from_disk(s.store.disk.config());
        let model_ms = merge_slice_cost_ms(&coeffs, db_bytes);
        let m = measure_cold(&s.store, || {
            s.fractured.merge().unwrap();
            s.store.pool.flush_all();
            1
        });
        let ratio = m.sim_ms / model_ms;
        ratios.push(ratio);
        println!(
            "{round}\t{}\t{db_bytes}\t{}\t{ratio:.2}",
            ms(m.sim_ms),
            ms(model_ms)
        );
    }
    let gm = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    summary("tab8.real_over_model_geomean", format!("{gm:.2}"));
}
