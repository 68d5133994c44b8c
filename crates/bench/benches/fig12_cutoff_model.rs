//! Figure 12 — Cutoff-index cost model *estimates* for exactly the Figure 3
//! settings, plus Table 6's derived parameters.
//!
//! Paper shape: the estimated curves (sequential scan + 2 opens + sigmoid
//! pointer-saturation term) match the measured Figure 3 curves for both the
//! selective and the non-selective query.

use upi::cost::{estimate_cutoff_pointers, estimate_query_cutoff_ms, sigmoid_k};
use upi::DeviceCoeffs;
use upi_bench::setups::{author_setup, author_setup_with};
use upi_bench::{banner, header, measure_cold, ms, summary};

const QTS: [f64; 3] = [0.05, 0.15, 0.25];
const CS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

fn main() {
    banner(
        "Figure 12",
        "Cutoff index cost model (same settings as Figure 3)",
        "estimated curves track the measured ones, incl. saturation",
    );
    let mut ratios: Vec<f64> = Vec::new();
    for selective in [false, true] {
        println!(
            "\n# {} query (estimated_ms / measured_ms per cell)",
            if selective {
                "selective"
            } else {
                "non-selective"
            }
        );
        header(&["C", "QT=0.05", "QT=0.15", "QT=0.25"]);
        for &c in &CS {
            let s = author_setup_with(c, Some(128));
            let key = if selective {
                s.data.selective_institution()
            } else {
                s.data.popular_institution()
            };
            let mut cells = Vec::new();
            for &qt in &QTS {
                let est = estimate_query_cutoff_ms(s.store.disk.config(), &s.upi, key, qt);
                let real = measure_cold(&s.store, || s.upi.ptq(key, qt).unwrap().len());
                ratios.push(est / real.sim_ms);
                cells.push(format!("{}/{}", ms(est), ms(real.sim_ms)));
            }
            println!("{c:.1}\t{}", cells.join("\t"));
        }
    }
    let gm = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    let worst = ratios
        .iter()
        .map(|&r| if r > 1.0 { r } else { 1.0 / r })
        .fold(0.0f64, f64::max);
    summary("fig12.geomean_est_over_real", format!("{gm:.2}"));
    summary("fig12.worst_cell_error", format!("{worst:.1}x"));

    // Table 6 companion: print the model parameters in force.
    let s = author_setup(0.1);
    let coeffs = DeviceCoeffs::from_disk(s.store.disk.config());
    let heap = s.upi.heap_stats();
    println!("\n# Table 6 — parameters (as instantiated at this scale)");
    header(&["parameter", "value"]);
    println!("T_seek\t{} ms", coeffs.t_seek_ms);
    println!("T_read\t{} ms/MB", coeffs.t_read_ms_per_mb);
    println!("T_write\t{} ms/MB", coeffs.t_write_ms_per_mb);
    println!("Cost_init\t{} ms", coeffs.cost_init_ms);
    println!("H\t{}", heap.height);
    println!("S_table\t{} bytes", heap.bytes);
    println!("N_leaf\t{}", heap.leaf_pages);
    println!(
        "Cost_scan\t{} ms",
        ms(coeffs.read_cost_ms(heap.bytes as f64))
    );
    println!("sigmoid_k\t{:.6}", sigmoid_k(heap.leaf_pages as u64));
    let _ = estimate_cutoff_pointers(&s.upi, s.data.popular_institution(), 0.05);
}
