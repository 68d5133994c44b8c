//! Cost-model fit: the §6 estimates must track measured runtimes within a
//! reasonable band on live data — the property Figures 10–12 demonstrate.

use std::sync::Arc;

use upi::cost::{estimate_cutoff_pointers, estimate_query_cutoff_ms, estimate_query_fractured_ms};
use upi::maintenance::merge_slice_cost_ms;
use upi::{DeviceCoeffs, DiscreteUpi, FracturedConfig, FracturedUpi, UpiConfig};
use upi_storage::{DiskConfig, SimDisk, Store};
use upi_workloads::dblp::{self, author_fields, DblpConfig};

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 8 << 20)
}

fn cfg() -> DblpConfig {
    DblpConfig {
        n_authors: 12_000,
        payload_bytes: 96,
        ..DblpConfig::default()
    }
}

fn measure(st: &Store, f: impl FnOnce() -> usize) -> f64 {
    st.go_cold();
    let t0 = st.disk.clock_ms();
    f();
    st.disk.clock_ms() - t0
}

#[test]
fn cutoff_pointer_estimates_are_accurate() {
    // Figure 11's property: per-value histogram estimates track reality.
    let data = dblp::generate(&cfg());
    let key = data.popular_institution();
    for c in [0.2, 0.4] {
        let st = store();
        let mut upi = DiscreteUpi::create(
            st,
            "u",
            author_fields::INSTITUTION,
            UpiConfig {
                cutoff: c,
                ..UpiConfig::default()
            },
        )
        .unwrap();
        upi.bulk_load(&data.authors).unwrap();
        for qt in [0.05, 0.15] {
            let real = upi.cutoff_index().scan(key, qt).unwrap().len() as f64;
            let est = estimate_cutoff_pointers(&upi, key, qt);
            assert!(real > 10.0, "need a meaningful pointer count, got {real}");
            let rel = (est - real).abs() / real;
            assert!(
                rel < 0.15,
                "C={c} QT={qt}: estimate {est:.0} vs real {real:.0} ({:.0}% off)",
                rel * 100.0
            );
        }
    }
}

#[test]
fn cutoff_runtime_estimate_tracks_measurement() {
    // Figure 12's property, asserted within a 3x band per cell (the paper
    // shows visual agreement; our band is deliberately loose to stay
    // robust across scales).
    let data = dblp::generate(&cfg());
    let key = data.popular_institution();
    let st = store();
    let mut upi = DiscreteUpi::create(
        st.clone(),
        "u",
        author_fields::INSTITUTION,
        UpiConfig {
            cutoff: 0.3,
            ..UpiConfig::default()
        },
    )
    .unwrap();
    upi.bulk_load(&data.authors).unwrap();
    for qt in [0.05, 0.15, 0.4] {
        let est = estimate_query_cutoff_ms(st.disk.config(), &upi, key, qt);
        let real = measure(&st, || upi.ptq(key, qt).unwrap().len());
        let ratio = est / real;
        assert!(
            (0.33..3.0).contains(&ratio),
            "QT={qt}: est {est:.0}ms vs real {real:.0}ms (ratio {ratio:.2})"
        );
    }
}

#[test]
fn fractured_estimate_tracks_fracture_count() {
    // Figure 10's property: the estimate grows with N_frac like reality.
    let data = dblp::generate(&cfg());
    let key = data.popular_institution();
    let st = store();
    let mut f = FracturedUpi::create(
        st.clone(),
        "f",
        author_fields::INSTITUTION,
        &[],
        FracturedConfig {
            upi: UpiConfig::default(),
            buffer_ops: 0,
        },
    )
    .unwrap();
    f.load_initial(&data.authors).unwrap();
    let mut next_id = data.authors.len() as u64;
    let mut prev_real = 0.0;
    for round in 1..=6 {
        let new = data.more_authors(data.authors.len() / 10, next_id, round);
        next_id += new.len() as u64;
        for t in new {
            f.insert(t).unwrap();
        }
        f.flush().unwrap();
        let est = estimate_query_fractured_ms(st.disk.config(), &f, key, 0.15);
        let real = measure(&st, || f.ptq(key, 0.15).unwrap().len());
        let ratio = est / real;
        assert!(
            (0.4..2.5).contains(&ratio),
            "round {round}: est {est:.0} vs real {real:.0} (ratio {ratio:.2})"
        );
        assert!(real > prev_real, "runtime grows with each fracture");
        prev_real = real;
    }
    // Merging restores performance and the model agrees.
    let predicted_merge =
        merge_slice_cost_ms(&DeviceCoeffs::from_disk(st.disk.config()), f.total_bytes());
    let real_merge = measure(&st, || {
        f.merge().unwrap();
        st.pool.flush_all();
        1
    });
    let after = measure(&st, || f.ptq(key, 0.15).unwrap().len());
    assert!(after < prev_real / 2.0, "merge must restore performance");
    let ratio = real_merge / predicted_merge;
    assert!(
        (0.4..3.0).contains(&ratio),
        "merge: real {real_merge:.0} vs model {predicted_merge:.0}"
    );
}

#[test]
fn saturation_is_observable_and_modeled() {
    // The non-selective low-QT query must NOT cost pointer_count × T_seek
    // (that is the saturation phenomenon of §6.3).
    let data = dblp::generate(&cfg());
    let key = data.popular_institution();
    let st = store();
    let mut upi = DiscreteUpi::create(
        st.clone(),
        "u",
        author_fields::INSTITUTION,
        UpiConfig {
            cutoff: 0.5,
            ..UpiConfig::default()
        },
    )
    .unwrap();
    upi.bulk_load(&data.authors).unwrap();
    let pointers = upi.cutoff_index().scan(key, 0.02).unwrap().len() as f64;
    assert!(pointers > 300.0, "need many pointers, got {pointers}");
    let real = measure(&st, || upi.ptq(key, 0.02).unwrap().len());
    let naive = pointers * st.disk.config().seek_ms;
    assert!(
        real < naive * 0.6,
        "saturation must beat the naive seek model: real {real:.0}ms vs naive {naive:.0}ms"
    );
}
