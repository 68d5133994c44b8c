//! Plan enumeration and costing.
//!
//! Every candidate an access structure in the [`Catalog`] supports for the
//! query's predicate is priced in **simulated-disk milliseconds** by the
//! catalog's [`CostModel`] — the single pricing
//! authority — with the §6 cost models over live statistics:
//!
//! * clustered-probe paths derive from the shared
//!   `upi::cost::cutoff_query_cost_parts` / `fractured_cost_parts`
//!   `(fixed, dominant)` decompositions — the same functions whose sums
//!   are `estimate_query_cutoff_ms` / `estimate_query_fractured_ms`
//!   (the models Figures 10/12 validate against measurements), so the
//!   planner and the figure estimates cannot drift;
//! * pointer-chasing paths (PII probe, secondary access, U-Tree circle)
//!   use [`CostModel::bitmap_fetch_ms`](crate::cost::CostModel::bitmap_fetch_ms),
//!   a bitmap-scan model derived from the simulated disk's own move-cost
//!   curve — sparse target sets pay seeks, dense sets degenerate into a
//!   sequential read of the span (the §6.3 saturation mechanism, priced
//!   from device coefficients instead of the fitted sigmoid) — with
//!   pointer counts from the structure's probability histogram;
//! * tailored secondary access concentrates its fetch span by the
//!   **measured** pointer-region coverage: each `SecondaryIndex` keeps a
//!   coarse per-region histogram of where its heap pointers land
//!   (`upi::PointerHistogram`), and the span is the heap fraction the
//!   expected distinct regions of the query's fetches cover — replacing
//!   the old `repl^1.5` concentration guess with an observed quantity;
//! * scans are `Cost_init + T_read · S_table`, scaled by histogram
//!   selectivity for range scans.
//!
//! ## Coefficients, units, and calibration
//!
//! Every estimate decomposes as `est = fixed + scale(kind) · dominant`
//! (see [`crate::cost`] for the full contract):
//!
//! * **Device coefficients** (`upi::DeviceCoeffs`, all unit-documented on
//!   the type): `t_seek_ms` [ms/seek], `seek_floor_ms` [ms/move],
//!   `t_read_ms_per_mb` / `t_write_ms_per_mb` [ms/MiB], `cost_init_ms`
//!   [ms/open], `stroke_bytes` [bytes/full-stroke]. These price the
//!   *fixed* term (opens + descents) and the shape of the dominant term;
//!   they are never refit — the simulator charges them exactly.
//! * **Per-path-kind scales** (dimensionless), initially 1.0: the
//!   calibrated coefficients. After each executed plan the session
//!   records `(kind, fixed, dominant, observed device ms)` into a
//!   `CalibrationStore`; `CostModel::refit` solves the per-kind
//!   least-squares scale on the dominant term, **bounded** to at most
//!   [`REFIT_MAX_STEP`](crate::cost::REFIT_MAX_STEP)× movement per pass
//!   and hard-clamped to
//!   [`SCALE_MIN`](crate::cost::SCALE_MIN)..[`SCALE_MAX`](crate::cost::SCALE_MAX),
//!   so feedback cannot oscillate the plan choice. `explain()` shows raw
//!   next to calibrated cost with the sample count behind the scale.

use upi::cost::{self};
use upi::{Chain, DiscreteUpi, SecondaryIndex};

use crate::catalog::Catalog;
use crate::cost::CostModel;
use crate::error::PlanError;
use crate::plan::{AccessPath, CandidatePlan, PhysicalPlan};
use crate::query::{Predicate, PtqQuery};

/// Page size of a B+Tree file from its stats.
fn page_bytes(stats: &upi_btree::TreeStats) -> f64 {
    stats.bytes as f64 / stats.pages.max(1) as f64
}

/// The heap-span fraction a (tailored) secondary probe for `value` with
/// `n` qualifying entries is expected to touch, from the index's measured
/// per-region pointer histogram: tailored access (Algorithm 3) steers
/// every fetch into the regions `value`'s own pointer population
/// occupies — typically a small, correlated slice of the clustered heap —
/// so the expected distinct regions of `n` draws bound the span. Falls
/// back to the full span (1.0) when the histogram is empty.
fn tailored_coverage(sec: &SecondaryIndex, value: u64, n: f64) -> f64 {
    sec.pointer_regions().covered_fraction(value, n)
}

/// The number of region **visits** (seek-priced head moves) the same
/// tailored probe is expected to pay — the companion multiplier for
/// [`CostModel::clustered_fetch_ms`]. Falls back to `n` (one move per
/// fetch, pricing identical to a plain probe) when the histogram is
/// empty.
fn tailored_visits(sec: &SecondaryIndex, value: u64, n: f64) -> f64 {
    sec.pointer_regions().expected_visits(value, n)
}

/// Build a [`CandidatePlan`] from a priced decomposition.
fn candidate(
    model: &CostModel,
    path: AccessPath,
    fixed_ms: f64,
    dominant_ms: f64,
    note: String,
    hints: Vec<usize>,
) -> CandidatePlan {
    let cost = model.price(path.kind(), fixed_ms, dominant_ms);
    CandidatePlan {
        path,
        est_ms: cost.est_ms(),
        cost,
        note,
        hints,
        est_rows: None,
        est_pages: None,
    }
}

/// Total pages across a candidate's run estimates (the planner's page
/// estimate for run-shaped paths), floored at one page.
fn hint_pages(hints: &[usize]) -> f64 {
    hints.iter().map(|&h| h as f64).sum::<f64>().max(1.0)
}

// --- Run-length estimates (run-shaped paths only) --------------------------
//
// The same statistics that price a candidate also tell the buffer pool
// how long each run is expected to be, so read-ahead can arm on the
// run's first miss instead of waiting for the two-adjacent-miss
// detector. The plan carries lengths only, computed from in-memory
// statistics: the seek that opens a run passes the estimate with the read
// of its first leaf (`BTree::seek_run`), so planning reads no page and a
// run that is never opened arms nothing. Clustered paths carry one
// estimate **per component**, index-aligned: the pool tracks concurrent
// runs, so the k-way merge's interleaved component reads each stream
// independently. Pointer-chasing paths (plain/tailored secondary
// heap fetches, PII probes, cutoff-heavy merges) scatter by construction
// and get none; a fractured chain's *secondary* path estimates only
// each component's compact entry run, not the scattered heap fetches
// behind it.

/// One component's clustered point run (`UpiHeap`): §2's
/// one-seek-then-sequential access, bounded by k leaves for an
/// early-terminating top-k.
fn upi_point_pages(upi: &DiscreteUpi, value: u64, qt: f64, top_k: Option<usize>) -> usize {
    let pages = cost::estimate_run_pages(upi, value, qt);
    match top_k {
        Some(k) => {
            let per_leaf = cost::entries_per_leaf(upi);
            pages.min(((k as f64 / per_leaf).ceil() as usize).max(1))
        }
        None => pages,
    }
}

/// A fractured chain's secondary path: each component's compact **entry
/// run** (the heap fetches behind it scatter).
fn secondary_entry_pages(chain: Chain<'_>, sec_idx: usize, value: u64, qt: f64) -> Vec<usize> {
    chain
        .components()
        .map(|u| {
            let sec = &u.secondaries()[sec_idx];
            let leaf_pages = sec.leaf_pages().max(1);
            let per_leaf = (sec.len() as f64 / leaf_pages as f64).max(1.0);
            let entries = sec.stats().est_count_ge(value, qt);
            ((entries / per_leaf).ceil() as usize).clamp(1, leaf_pages)
        })
        .collect()
}

/// §6.3 pricing of a plain UPI's point probe, with its `explain()` note.
fn upi_point_price(
    model: &CostModel,
    upi: &DiscreteUpi,
    value: u64,
    qt: f64,
    top_k: Option<usize>,
) -> (f64, f64, String) {
    let Some(k) = top_k else {
        // `Cost_cut` (or the heap-only run when QT ≥ C), split by the
        // shared `cutoff_query_cost_parts` so the planner and
        // `estimate_query_cutoff_ms` can never drift.
        let sel = cost::estimate_heap_selectivity(upi, value, qt);
        let pointers = cost::estimate_cutoff_pointers(upi, value, qt);
        let (fixed, dom) = cost::cutoff_query_cost_parts(&model.coeffs, upi, value, qt);
        return (
            fixed,
            dom,
            format!("sel {:.4}, est {:.0} cutoff ptrs", sel, pointers),
        );
    };
    // §3.1 early termination: the heap run and cutoff list are
    // probability-ordered, so at most k entries of each are read
    // regardless of QT. The merge consults the cutoff list *lazily* —
    // only once the run's head falls below the cutoff threshold C — so
    // the cutoff open + pointer fetches are charged only for the expected
    // shortfall of above-C run entries.
    let hs = upi.heap_stats();
    let avg = hs.bytes as f64 / hs.entries.max(1) as f64;
    let mut fixed = model.open_descend(hs.height);
    let mut dom = model.read_ms(k as f64 * avg);
    let above_c = upi
        .attr_stats()
        .est_count_ge(value, upi.config().cutoff.max(qt));
    if !upi.cutoff_index().is_empty() && above_c < k as f64 {
        let deficit = (k as f64 - above_c).max(1.0);
        fixed += model.open_descend(upi.cutoff_index().height());
        dom += model.bitmap_fetch_ms(hs.bytes as f64, page_bytes(&hs), deficit);
    }
    (fixed, dom, format!("top-{k} early termination"))
}

/// Last-resort full scan of a plain UPI's clustered heap (any discrete
/// attribute). A fractured chain gets none: a one-component scan cannot
/// see suppression.
fn upi_full_scan(model: &CostModel, upi: &DiscreteUpi) -> CandidatePlan {
    candidate(
        model,
        AccessPath::UpiFullScan,
        model.coeffs.cost_init_ms,
        model.read_ms(upi.heap_stats().bytes as f64),
        format!("{} heap bytes sequential", upi.heap_stats().bytes),
        vec![upi.heap_stats().leaf_pages.max(1)],
    )
    .with_est_pages(upi.heap_stats().leaf_pages.max(1) as f64)
}

/// Entry point: enumerate, price, rank.
pub(crate) fn plan(q: &PtqQuery, catalog: &Catalog<'_>) -> Result<PhysicalPlan, PlanError> {
    q.validate()?;
    let mut cands = match q.predicate {
        Predicate::Eq { attr, value } => enumerate_eq(q, catalog, attr, value),
        Predicate::Range { attr, lo, hi } => enumerate_range(q, catalog, attr, lo, hi),
        Predicate::Circle { attr, x, y, radius } => enumerate_circle(catalog, attr, x, y, radius),
    };
    if cands.is_empty() {
        return Err(PlanError::NoAccessPath {
            reason: format!(
                "catalog has no structure answering {:?} (register an index or a heap to scan)",
                q.predicate
            ),
        });
    }
    cands.sort_by(|a, b| a.est_ms.partial_cmp(&b.est_ms).unwrap());
    Ok(PhysicalPlan {
        query: q.clone(),
        candidates: cands,
    })
}

fn enumerate_eq(
    q: &PtqQuery,
    catalog: &Catalog<'_>,
    attr: usize,
    value: u64,
) -> Vec<CandidatePlan> {
    let model = &catalog.cost;
    let qt = q.qt;
    let mut out = Vec::new();

    for chain in catalog.chains() {
        let main = chain.main();
        let fractured = chain.fractured().is_some();
        if main.attr() == attr {
            let (fixed, dominant, note, qualifying) = match chain.fractured() {
                // §6.2 `Cost_frac`, split by the shared
                // `fractured_cost_parts`: per-component opens are fixed,
                // the selectivity-scaled scan over all components is
                // dominant.
                Some(f) => {
                    let heap_entries = main.heap_stats().entries.max(1) as f64;
                    let sel =
                        (main
                            .attr_stats()
                            .est_heap_count_ge(value, qt, main.config().cutoff)
                            / heap_entries)
                            .min(1.0);
                    let (fixed, dom) = cost::fractured_cost_parts(&model.coeffs, f, sel);
                    let note = format!("{} components", f.n_fractures() + 1);
                    (fixed, dom, note, sel * heap_entries)
                }
                None => {
                    let (fixed, dom, note) = upi_point_price(model, main, value, qt, q.top_k);
                    (fixed, dom, note, main.attr_stats().est_count_ge(value, qt))
                }
            };
            let est_rows = match q.top_k {
                Some(k) => qualifying.min(k as f64),
                None => qualifying,
            };
            let hints: Vec<usize> = chain
                .components()
                .map(|u| upi_point_pages(u, value, qt, q.top_k))
                .collect();
            let est_pages = hint_pages(&hints);
            out.push(
                candidate(
                    model,
                    AccessPath::UpiHeap {
                        use_cutoff: qt < main.config().cutoff,
                        fractured,
                    },
                    fixed,
                    dominant,
                    note,
                    hints,
                )
                .with_est(est_rows, est_pages),
            );
        }
        for (i, sec) in main.secondaries().iter().enumerate() {
            if sec.attr() != attr {
                continue;
            }
            let n = sec.stats().est_count_ge(value, qt);
            let hs = main.heap_stats();
            let opens = chain.n_components() as f64
                * (model.open_descend(sec.height()) + model.open_descend(hs.height));
            // Tailored access (Algorithm 3) steers pointers onto shared
            // regions; the span it can touch is measured by the index's
            // pointer-region histogram instead of guessed from the
            // replication factor.
            let coverage = tailored_coverage(sec, value, n);
            let visits = tailored_visits(sec, value, n);
            let fetch_rows = match q.top_k {
                Some(k) => n.min(k as f64),
                None => n,
            };
            // A fractured chain hints each component's entry run; a plain
            // UPI's probe is pointer-chasing throughout.
            let (hints, entry_pages) = if fractured {
                let hints = secondary_entry_pages(chain, i, value, qt);
                let pages = hint_pages(&hints);
                (hints, pages)
            } else {
                (Vec::new(), 0.0)
            };
            // Entry-run pages plus one scattered heap page per fetched
            // entry, worst case.
            let est_pages = (entry_pages + fetch_rows).max(1.0);
            out.push(
                candidate(
                    model,
                    AccessPath::UpiSecondary {
                        index: i,
                        tailored: true,
                        fractured,
                    },
                    opens,
                    model.clustered_fetch_ms(
                        hs.bytes as f64 * coverage,
                        page_bytes(&hs),
                        n,
                        visits,
                    ),
                    format!(
                        "{n:.0} fetches over {coverage:.3} of the heap ({visits:.0} region visits)"
                    ),
                    hints.clone(),
                )
                .with_est(fetch_rows, est_pages),
            );
            out.push(
                candidate(
                    model,
                    AccessPath::UpiSecondary {
                        index: i,
                        tailored: false,
                        fractured,
                    },
                    opens,
                    model.bitmap_fetch_ms(hs.bytes as f64, page_bytes(&hs), n),
                    format!("{n:.0} first-pointer fetches over the full heap"),
                    hints,
                )
                .with_est(fetch_rows, est_pages),
            );
        }
        if !fractured {
            out.push(upi_full_scan(model, main));
        }
    }

    if let Some(heap) = catalog.heap {
        for (i, pii) in catalog.piis.iter().enumerate() {
            if pii.attr() != attr {
                continue;
            }
            let n = pii.stats().est_count_ge(value, qt);
            let hs = heap.stats();
            out.push(
                candidate(
                    model,
                    AccessPath::PiiProbe { index: i },
                    model.open_descend(pii.height()) + model.open_descend(hs.height),
                    model.bitmap_fetch_ms(hs.bytes as f64, page_bytes(&hs), n),
                    format!("{n:.0} bitmap-order heap fetches"),
                    Vec::new(),
                )
                .with_est(n, n.max(1.0)),
            );
        }
        out.push(
            candidate(
                model,
                AccessPath::HeapScan,
                model.coeffs.cost_init_ms,
                model.read_ms(heap.stats().bytes as f64),
                format!("{} heap bytes sequential", heap.stats().bytes),
                vec![heap.stats().leaf_pages.max(1)],
            )
            .with_est_pages(heap.stats().leaf_pages.max(1) as f64),
        );
    }

    if let Some(cupi) = catalog.cupi {
        for (i, cs) in catalog.cont_secondaries.iter().enumerate() {
            if cs.attr() != attr {
                continue;
            }
            let n = cs.attr_stats().est_count_ge(value, qt);
            let rs = cupi.rtree_stats();
            let tuples_per_page = (cupi.n_tuples() as f64 / rs.leaf_pages.max(1) as f64).max(1.0);
            // Spatial correlation collapses one segment's tuples onto few
            // heap pages: effective fetches are pages, not tuples.
            let effective = (n / tuples_per_page).max(1.0).min(n.max(1.0));
            let heap_bytes = cupi.total_bytes() as f64;
            let heap_page = heap_bytes / rs.leaf_pages.max(1) as f64;
            out.push(
                candidate(
                    model,
                    AccessPath::ContinuousSecondaryProbe { index: i },
                    model.open_descend(cs.height()) + model.coeffs.cost_init_ms,
                    model.bitmap_fetch_ms(heap_bytes, heap_page, effective),
                    format!("{n:.0} entries -> ~{effective:.0} page reads"),
                    Vec::new(),
                )
                .with_est(n, effective),
            );
        }
    }

    out
}

fn enumerate_range(
    q: &PtqQuery,
    catalog: &Catalog<'_>,
    attr: usize,
    lo: u64,
    hi: u64,
) -> Vec<CandidatePlan> {
    let model = &catalog.cost;
    let mut out = Vec::new();

    for chain in catalog.chains() {
        let main = chain.main();
        if main.attr() == attr {
            let stats = main.attr_stats();
            let frac = (stats.est_count_value_range(lo, hi) / stats.total().max(1) as f64).min(1.0);
            let (fixed, dom, note) = match chain.fractured() {
                Some(f) => {
                    let (fixed, dom) = cost::fractured_cost_parts(&model.coeffs, f, frac);
                    let note = format!("range frac {frac:.4}, {} components", f.n_fractures() + 1);
                    (fixed, dom, note)
                }
                None => {
                    let hs = main.heap_stats();
                    let mut fixed = model.open_descend(hs.height);
                    let mut dom = model.read_ms(hs.bytes as f64) * frac;
                    // The cutoff phase is charged only when the same
                    // bound the cursor checks says it runs.
                    let cut = main.cutoff_index();
                    if !cut.is_empty() && main.range_cutoff_phase_runs(lo, hi, q.qt) {
                        fixed += model.open_descend(cut.height());
                        dom += model.read_ms(cut.bytes() as f64) * frac;
                    }
                    (
                        fixed,
                        dom,
                        format!("range frac {frac:.4} of clustered heap"),
                    )
                }
            };
            let hints: Vec<usize> = chain
                .components()
                .map(|u| cost::estimate_range_run_pages(u, lo, hi))
                .collect();
            let est_pages = hint_pages(&hints);
            out.push(
                candidate(
                    model,
                    AccessPath::UpiRange {
                        fractured: chain.fractured().is_some(),
                    },
                    fixed,
                    dom,
                    note,
                    hints,
                )
                .with_est(stats.est_count_value_range(lo, hi), est_pages),
            );
        }
        if chain.fractured().is_none() {
            out.push(upi_full_scan(model, main));
        }
    }

    if let Some(heap) = catalog.heap {
        for (i, pii) in catalog.piis.iter().enumerate() {
            if pii.attr() != attr {
                continue;
            }
            let entries = pii.stats().est_count_value_range(lo, hi);
            let frac = (entries / pii.stats().total().max(1) as f64).min(1.0);
            let hs = heap.stats();
            out.push(
                candidate(
                    model,
                    AccessPath::PiiRange { index: i },
                    model.open_descend(pii.height()) + model.coeffs.cost_init_ms,
                    model.read_ms(pii.bytes() as f64) * frac
                        + model.bitmap_fetch_ms(hs.bytes as f64, page_bytes(&hs), entries),
                    format!("{entries:.0} index entries in range"),
                    Vec::new(),
                )
                .with_est(entries, entries.max(1.0)),
            );
        }
        out.push(
            candidate(
                model,
                AccessPath::HeapScan,
                model.coeffs.cost_init_ms,
                model.read_ms(heap.stats().bytes as f64),
                format!("{} heap bytes sequential", heap.stats().bytes),
                vec![heap.stats().leaf_pages.max(1)],
            )
            .with_est_pages(heap.stats().leaf_pages.max(1) as f64),
        );
    }

    out
}

fn enumerate_circle(
    catalog: &Catalog<'_>,
    attr: usize,
    x: f64,
    y: f64,
    radius: f64,
) -> Vec<CandidatePlan> {
    let model = &catalog.cost;
    let mut out = Vec::new();

    // Fraction of the spatial domain the query circle covers.
    let circle_frac = |bounds: Option<upi_rtree::Rect>| -> f64 {
        match bounds {
            Some(b) => {
                let domain = b.area().max(1e-9);
                (std::f64::consts::PI * radius * radius / domain).min(1.0)
            }
            None => 1.0,
        }
    };

    if let Some(cupi) = catalog.cupi {
        if cupi.attr() == attr {
            let frac = circle_frac(cupi.bounds());
            let rs = cupi.rtree_stats();
            out.push(
                candidate(
                    model,
                    AccessPath::ContinuousCircle,
                    2.0 * model.coeffs.cost_init_ms + rs.height as f64 * model.coeffs.t_descend_ms,
                    model.read_ms(cupi.total_bytes() as f64 * frac),
                    format!("circle covers {:.3} of domain, clustered read", frac),
                    Vec::new(),
                )
                .with_est(
                    cupi.n_tuples() as f64 * frac,
                    (rs.leaf_pages.max(1) as f64 * frac).max(1.0),
                ),
            );
        }
    }

    if let (Some(utree), Some(heap)) = (catalog.utree, catalog.heap) {
        if utree.attr() == attr {
            let frac = circle_frac(utree.bounds());
            let candidates = utree.stats().entries as f64 * frac;
            let hs = heap.stats();
            out.push(
                candidate(
                    model,
                    AccessPath::UTreeCircle,
                    model.open_descend(utree.stats().height) + model.coeffs.cost_init_ms,
                    model.bitmap_fetch_ms(hs.bytes as f64, page_bytes(&hs), candidates),
                    format!("~{candidates:.0} per-candidate heap fetches"),
                    Vec::new(),
                )
                .with_est(candidates, candidates.max(1.0)),
            );
        }
    }

    let _ = (x, y);
    out
}

#[cfg(test)]
mod tests {
    use crate::{AccessPath, Catalog, PtqQuery};
    use std::sync::Arc;
    use upi::{Pii, UnclusteredHeap, UpiConfig};
    use upi_storage::{DiskConfig, SimDisk, Store};
    use upi_uncertain::{Datum, DiscretePmf, Field, Tuple, TupleId};

    fn store() -> Store {
        Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20)
    }

    fn rows(n: u64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    TupleId(i),
                    0.9,
                    vec![
                        Field::Certain(Datum::U64(i % 3)),
                        Field::Discrete(DiscretePmf::new(vec![(i % 5, 0.7), ((i % 5) + 5, 0.2)])),
                        Field::Discrete(DiscretePmf::new(vec![(i % 4, 0.95)])),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn planner_enumerates_every_applicable_path() {
        let st = store();
        let tuples = rows(500);
        let mut heap = UnclusteredHeap::create(st.clone(), "h", 4096).unwrap();
        heap.bulk_load(&tuples).unwrap();
        let mut pii = Pii::create(st.clone(), "p", 1, 4096).unwrap();
        pii.bulk_load(&tuples).unwrap();
        let mut upi = upi::DiscreteUpi::create(st.clone(), "u", 1, UpiConfig::default()).unwrap();
        upi.add_secondary(2).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let catalog = Catalog::new(st.disk.config())
            .with_upi(&upi)
            .with_heap(&heap)
            .with_pii(&pii);

        // Primary-attribute point query: UPI heap + PII + both scans.
        let plan = PtqQuery::eq(1, 2).with_qt(0.3).plan(&catalog).unwrap();
        let labels: Vec<String> = plan.candidates.iter().map(|c| c.path.label()).collect();
        assert!(
            labels.iter().any(|l| l.starts_with("UpiHeap")),
            "{labels:?}"
        );
        assert!(labels.contains(&"PiiProbe#0".to_string()));
        assert!(labels.contains(&"HeapScan".to_string()));
        assert!(labels.contains(&"UpiFullScan".to_string()));

        // Secondary-attribute point query adds the two secondary variants.
        let plan = PtqQuery::eq(2, 1).with_qt(0.3).plan(&catalog).unwrap();
        let labels: Vec<String> = plan.candidates.iter().map(|c| c.path.label()).collect();
        assert!(
            labels.contains(&"UpiSecondary#0(tailored)".to_string()),
            "{labels:?}"
        );
        assert!(labels.contains(&"UpiSecondary#0(plain)".to_string()));

        // Candidates are ranked ascending, and every estimate matches its
        // decomposition.
        for w in plan.candidates.windows(2) {
            assert!(w[0].est_ms <= w[1].est_ms);
        }
        for c in &plan.candidates {
            assert!((c.est_ms - c.cost.est_ms()).abs() < 1e-9);
            assert_eq!(c.cost.kind, c.path.kind());
            assert_eq!(c.cost.scale, 1.0, "fresh catalog is uncalibrated");
        }

        // Range on the clustered attribute uses the range paths.
        let plan = PtqQuery::range(1, 1, 3)
            .with_qt(0.2)
            .plan(&catalog)
            .unwrap();
        assert!(plan
            .candidates
            .iter()
            .any(|c| c.path == AccessPath::UpiRange { fractured: false }));
        assert!(plan
            .candidates
            .iter()
            .any(|c| matches!(c.path, AccessPath::PiiRange { .. })));

        // explain() names the chosen path, its calibration state, and
        // every candidate.
        let text = plan.explain();
        assert!(text.contains("chosen:"), "{text}");
        assert!(text.contains("cost model:"), "{text}");
        assert!(text.contains("raw"), "{text}");
        assert!(text.contains("candidates:"), "{text}");
        for c in &plan.candidates {
            assert!(text.contains(&c.path.label()), "missing {}", c.path.label());
        }
    }

    #[test]
    fn calibrated_scales_reorder_candidates() {
        use crate::cost::PathKind;
        let st = store();
        let tuples = rows(400);
        let mut upi = upi::DiscreteUpi::create(st.clone(), "u", 1, UpiConfig::default()).unwrap();
        upi.add_secondary(2).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let q = PtqQuery::eq(2, 1).with_qt(0.3);

        let raw_catalog = Catalog::new(st.disk.config()).with_upi(&upi);
        let raw = q.plan(&raw_catalog).unwrap();
        let sec_raw = raw
            .candidates
            .iter()
            .find(|c| matches!(c.path, AccessPath::UpiSecondary { tailored: true, .. }))
            .unwrap()
            .est_ms;

        // A model that learned secondary probes run 10x cheaper must price
        // (and potentially rank) them accordingly.
        let model = raw_catalog
            .cost
            .with_scale(PathKind::SecondaryProbe, SCALE_MIN);
        let cal_catalog = Catalog::new(st.disk.config())
            .with_cost_model(model)
            .with_upi(&upi);
        let cal = q.plan(&cal_catalog).unwrap();
        let sec_cal = cal
            .candidates
            .iter()
            .find(|c| matches!(c.path, AccessPath::UpiSecondary { tailored: true, .. }))
            .unwrap();
        assert!(
            sec_cal.est_ms < sec_raw,
            "calibration must lower the estimate: {} vs {sec_raw}",
            sec_cal.est_ms
        );
        assert!((sec_cal.cost.raw_ms() - sec_raw).abs() < 1e-9, "raw kept");
    }

    use crate::cost::SCALE_MIN;

    #[test]
    fn executor_matches_direct_index_calls() {
        let st = store();
        let tuples = rows(300);
        let mut heap = UnclusteredHeap::create(st.clone(), "h", 4096).unwrap();
        heap.bulk_load(&tuples).unwrap();
        let mut pii = Pii::create(st.clone(), "p", 1, 4096).unwrap();
        pii.bulk_load(&tuples).unwrap();
        let mut upi = upi::DiscreteUpi::create(st.clone(), "u", 1, UpiConfig::default()).unwrap();
        upi.bulk_load(&tuples).unwrap();
        let catalog = Catalog::new(st.disk.config())
            .with_upi(&upi)
            .with_heap(&heap)
            .with_pii(&pii);

        let q = PtqQuery::eq(1, 2).with_qt(0.2);
        let out = q.run(&catalog).unwrap();
        let direct = upi.ptq(2, 0.2).unwrap();
        assert_eq!(out.rows.len(), direct.len());
        for (a, b) in out.rows.iter().zip(&direct) {
            assert_eq!(a.tuple.id, b.tuple.id);
            assert!((a.confidence - b.confidence).abs() < 1e-12);
        }
    }
}
