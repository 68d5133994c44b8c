//! Every open is justified by a bound: the skip rules, pinned.
//!
//! * **Lazy chain merge.** A seeded oracle over fractured chains of 1–9
//!   components — deletes, updates, buffered rows, external floors
//!   raised before and during the merge, `k ∈ {1, 3, 10, 40}` — with
//!   confidences on the quantization grid and on `0.1` boundaries and
//!   query values sharing one sketch bucket. The lazy merge's rows must
//!   be bit-equal to the eager reference: the batch `FracturedUpi::ptq`
//!   (every component read serially), canonically sorted and truncated.
//! * A component whose bound is below the floor reads **zero pages**,
//!   proven on the query's attributed device window.
//! * A cutoff list is never opened under a floor above every cutoff
//!   entry, and still opened when a qualifying cutoff row is needed —
//!   including one whose stored key rounds above `C`.
//! * A range's cutoff phase is skipped iff its bound is below `qt`:
//!   exact equality scans, and a tuple whose below-cutoff mass over three
//!   values reaches `qt` is found.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upi::{
    Chain, ConfidenceBound, DiscreteUpi, FracturedConfig, FracturedUpi, PtqResult, Skip, UpiConfig,
};
use upi_storage::codec::{dequantize_prob, quantize_prob};
use upi_storage::{DiskConfig, QueryId, SimDisk, Store};
use upi_uncertain::{Datum, DiscretePmf, Field, Tuple, TupleId};

fn store() -> Store {
    Store::new(Arc::new(SimDisk::new(DiskConfig::default())), 4 << 20)
}

fn tuple(id: u64, exist: f64, alts: Vec<(u64, f64)>) -> Tuple {
    Tuple::new(
        TupleId(id),
        exist,
        vec![
            Field::Certain(Datum::Str(format!("row-{id}"))),
            Field::Discrete(DiscretePmf::new(alts)),
        ],
    )
}

/// `(tid, confidence bits)`: the comparison is bit-exact.
fn key(r: &PtqResult) -> (u64, u64) {
    (r.tuple.id.0, r.confidence.to_bits())
}

/// The keyed (stored) form of a confidence.
fn grid(p: f64) -> f64 {
    dequantize_prob(quantize_prob(p))
}

/// `n` values hashing into the same sketch bucket as `v0`, found through
/// the sketch itself.
fn bucket_mates(v0: u64, n: usize) -> Vec<u64> {
    let mut b = ConfidenceBound::new();
    b.note(v0, 0.5);
    (0..)
        .filter(|&v| v != v0 && b.bound(v) > 0.0)
        .take(n)
        .collect()
}

/// Probabilities on `0.1` boundaries, their neighbours and the grid.
fn probs() -> Vec<f64> {
    vec![
        0.1,
        0.1 - 1e-12,
        0.1 + 1e-12,
        grid(0.1),
        0.05,
        0.2,
        0.25,
        0.25 - 1e-12,
        0.3,
        0.4,
        0.5,
        0.6,
    ]
}

/// A random PMF of 1–3 alternatives over `values`, summing to at most 1.
fn gen_tuple(rng: &mut StdRng, id: u64, values: &[u64], probs: &[f64]) -> Tuple {
    let n = rng.gen_range(1..=3usize);
    let mut alts: Vec<(u64, f64)> = Vec::new();
    let mut sum = 0.0;
    for _ in 0..n {
        let v = values[rng.gen_range(0..values.len())];
        let p = probs[rng.gen_range(0..probs.len())];
        if alts.iter().any(|a| a.0 == v) || sum + p > 1.0 {
            continue;
        }
        sum += p;
        alts.push((v, p));
    }
    let exist = [1.0, 1.0, 0.5, 0.8][rng.gen_range(0..4usize)];
    tuple(id, exist, alts)
}

/// One seeded fractured table: a main component, `rng`-many fractures
/// (0–8) each flushed after inserts, deletes and updates, and a last
/// batch of the same left in the insert buffer.
fn gen_chain(seed: u64, values: &[u64]) -> (Store, FracturedUpi) {
    let mut rng = StdRng::seed_from_u64(seed);
    let st = store();
    let cutoff = [0.1, 0.25, 0.3][rng.gen_range(0..3usize)];
    let cfg = FracturedConfig {
        upi: UpiConfig {
            cutoff,
            page_size: 1024,
            ..UpiConfig::default()
        },
        buffer_ops: 0,
    };
    let mut f = FracturedUpi::create(st.clone(), "f", 1, &[], cfg).unwrap();
    let probs = probs();
    let mut live: Vec<u64> = Vec::new();
    let mut next = 0u64;
    let initial: Vec<Tuple> = (0..rng.gen_range(0..60u64))
        .map(|_| {
            next += 1;
            live.push(next);
            gen_tuple(&mut rng, next, values, &probs)
        })
        .collect();
    f.load_initial(&initial).unwrap();
    let fractures = rng.gen_range(0..=8usize);
    for round in 0..=fractures {
        for _ in 0..rng.gen_range(0..25) {
            match rng.gen_range(0..10) {
                0..=5 => {
                    next += 1;
                    live.push(next);
                    f.insert(gen_tuple(&mut rng, next, values, &probs)).unwrap();
                }
                6 | 7 if !live.is_empty() => {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    f.delete(TupleId(id)).unwrap();
                }
                _ if !live.is_empty() => {
                    let id = live[rng.gen_range(0..live.len())];
                    f.delete(TupleId(id)).unwrap();
                    f.insert(gen_tuple(&mut rng, id, values, &probs)).unwrap();
                }
                _ => {}
            }
        }
        if round < fractures {
            f.flush().unwrap();
        }
    }
    (st, f)
}

/// Pull a top-k merge: `k` rows at most, with `floor` raised after the
/// first `raise_after` rows. Returns the rows the consumer keeps — rows
/// pulled after the raise that fall below the floor are the caller's to
/// drop (a head cached before the raise may still surface), so they
/// are dropped here.
fn pull_topk(
    chain: Chain<'_>,
    value: u64,
    qt: f64,
    k: usize,
    floor: Option<(usize, f64)>,
) -> Vec<(u64, u64)> {
    let mut run = chain.point_run(value, qt, Some(k), &[]).unwrap();
    let mut out = Vec::new();
    let mut raised = None;
    let mut last: Option<(f64, u64)> = None;
    for pulled in 0..k {
        if let Some((after, f)) = floor {
            if pulled == after {
                run.raise_conf_floor(f);
                raised = Some(f);
            }
        }
        let Some(r) = run.next() else { break };
        let r = r.unwrap();
        // Confidence-ordered, ties by ascending tid.
        let rank = (r.confidence, r.tuple.id.0);
        if let Some((c, t)) = last {
            assert!(
                c > rank.0 || (c == rank.0 && t < rank.1),
                "merge order broken: {last:?} then {rank:?} (floor {floor:?})"
            );
        }
        last = Some(rank);
        if raised.is_none_or(|f| r.confidence >= f) {
            out.push(key(&r));
        }
    }
    out
}

/// The eager reference for [`pull_topk`]: the batch answer's first
/// `after` rows, then the rest at or above the floor, truncated to `k`.
fn expect_topk(batch: &[PtqResult], k: usize, floor: Option<(usize, f64)>) -> Vec<(u64, u64)> {
    let mut want: Vec<(u64, u64)> = Vec::new();
    for (i, r) in batch.iter().enumerate() {
        if floor.is_none_or(|(after, f)| i < after || r.confidence >= f) {
            want.push(key(r));
        }
    }
    want.truncate(k);
    want
}

#[test]
fn lazy_merge_matches_the_eager_merge_on_seeded_chains() {
    const QV: u64 = 7;
    let mut values = vec![QV];
    values.extend(bucket_mates(QV, 2));
    values.extend([3, 11, 12]);
    let mut checked = 0usize;
    for seed in 0..24u64 {
        let (_st, f) = gen_chain(seed, &values);
        let chain = f.chain();
        let c = f.main().config().cutoff;
        for &value in &values {
            for qt in [0.0, 0.05, 0.1, c, 0.3] {
                let batch = f.ptq(value, qt).unwrap();
                // Unbounded: every admitted component runs Algorithm 2.
                let mut all: Vec<PtqResult> = chain
                    .point_run(value, qt, None, &[])
                    .unwrap()
                    .collect::<Result<_, _>>()
                    .unwrap();
                upi::sort_results(&mut all);
                assert_eq!(
                    all.iter().map(key).collect::<Vec<_>>(),
                    batch.iter().map(key).collect::<Vec<_>>(),
                    "seed {seed} v={value} qt={qt}: unbounded merge"
                );
                let ceiling = c.max(grid(c));
                let mut floors = vec![None];
                for f in [0.1, grid(0.1), c, ceiling, 0.3] {
                    floors.push(Some((0, f)));
                    floors.push(Some((1, f)));
                }
                if let Some(r) = batch.get(2) {
                    floors.push(Some((2, r.confidence)));
                }
                for k in [1, 3, 10, 40] {
                    for &floor in &floors {
                        assert_eq!(
                            pull_topk(chain, value, qt, k, floor),
                            expect_topk(&batch, k, floor),
                            "seed {seed} ({} components) v={value} qt={qt} k={k} floor={floor:?}",
                            chain.n_components()
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 10_000, "{checked}");
}

/// Main holds many strong rows of the value; a fracture holds only weak
/// ones, below the cutoff of main's k-th best.
fn strong_main_weak_fracture() -> (Store, FracturedUpi) {
    let st = store();
    let cfg = FracturedConfig {
        upi: UpiConfig {
            page_size: 1024,
            ..UpiConfig::default()
        },
        buffer_ops: 0,
    };
    let mut f = FracturedUpi::create(st.clone(), "f", 1, &[], cfg).unwrap();
    let main: Vec<Tuple> = (0..200)
        .map(|i| tuple(i, 1.0, vec![(5, 0.9), (6, 0.05)]))
        .collect();
    f.load_initial(&main).unwrap();
    for i in 1000..1100 {
        f.insert(tuple(i, 1.0, vec![(6, 0.7), (5, 0.2)])).unwrap();
    }
    f.flush().unwrap();
    assert_eq!(f.n_fractures(), 1);
    (st, f)
}

/// Cold-run `body` under one attributed query id: its device window.
fn attributed<T>(st: &Store, body: impl FnOnce() -> T) -> (T, upi_storage::IoStats) {
    st.go_cold();
    let qid = QueryId::next();
    let out = {
        let _g = st.pool.attributed(qid);
        body()
    };
    (out, st.pool.take_attributed(qid))
}

#[test]
fn a_component_below_the_floor_reads_zero_pages() {
    let (st, f) = strong_main_weak_fracture();
    let chain = f.chain();
    let topk = |chain: Chain<'_>| {
        let run = chain.point_run(5, 0.0, Some(3), &[]).unwrap();
        let rows: Vec<(u64, u64)> = run.take(3).map(|r| key(&r.unwrap())).collect();
        rows
    };
    // The fracture's bound for value 5 (0.2) is below main's third-best
    // 0.9: it is never opened, so the fractured query reads exactly the
    // pages — and opens exactly the one file — the main alone does.
    let (rows, io) = attributed(&st, || topk(chain));
    let (alone, alone_io) = attributed(&st, || topk(f.main().chain()));
    assert_eq!(rows, alone);
    assert_eq!(io.page_reads, alone_io.page_reads, "{io:?} vs {alone_io:?}");
    assert_eq!(io.file_opens, 1, "only main's heap: {io:?}");

    let mut run = chain.point_run(5, 0.0, Some(3), &[]).unwrap();
    for _ in 0..3 {
        run.next().unwrap().unwrap();
    }
    assert_eq!(run.component_stats()[1], upi::CursorStats::default());
    match run.component_skips()[1] {
        Some(Skip::Component { bound, floor }) => {
            assert!(
                bound < floor && bound >= 0.2 && floor >= 0.9,
                "{bound} {floor}"
            )
        }
        other => panic!("fracture must be skipped by its bound: {other:?}"),
    }
    // A value no component stored is "no row", whatever the floor.
    let absent = (100..)
        .find(|&v| {
            chain
                .components()
                .all(|u| u.confidence_bound().bound(v) == 0.0)
        })
        .unwrap();
    let run = chain.point_run(absent, 0.0, Some(3), &[]).unwrap();
    assert_eq!(run.component_skips(), vec![Some(Skip::NoRow); 2]);

    // Once the fracture's rows can matter, it is opened: value 6's best
    // rows live there.
    let run = chain.point_run(6, 0.0, Some(3), &[]).unwrap();
    let rows: Vec<PtqResult> = run.map(|r| r.unwrap()).take(3).collect();
    assert!(
        rows.iter().all(|r| r.tuple.id.0 >= 1000),
        "fracture rows win"
    );
}

/// A plain UPI with cutoff `c`: value 1's heap run holds `n_heap` rows at
/// 0.6, its cutoff list `n_cut` rows just below `c` (stored key
/// `grid(c - 1e-12)`, which rounds above `c` when `c` is off the grid).
fn cutoff_upi(c: f64, n_heap: u64, n_cut: u64) -> (Store, DiscreteUpi) {
    let st = store();
    let cfg = UpiConfig {
        cutoff: c,
        page_size: 1024,
        ..UpiConfig::default()
    };
    let mut u = DiscreteUpi::create(st.clone(), "u", 1, cfg).unwrap();
    let mut rows: Vec<Tuple> = (0..n_heap)
        .map(|i| tuple(i, 1.0, vec![(1, 0.6), (2, 0.3)]))
        .collect();
    rows.extend((0..n_cut).map(|i| tuple(100 + i, 1.0, vec![(2, 0.7), (1, c - 1e-12)])));
    u.bulk_load(&rows).unwrap();
    (st, u)
}

#[test]
fn cutoff_list_opens_only_when_a_cutoff_row_can_qualify() {
    for c in [0.1, 0.25] {
        let (st, u) = cutoff_upi(c, 20, 15);
        let chain = u.chain();
        let ceiling = c.max(grid(c));
        let stored = grid(c - 1e-12);
        assert!(stored <= ceiling, "every cutoff key is under the ceiling");
        let run_all = |floor: f64| {
            let mut run = chain.point_run(1, 0.0, Some(40), &[]).unwrap();
            run.raise_conf_floor(floor);
            let rows: Vec<(u64, u64)> = run.by_ref().map(|r| key(&r.unwrap())).collect();
            (rows, run.component_skips()[0])
        };
        // A floor above the ceiling: the heap run alone answers and the
        // cutoff file is never opened.
        let ((rows, skip), io) = attributed(&st, || run_all(ceiling + 1e-9));
        assert_eq!(rows.len(), 20, "C={c}");
        assert_eq!(io.file_opens, 1, "C={c}: heap only {io:?}");
        assert_eq!(
            skip,
            Some(Skip::CutoffList {
                floor: ceiling + 1e-9
            })
        );
        // A floor exactly at the cutoff keys (above C itself when C is
        // off the grid): the list is opened and its rows qualify.
        let ((rows, skip), io) = attributed(&st, || run_all(stored));
        assert_eq!(rows.len(), 35, "C={c}: cutoff rows at the floor qualify");
        assert_eq!(io.file_opens, 2, "C={c}: heap + cutoff {io:?}");
        assert_eq!(skip, None);
        // No floor, more rows wanted than the run holds: opened.
        let ((rows, _), io) = attributed(&st, || run_all(f64::NEG_INFINITY));
        let batch: Vec<(u64, u64)> = u.ptq(1, 0.0).unwrap().iter().map(key).collect();
        assert_eq!(rows, batch, "C={c}");
        assert_eq!(io.file_opens, 2, "C={c}");
    }
}

/// Tuple 9 keeps its heap copy under value 100 and three below-cutoff
/// alternatives in `[1, 3]`; tuples 0..5 put heap rows of value 4 next
/// to the range (values 1–4 and 100 fall in distinct sketch buckets).
fn range_upi() -> (Store, DiscreteUpi, Vec<Tuple>) {
    let st = store();
    let cfg = UpiConfig {
        cutoff: 0.3,
        page_size: 1024,
        ..UpiConfig::default()
    };
    let mut u = DiscreteUpi::create(st.clone(), "u", 1, cfg).unwrap();
    let mut rows: Vec<Tuple> = (0..5).map(|i| tuple(i, 1.0, vec![(4, 0.8)])).collect();
    rows.push(tuple(
        9,
        1.0,
        vec![(100, 0.4), (1, 0.2), (2, 0.2), (3, 0.2)],
    ));
    u.bulk_load(&rows).unwrap();
    (st, u, rows)
}

#[test]
fn range_cutoff_phase_runs_iff_its_bound_reaches_qt() {
    let (st, u, rows) = range_upi();
    let bound = u
        .range_cutoff_bound(1, 3)
        .expect("a narrow range is bounded");
    // Tuple 9's phase-2 mass, summed on the key grid in value order, is
    // exactly the bound: the sketch holds its three alternatives.
    let mass = grid(0.2) + grid(0.2) + grid(0.2);
    assert_eq!(
        bound.to_bits(),
        (0.0 + grid(0.2) + grid(0.2) + grid(0.2)).to_bits()
    );
    assert_eq!(bound, mass);
    for (qt, runs) in [(bound, true), (bound - 1e-9, true), (bound + 1e-9, false)] {
        assert_eq!(u.range_cutoff_phase_runs(1, 3, qt), runs, "qt={qt}");
        let ((got, skip), io) = attributed(&st, || {
            let mut run = u.range_run(1, 3, qt, None).unwrap();
            let mut got: Vec<u64> = run.by_ref().map(|r| r.unwrap().tuple.id.0).collect();
            got.sort_unstable();
            (got, run.skipped())
        });
        // The reference: every tuple whose in-range mass reaches qt.
        let want: Vec<u64> = rows
            .iter()
            .filter(|t| {
                let alts = t.discrete(1).alternatives();
                let in_range = alts.iter().filter(|a| (1..=3).contains(&a.0));
                in_range.map(|a| grid(a.1)).sum::<f64>() >= qt
            })
            .map(|t| t.id.0)
            .collect();
        assert_eq!(got, want, "qt={qt}");
        assert_eq!(got.contains(&9), runs, "tuple 9 is found only by phase 2");
        assert_eq!(io.file_opens, 1 + runs as u64, "qt={qt}: {io:?}");
        match skip {
            None => assert!(runs),
            Some(Skip::CutoffPhase { bound: b, qt: q }) => {
                assert!(!runs && b == bound && q == qt)
            }
            other => panic!("{other:?}"),
        }
    }
    // A heap row's value in the range lifts that value's term to the
    // cutoff ceiling: the phase runs at tuple 9's mass.
    assert!(u.range_cutoff_bound(1, 4).unwrap() > mass);
    assert!(u.range_cutoff_phase_runs(1, 4, mass + 1e-9));
    // A range wider than the sketch falls back to scanning.
    assert_eq!(u.range_cutoff_bound(0, 1000), None);
    assert!(u.range_cutoff_phase_runs(0, 1000, 0.99));
}
