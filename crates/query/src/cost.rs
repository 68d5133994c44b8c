//! The unified, self-calibrating cost model.
//!
//! Every pricing formula the planner uses lives here, behind one
//! [`CostModel`]: the §6 models of `upi::cost` (coefficient-parameterized
//! through [`DeviceCoeffs`]), the disk-derived bitmap-fetch model, and the
//! histogram-driven tailored-secondary coverage term. The model is owned
//! by the [`Catalog`](crate::Catalog) and threaded into every candidate's
//! estimate, so there is exactly one place where "what does this access
//! path cost" is answered — and exactly one place where *observed*
//! executions feed back.
//!
//! ## Estimate structure
//!
//! Each candidate's estimate is decomposed as
//!
//! ```text
//! est_ms = fixed_ms + scale(kind) · dominant_ms
//! ```
//!
//! * `fixed_ms` — file opens and tree descents (`Cost_init + H·T_descend`
//!   terms, descents priced at the device's short-move cost): device
//!   constants the simulator charges exactly, never rescaled.
//! * `dominant_ms` — the data-dependent term (sequential run reads,
//!   bitmap fetches, saturating pointer dereferences): where model error
//!   lives, and the only term calibration touches.
//! * `scale(kind)` — a dimensionless per-[`PathKind`] coefficient,
//!   initially 1.0, refit from observed executions.
//!
//! ## The calibration loop
//!
//! Every executed plan yields a sample `(kind, fixed_ms, dominant_ms,
//! observed_ms)` — the observed side is the *measured simulated device
//! time* of the execution (`QueryOutput::device`), which the buffer pool
//! attributes per query. [`CalibrationStore::record`] keeps the samples
//! per path kind; [`CostModel::refit`] then solves the per-kind
//! least-squares scale on the dominant term — in log space, since a
//! multiplicative coefficient has relative error:
//!
//! ```text
//! scale* = argmin_s Σ (ln(observed − fixed) − ln(s · dominant))²
//!        = geometric mean of (observed − fixed) / dominant
//! ```
//!
//! **bounded to avoid oscillation**: one refit pass moves a scale by at
//! most [`REFIT_MAX_STEP`]× in either direction, and scales are clamped
//! to `[`[`SCALE_MIN`]`, `[`SCALE_MAX`]`]` outright. An already-calibrated
//! model is a fixed point: refitting on the same samples leaves every
//! coefficient unchanged.

use upi::cost::DeviceCoeffs;
use upi_storage::DiskConfig;

/// The access-path families calibration distinguishes. Estimation error
/// is systematic *per mechanism* — a mispriced bitmap fetch misprices
/// every pointer-chasing probe the same way — so one scale per kind is
/// the right granularity for feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Plain UPI point access: heap run + cutoff merge (`UpiHeap`).
    PointMerge,
    /// Plain UPI range run (`UpiRange`).
    RangeRun,
    /// (Tailored) secondary-index probes over a plain UPI's heap
    /// (`UpiSecondary`).
    SecondaryProbe,
    /// Every clustered path over a fractured UPI's chain, point / range /
    /// secondary (labelled `FracturedProbe`, `FracturedRange`,
    /// `FracturedSecondary`).
    FracturedMerge,
    /// Pointer-chasing probes over an unclustered or page-collapsed heap
    /// (`PiiProbe`, `PiiRange`, `UTreeCircle`, `ContinuousSecondaryProbe`).
    PiiProbe,
    /// Sequential scans (`HeapScan`, `UpiFullScan`, `ContinuousCircle`).
    Scan,
}

/// Number of [`PathKind`] variants (array sizing).
pub const N_PATH_KINDS: usize = 6;

impl PathKind {
    /// All kinds, in index order.
    pub const ALL: [PathKind; N_PATH_KINDS] = [
        PathKind::PointMerge,
        PathKind::RangeRun,
        PathKind::SecondaryProbe,
        PathKind::FracturedMerge,
        PathKind::PiiProbe,
        PathKind::Scan,
    ];

    /// Dense index for per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            PathKind::PointMerge => 0,
            PathKind::RangeRun => 1,
            PathKind::SecondaryProbe => 2,
            PathKind::FracturedMerge => 3,
            PathKind::PiiProbe => 4,
            PathKind::Scan => 5,
        }
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            PathKind::PointMerge => "point-merge",
            PathKind::RangeRun => "range-run",
            PathKind::SecondaryProbe => "secondary-probe",
            PathKind::FracturedMerge => "fractured-merge",
            PathKind::PiiProbe => "pii-probe",
            PathKind::Scan => "scan",
        }
    }
}

/// The priced decomposition of one candidate (see the module docs):
/// `est_ms() = fixed_ms + scale · dominant_ms`. Carried on every
/// `CandidatePlan` so an executed plan can hand the exact ingredients of
/// its estimate back to the [`CalibrationStore`], and so `explain()` can
/// show raw next to calibrated.
#[derive(Debug, Clone, Copy)]
pub struct PathCost {
    /// Which calibration family priced this candidate.
    pub kind: PathKind,
    /// Opens + descents, ms — never rescaled.
    pub fixed_ms: f64,
    /// The data-dependent term, ms, **before** calibration.
    pub dominant_ms: f64,
    /// The per-kind scale in force when this candidate was priced.
    pub scale: f64,
    /// Samples behind that scale at pricing time.
    pub samples: usize,
}

impl PathCost {
    /// The calibrated estimate: `fixed + scale · dominant`.
    pub fn est_ms(&self) -> f64 {
        self.fixed_ms + self.scale * self.dominant_ms
    }

    /// The raw (uncalibrated) §6 estimate: `fixed + dominant`.
    pub fn raw_ms(&self) -> f64 {
        self.fixed_ms + self.dominant_ms
    }
}

/// Hard bounds on any calibrated scale — a coefficient outside this range
/// means the model shape is wrong, not mis-scaled, and refit refuses to
/// chase it further.
pub const SCALE_MIN: f64 = 0.1;
/// Upper hard bound (see [`SCALE_MIN`]).
pub const SCALE_MAX: f64 = 10.0;
/// One refit pass moves a scale by at most this factor in either
/// direction, so alternating over/under-shooting workloads cannot make
/// the planner swing wildly between access paths on consecutive refits.
/// Wide enough that a single pass absorbs realistic mispricings (the
/// bitmap-fetch-vs-read-ahead gap is well under 4x); the retained sample
/// history damps ping-ponging further — the least-squares target itself
/// moves slowly.
pub const REFIT_MAX_STEP: f64 = 4.0;
/// Minimum samples of a kind before its scale is refit at all.
pub const MIN_REFIT_SAMPLES: usize = 3;
/// Samples retained per kind (ring buffer: newest win).
const MAX_SAMPLES_PER_KIND: usize = 512;

/// One observed execution of a plan of some kind.
#[derive(Debug, Clone, Copy)]
struct CalSample {
    /// The candidate's dominant term at pricing time, ms.
    dominant_ms: f64,
    /// Observed device ms in excess of the fixed term
    /// (`observed − fixed`, floored at 0).
    excess_ms: f64,
}

/// Observed `(estimated, measured)` pairs, per path kind — the feedback
/// half of the calibration loop. `UncertainDb` records into it
/// automatically after every executed query; [`CostModel::refit`]
/// consumes it.
#[derive(Debug, Clone, Default)]
pub struct CalibrationStore {
    samples: [Vec<CalSample>; N_PATH_KINDS],
}

impl CalibrationStore {
    /// Empty store.
    pub fn new() -> CalibrationStore {
        CalibrationStore::default()
    }

    /// Record one executed plan: the candidate's priced decomposition
    /// (`fixed_ms`, raw `dominant_ms`) and the measured simulated device
    /// milliseconds of its execution.
    ///
    /// Two kinds of non-evidence are dropped: degenerate samples (no
    /// dominant term to scale), and **warm-cache executions** — a run
    /// that did not even pay half its estimated file opens was served
    /// from the buffer cache, and the §6 estimates price *cold*
    /// executions. Without this filter a few warm repeats of a query
    /// would drive the kind's scale to the floor and make the planner
    /// underprice that path 10x on the next cold run.
    pub fn record(&mut self, kind: PathKind, fixed_ms: f64, dominant_ms: f64, observed_ms: f64) {
        if dominant_ms <= 1e-9 || dominant_ms.is_nan() || !observed_ms.is_finite() {
            return;
        }
        if fixed_ms > 0.0 && observed_ms < 0.5 * fixed_ms {
            return; // warm cache: not an observation of the cold cost
        }
        let v = &mut self.samples[kind.index()];
        v.push(CalSample {
            dominant_ms,
            excess_ms: (observed_ms - fixed_ms).max(0.0),
        });
        if v.len() > MAX_SAMPLES_PER_KIND {
            v.remove(0);
        }
    }

    /// Samples currently held for `kind`.
    pub fn len(&self, kind: PathKind) -> usize {
        self.samples[kind.index()].len()
    }

    /// True when no kind has any samples.
    pub fn is_empty(&self) -> bool {
        self.samples.iter().all(|v| v.is_empty())
    }

    /// Drop every sample (e.g. after a bulk reorganization invalidates
    /// old observations).
    pub fn clear(&mut self) {
        for v in &mut self.samples {
            v.clear();
        }
    }

    /// Serialize the sample rings (for the durability checkpoint's
    /// session payload). Format: version byte, then per kind a `u32`
    /// count followed by `(dominant_ms, excess_ms)` little-endian `f64`
    /// pairs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![1u8];
        for v in &self.samples {
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            for s in v {
                out.extend_from_slice(&s.dominant_ms.to_le_bytes());
                out.extend_from_slice(&s.excess_ms.to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`to_bytes`](Self::to_bytes); `None` on any malformed
    /// or version-mismatched payload (the caller falls back to an empty
    /// store — losing calibration history is degraded, not fatal).
    pub fn from_bytes(data: &[u8]) -> Option<CalibrationStore> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = data.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        };
        if *take(&mut pos, 1)?.first()? != 1 {
            return None;
        }
        let mut store = CalibrationStore::new();
        for v in &mut store.samples {
            let n = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
            if n > MAX_SAMPLES_PER_KIND {
                return None;
            }
            for _ in 0..n {
                let dominant_ms = f64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
                let excess_ms = f64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
                if !dominant_ms.is_finite() || !excess_ms.is_finite() {
                    return None;
                }
                v.push(CalSample {
                    dominant_ms,
                    excess_ms,
                });
            }
        }
        if pos != data.len() {
            return None;
        }
        Some(store)
    }

    /// The least-squares scale for `kind`, unbounded. A multiplicative
    /// coefficient has *relative* error, so the fit is in log space:
    /// minimizing `Σ (ln excess − ln(s·dominant))²` gives the geometric
    /// mean of the per-sample `excess/dominant` ratios — every observed
    /// execution votes equally instead of the largest queries dominating
    /// a linear fit. `None` below [`MIN_REFIT_SAMPLES`].
    fn least_squares(&self, kind: PathKind) -> Option<f64> {
        let v = &self.samples[kind.index()];
        if v.len() < MIN_REFIT_SAMPLES {
            return None;
        }
        let log_mean = v
            .iter()
            // Floor a (warm-cache) zero excess at 0.1% of the estimate so
            // the log stays finite; the hard scale bounds absorb the rest.
            .map(|s| (s.excess_ms.max(1e-3 * s.dominant_ms) / s.dominant_ms).ln())
            .sum::<f64>()
            / v.len() as f64;
        Some(log_mean.exp())
    }
}

/// What one refit pass did to one kind's coefficient.
#[derive(Debug, Clone, Copy)]
pub struct RefitOutcome {
    /// The kind refit.
    pub kind: PathKind,
    /// Samples the fit used.
    pub samples: usize,
    /// Scale before.
    pub old_scale: f64,
    /// Scale after (bounded step toward the least-squares optimum).
    pub new_scale: f64,
}

/// The planner's pricing authority: device coefficients plus per-kind
/// calibration scales (see the module docs for the estimate structure and
/// the refit rule). Built from a [`DiskConfig`] with every scale at 1.0;
/// owned by the `Catalog`; updated by [`refit`](Self::refit).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Named device coefficients (unit-documented on the type) every
    /// formula reads instead of the raw disk configuration.
    pub coeffs: DeviceCoeffs,
    scales: [f64; N_PATH_KINDS],
    samples: [usize; N_PATH_KINDS],
}

impl CostModel {
    /// Uncalibrated model over the disk's device constants.
    pub fn from_disk(disk: &DiskConfig) -> CostModel {
        CostModel {
            coeffs: DeviceCoeffs::from_disk(disk),
            scales: [1.0; N_PATH_KINDS],
            samples: [0; N_PATH_KINDS],
        }
    }

    /// The calibration scale in force for `kind`.
    pub fn scale(&self, kind: PathKind) -> f64 {
        self.scales[kind.index()]
    }

    /// Samples behind `kind`'s current scale.
    pub fn samples(&self, kind: PathKind) -> usize {
        self.samples[kind.index()]
    }

    /// Override one scale (tests and what-if analysis; clamped to the
    /// hard bounds).
    pub fn with_scale(mut self, kind: PathKind, scale: f64) -> CostModel {
        self.scales[kind.index()] = scale.clamp(SCALE_MIN, SCALE_MAX);
        self
    }

    /// Price a candidate: attach the current per-kind scale to the
    /// `(fixed, dominant)` decomposition.
    pub fn price(&self, kind: PathKind, fixed_ms: f64, dominant_ms: f64) -> PathCost {
        PathCost {
            kind,
            fixed_ms,
            dominant_ms,
            scale: self.scale(kind),
            samples: self.samples(kind),
        }
    }

    /// `Cost_init + H · T_descend`: open a file and descend its tree
    /// (descents priced at the calibrated short-move coefficient).
    pub fn open_descend(&self, height: usize) -> f64 {
        self.coeffs.open_descend_ms(height)
    }

    /// Milliseconds to sequentially read `bytes`.
    pub fn read_ms(&self, bytes: f64) -> f64 {
        self.coeffs.read_cost_ms(bytes)
    }

    /// Cost of dereferencing `k` uniformly scattered targets over a
    /// `span_bytes` file in sorted physical order (PostgreSQL-style
    /// bitmap fetch), mirroring the simulated disk's move-cost curve:
    /// each hop pays `min(seek curve, read-through)`, so sparse target
    /// sets pay seeks and dense sets degenerate into a sequential read of
    /// the span — the *saturation* mechanism of §6.3, priced from the
    /// device coefficients instead of the fitted sigmoid.
    pub fn bitmap_fetch_ms(&self, span_bytes: f64, page_bytes: f64, k: f64) -> f64 {
        if k < 1.0 || span_bytes <= 0.0 {
            return 0.0;
        }
        let c = &self.coeffs;
        let page_bytes = page_bytes.max(512.0);
        let pages = (span_bytes / page_bytes).max(1.0);
        // Expected distinct pages hit by k uniform targets.
        let distinct = (pages * (1.0 - (1.0 - 1.0 / pages).powf(k))).clamp(1.0, pages);
        // Average gap between consecutive hit pages, net of the pages read.
        let gap = ((span_bytes - distinct * page_bytes) / distinct).max(0.0);
        let move_ms = if gap < 1.0 {
            0.0
        } else {
            let frac = (gap / c.stroke_bytes).min(1.0);
            let curve = c.seek_floor_ms + (c.t_seek_ms - c.seek_floor_ms) * frac.sqrt();
            curve.min(c.read_cost_ms(gap))
        };
        distinct * (move_ms + c.read_cost_ms(page_bytes))
    }

    /// [`bitmap_fetch_ms`](Self::bitmap_fetch_ms) for **tailored**
    /// access (Algorithm 3), whose fetches are steered into `visits`
    /// measured contiguous regions of the heap: the head pays one
    /// positioning move per region visit — crossing the space between
    /// measured slices — while inside a region the sorted fetches
    /// advance in short strokes the readahead window absorbs, leaving
    /// only the page reads. Degenerates to per-fetch moves (exactly
    /// `bitmap_fetch_ms`) as `visits` approaches the distinct page
    /// count, so an index with no measured concentration prices no
    /// cheaper than a plain probe.
    pub fn clustered_fetch_ms(&self, span_bytes: f64, page_bytes: f64, k: f64, visits: f64) -> f64 {
        if k < 1.0 || span_bytes <= 0.0 {
            return 0.0;
        }
        let c = &self.coeffs;
        let page_bytes = page_bytes.max(512.0);
        let pages = (span_bytes / page_bytes).max(1.0);
        let distinct = (pages * (1.0 - (1.0 - 1.0 / pages).powf(k))).clamp(1.0, pages);
        let visits = visits.clamp(1.0, distinct);
        let gap = ((span_bytes - distinct * page_bytes) / visits).max(0.0);
        let move_ms = if gap < 1.0 {
            0.0
        } else {
            let frac = (gap / c.stroke_bytes).min(1.0);
            let curve = c.seek_floor_ms + (c.t_seek_ms - c.seek_floor_ms) * frac.sqrt();
            curve.min(c.read_cost_ms(gap))
        };
        visits * move_ms + distinct * c.read_cost_ms(page_bytes)
    }

    /// Export the per-kind `(scale, samples)` pairs, in
    /// [`PathKind::ALL`] order (for the durability checkpoint payload).
    pub fn export_scales(&self) -> [(f64, usize); N_PATH_KINDS] {
        let mut out = [(1.0, 0); N_PATH_KINDS];
        for kind in PathKind::ALL {
            out[kind.index()] = (self.scales[kind.index()], self.samples[kind.index()]);
        }
        out
    }

    /// Restore previously exported scales (clamped to the hard bounds,
    /// so a corrupted payload cannot smuggle in a wild coefficient).
    pub fn import_scales(&mut self, scales: &[(f64, usize); N_PATH_KINDS]) {
        for kind in PathKind::ALL {
            let (s, n) = scales[kind.index()];
            self.scales[kind.index()] = if s.is_finite() {
                s.clamp(SCALE_MIN, SCALE_MAX)
            } else {
                1.0
            };
            self.samples[kind.index()] = n;
        }
    }

    /// One bounded refit pass over the store (see the module docs).
    /// Returns what changed, one entry per kind that had enough samples.
    pub fn refit(&mut self, store: &CalibrationStore) -> Vec<RefitOutcome> {
        let mut out = Vec::new();
        for kind in PathKind::ALL {
            let Some(ls) = store.least_squares(kind) else {
                continue;
            };
            let old = self.scales[kind.index()];
            let target = ls.clamp(SCALE_MIN, SCALE_MAX);
            let new = target
                .clamp(old / REFIT_MAX_STEP, old * REFIT_MAX_STEP)
                .clamp(SCALE_MIN, SCALE_MAX);
            self.scales[kind.index()] = new;
            self.samples[kind.index()] = store.len(kind);
            out.push(RefitOutcome {
                kind,
                samples: store.len(kind),
                old_scale: old,
                new_scale: new,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::from_disk(&DiskConfig::default())
    }

    #[test]
    fn bitmap_fetch_regimes() {
        let m = model();
        let disk = DiskConfig::default();
        let span = 64.0 * 1024.0 * 1024.0;
        // Sparse: each fetch pays a seek-ish move plus one page read.
        let sparse = m.bitmap_fetch_ms(span, 8192.0, 10.0);
        assert!(
            sparse > 10.0 * disk.seek_floor_ms,
            "sparse pays seeks: {sparse}"
        );
        // Dense: saturates near a sequential read of the span.
        let dense = m.bitmap_fetch_ms(span, 8192.0, 1e6);
        let scan = disk.read_cost_ms(span as u64);
        assert!(dense <= scan * 1.05, "dense ~ scan: {dense} vs {scan}");
        assert!(dense >= scan * 0.8, "dense ~ scan: {dense} vs {scan}");
        // Near-monotone in k (a small dip is tolerated where the move
        // cost switches from seek-bound to read-through-bound).
        let mut prev = 0.0;
        for k in [1.0, 10.0, 100.0, 1000.0, 10_000.0] {
            let c = m.bitmap_fetch_ms(span, 8192.0, k);
            assert!(c >= prev * 0.9, "{c} vs {prev} at k={k}");
            prev = prev.max(c);
        }
        assert_eq!(m.bitmap_fetch_ms(span, 8192.0, 0.0), 0.0);
    }

    #[test]
    fn clustered_fetches_pay_seeks_per_region_visit() {
        let disk = DiskConfig::default();
        let m = CostModel::from_disk(&disk);
        let span = 400.0 * 1024.0 * 1024.0;
        // With one move per fetch the price is exactly the plain bitmap
        // fetch; fewer region visits shed move cost but never the page
        // reads.
        let plain = m.bitmap_fetch_ms(span, 8192.0, 400.0);
        assert_eq!(m.clustered_fetch_ms(span, 8192.0, 400.0, 400.0), plain);
        let clustered = m.clustered_fetch_ms(span, 8192.0, 400.0, 20.0);
        assert!(clustered < plain, "{clustered} vs {plain}");
        let reads = 400.0 * disk.read_cost_ms(8192);
        assert!(
            clustered > reads,
            "moves never free: {clustered} vs {reads}"
        );
        // Out-of-range visit counts clamp instead of extrapolating.
        assert_eq!(
            m.clustered_fetch_ms(span, 8192.0, 400.0, 1e9),
            m.clustered_fetch_ms(span, 8192.0, 400.0, 400.0)
        );
        assert_eq!(m.clustered_fetch_ms(span, 8192.0, 0.0, 5.0), 0.0);
    }

    #[test]
    fn pricing_applies_the_kind_scale_to_the_dominant_term_only() {
        let m = model().with_scale(PathKind::PiiProbe, 0.5);
        let c = m.price(PathKind::PiiProbe, 100.0, 40.0);
        assert_eq!(c.raw_ms(), 140.0);
        assert_eq!(c.est_ms(), 120.0, "fixed term must not be rescaled");
        let untouched = m.price(PathKind::Scan, 100.0, 40.0);
        assert_eq!(untouched.est_ms(), 140.0);
    }

    #[test]
    fn refit_moves_toward_least_squares_boundedly() {
        let mut m = model();
        let mut store = CalibrationStore::new();
        // Observed excess is consistently 0.2x the dominant estimate.
        for i in 0..8 {
            let d = 100.0 + i as f64;
            store.record(PathKind::SecondaryProbe, 50.0, d, 50.0 + 0.2 * d);
        }
        // First pass: bounded at 1/REFIT_MAX_STEP, not straight to 0.2.
        let out = m.refit(&store);
        assert_eq!(out.len(), 1);
        assert!((m.scale(PathKind::SecondaryProbe) - 1.0 / REFIT_MAX_STEP).abs() < 1e-9);
        // Second pass reaches the optimum; third is a no-op.
        m.refit(&store);
        assert!((m.scale(PathKind::SecondaryProbe) - 0.2).abs() < 1e-9);
        let before = m.scale(PathKind::SecondaryProbe);
        m.refit(&store);
        assert_eq!(
            m.scale(PathKind::SecondaryProbe),
            before,
            "already-calibrated refit must be a no-op"
        );
        // Unrelated kinds never move.
        assert_eq!(m.scale(PathKind::Scan), 1.0);
        assert_eq!(m.samples(PathKind::SecondaryProbe), 8);
    }

    #[test]
    fn refit_respects_hard_bounds_and_min_samples() {
        let mut m = model();
        let mut store = CalibrationStore::new();
        store.record(PathKind::Scan, 0.0, 100.0, 1.0);
        store.record(PathKind::Scan, 0.0, 100.0, 1.0);
        assert!(
            m.refit(&store).is_empty(),
            "below MIN_REFIT_SAMPLES no fit happens"
        );
        store.record(PathKind::Scan, 0.0, 100.0, 1.0);
        // ls = 0.01, below SCALE_MIN; and the first step is bounded anyway.
        for _ in 0..16 {
            m.refit(&store);
        }
        assert!(
            (m.scale(PathKind::Scan) - SCALE_MIN).abs() < 1e-9,
            "scale must stop at the hard floor: {}",
            m.scale(PathKind::Scan)
        );
    }

    #[test]
    fn degenerate_samples_are_ignored() {
        let mut store = CalibrationStore::new();
        store.record(PathKind::Scan, 10.0, 0.0, 50.0); // nothing to scale
        store.record(PathKind::Scan, 10.0, 5.0, f64::NAN);
        assert!(store.is_empty());
    }

    #[test]
    fn warm_cache_executions_are_not_evidence() {
        let mut store = CalibrationStore::new();
        // A cached execution observes almost nothing — below half the
        // estimated opens it cannot be a cold observation.
        store.record(PathKind::Scan, 100.0, 400.0, 3.0);
        assert!(store.is_empty(), "warm sample must be dropped");
        // At or above the opens threshold the sample counts.
        store.record(PathKind::Scan, 100.0, 400.0, 60.0);
        assert_eq!(store.len(PathKind::Scan), 1);
        // A warm workload therefore cannot drag the scale to the floor.
        let mut m = CostModel::from_disk(&DiskConfig::default());
        for _ in 0..8 {
            store.record(PathKind::Scan, 100.0, 400.0, 0.0);
        }
        assert_eq!(store.len(PathKind::Scan), 1);
        m.refit(&store);
        assert_eq!(m.scale(PathKind::Scan), 1.0, "one sample: no refit");
    }
}
