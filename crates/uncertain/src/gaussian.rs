//! Constrained (truncated) 2-D Gaussian location uncertainty.

use std::sync::OnceLock;

/// A radially symmetric 2-D Gaussian centered at `(cx, cy)` with standard
/// deviation `sigma`, truncated at a hard boundary circle of radius `bound`
/// — the uncertainty model the paper assigns to Cartel GPS readings
/// ("a constrained Gaussian distribution ... with a boundary to limit the
/// distribution as done in \[16\]", §7.1).
///
/// For a radially symmetric Gaussian the mass inside radius `r` of the
/// center is `1 − exp(−r²/2σ²)`, which gives closed forms for the
/// normalization constant and quantile radii; probabilities over arbitrary
/// query circles are computed by exact radial integration along a fan of
/// rays (see [`prob_in_circle`](ConstrainedGaussian::prob_in_circle)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstrainedGaussian {
    /// Center x (e.g. longitude in meters-projected coordinates).
    pub cx: f64,
    /// Center y.
    pub cy: f64,
    /// Standard deviation of the untruncated Gaussian.
    pub sigma: f64,
    /// Hard boundary radius; density is zero beyond it.
    pub bound: f64,
}

/// Number of rays used for numeric circle integration. 256 rays keep the
/// absolute error well below 1e-3, far below the probability-threshold
/// granularity the experiments use.
const INTEGRATION_RAYS: usize = 256;

/// `(sin θᵢ, cos θᵢ)` of the fixed midpoint angles
/// `θᵢ = (i + 0.5) · τ/INTEGRATION_RAYS`, computed once per process by the
/// expression the `prob_in_circle` contract fixes.
fn ray_table() -> &'static [(f64, f64); INTEGRATION_RAYS] {
    static TABLE: OnceLock<[(f64, f64); INTEGRATION_RAYS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let dtheta = std::f64::consts::TAU / INTEGRATION_RAYS as f64;
        std::array::from_fn(|i| ((i as f64 + 0.5) * dtheta).sin_cos())
    })
}

impl ConstrainedGaussian {
    /// Construct; panics on non-positive `sigma`/`bound`.
    pub fn new(cx: f64, cy: f64, sigma: f64, bound: f64) -> ConstrainedGaussian {
        assert!(sigma > 0.0, "sigma must be positive");
        assert!(bound > 0.0, "bound must be positive");
        ConstrainedGaussian {
            cx,
            cy,
            sigma,
            bound,
        }
    }

    /// Untruncated Gaussian mass within radius `r` of the center.
    #[inline]
    fn raw_mass(&self, r: f64) -> f64 {
        1.0 - (-r * r / (2.0 * self.sigma * self.sigma)).exp()
    }

    /// Normalization: raw mass inside the boundary circle.
    #[inline]
    fn z(&self) -> f64 {
        self.raw_mass(self.bound)
    }

    /// Probability mass within radius `r` of the center (1 for `r >= bound`).
    pub fn mass_within(&self, r: f64) -> f64 {
        if r <= 0.0 {
            0.0
        } else if r >= self.bound {
            1.0
        } else {
            self.raw_mass(r) / self.z()
        }
    }

    /// Radius containing probability mass `p` (the paper's U-Tree-style
    /// probabilistically constrained regions reduce to these circles for a
    /// radially symmetric distribution).
    ///
    /// `quantile_radius(0) = 0`, `quantile_radius(1) = bound`.
    pub fn quantile_radius(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return self.bound;
        }
        let target = p * self.z();
        (-2.0 * self.sigma * self.sigma * (1.0 - target).ln()).sqrt()
    }

    /// Probability that the true location falls inside the circle of radius
    /// `qr` around `(qx, qy)`.
    ///
    /// Exact in the radial direction (closed-form mass between the ray's
    /// entry and exit of the query circle) and discretized over
    /// `INTEGRATION_RAYS` angles.
    ///
    /// # Contract
    ///
    /// The returned **bits** are part of the interface: confidences are
    /// compared against thresholds, sorted on and checked against oracles,
    /// so two builds must agree exactly. What is fixed, and what an
    /// optimisation therefore may not change:
    ///
    /// * the angles — the `INTEGRATION_RAYS` midpoints
    ///   `(i + 0.5) · τ/INTEGRATION_RAYS`, each through `f64::sin_cos`;
    /// * the per-ray expressions — `b = c·dx + s·dy`,
    ///   `disc = b·b − (d² − qr²)`, `t0 = max(b − √disc, 0)`,
    ///   `t1 = min(b + √disc, bound)`, `exp(−t·t / (2·σ·σ))` with a true
    ///   division, evaluated in exactly that association;
    /// * the summation — `m0 − m1` added to one accumulator in ascending
    ///   ray order, rays with `disc ≤ 0` or `t1 ≤ t0` contributing nothing.
    ///
    /// What may change is how often each value is *computed*: the angle
    /// table is built once, loop invariants are evaluated once, and an
    /// `exp` whose argument is known is not called (`t0` clamped to 0 gives
    /// `exp(−0) = 1`; `t1` clamped to `bound` shares one
    /// `exp(−bound²/2σ²)`). A different ray count or quadrature, a
    /// re-ordered or pairwise sum, multiplying by a reciprocal, or fused /
    /// fast-math arithmetic all change the bits and are out. The
    /// `#[cfg(test)]` reference below is the specification the
    /// bit-identity test compares against.
    pub fn prob_in_circle(&self, qx: f64, qy: f64, qr: f64) -> f64 {
        let dx = qx - self.cx;
        let dy = qy - self.cy;
        let d2 = dx * dx + dy * dy;
        let d = d2.sqrt();
        // Disjoint: query circle cannot touch the boundary circle.
        if d >= qr + self.bound {
            return 0.0;
        }
        // Query circle contains the whole boundary circle.
        if qr >= d + self.bound {
            return 1.0;
        }
        let bound = self.bound;
        let k = d2 - qr * qr;
        // Ray x(t) = center + t*(c,s), t >= 0. Inside query circle when
        // t² − 2t(c·dx + s·dy) + d² − qr² <= 0.
        //
        // First pass, geometry only: no branch and no libm call, so the
        // compiler can vectorise it (`sqrt` of a negative `disc` is a NaN
        // nobody reads). A ray that misses the query circle is stored as
        // the empty interval `t1 = −∞`.
        let mut t0s = [0.0f64; INTEGRATION_RAYS];
        let mut t1s = [0.0f64; INTEGRATION_RAYS];
        for (((s, c), t0), t1) in ray_table().iter().zip(&mut t0s).zip(&mut t1s) {
            let b = c * dx + s * dy;
            let disc = b * b - k;
            let sq = disc.sqrt();
            *t0 = (b - sq).max(0.0);
            let exit = (b + sq).min(bound);
            *t1 = if disc <= 0.0 { f64::NEG_INFINITY } else { exit };
        }
        // Second pass: mass between radii t0 and t1 along each wedge,
        // accumulated in ray order.
        let two_s2 = 2.0 * self.sigma * self.sigma;
        let m_bound = (-bound * bound / two_s2).exp();
        let mut acc = 0.0;
        for (&t0, &t1) in t0s.iter().zip(&t1s) {
            if t1 <= t0 {
                continue;
            }
            let m0 = if t0 == 0.0 {
                1.0
            } else {
                (-t0 * t0 / two_s2).exp()
            };
            let m1 = if t1 == bound {
                m_bound
            } else {
                (-t1 * t1 / two_s2).exp()
            };
            acc += m0 - m1;
        }
        // `z()` is `1 − exp(−bound²/2σ²)` by the same expression as `m_bound`.
        (acc / INTEGRATION_RAYS as f64 / (1.0 - m_bound)).clamp(0.0, 1.0)
    }

    /// The body [`prob_in_circle`](ConstrainedGaussian::prob_in_circle)
    /// had before it was optimised: the specification of its contract.
    #[cfg(test)]
    fn prob_in_circle_reference(&self, qx: f64, qy: f64, qr: f64) -> f64 {
        let dx = qx - self.cx;
        let dy = qy - self.cy;
        let d2 = dx * dx + dy * dy;
        let d = d2.sqrt();
        if d >= qr + self.bound {
            return 0.0;
        }
        if qr >= d + self.bound {
            return 1.0;
        }
        let mut acc = 0.0;
        let dtheta = std::f64::consts::TAU / INTEGRATION_RAYS as f64;
        for i in 0..INTEGRATION_RAYS {
            let theta = (i as f64 + 0.5) * dtheta;
            let (s, c) = theta.sin_cos();
            let b = c * dx + s * dy;
            let disc = b * b - (d2 - qr * qr);
            if disc <= 0.0 {
                continue;
            }
            let sq = disc.sqrt();
            let t0 = (b - sq).max(0.0);
            let t1 = (b + sq).min(self.bound);
            if t1 <= t0 {
                continue;
            }
            let m0 = (-t0 * t0 / (2.0 * self.sigma * self.sigma)).exp();
            let m1 = (-t1 * t1 / (2.0 * self.sigma * self.sigma)).exp();
            acc += m0 - m1;
        }
        (acc / INTEGRATION_RAYS as f64 / self.z()).clamp(0.0, 1.0)
    }

    /// Axis-aligned bounding box of the boundary circle:
    /// `(min_x, min_y, max_x, max_y)`.
    pub fn mbr(&self) -> (f64, f64, f64, f64) {
        (
            self.cx - self.bound,
            self.cy - self.bound,
            self.cx + self.bound,
            self.cy + self.bound,
        )
    }

    /// Quick upper bound on [`prob_in_circle`](ConstrainedGaussian::prob_in_circle): if the query circle stays
    /// outside the quantile circle of mass `1 − qt`, the contained
    /// probability is `< qt`. Used for index pruning.
    pub fn can_reach(&self, qx: f64, qy: f64, qr: f64, qt: f64) -> bool {
        let d = ((qx - self.cx).powi(2) + (qy - self.cy).powi(2)).sqrt();
        if d >= qr + self.bound {
            return false;
        }
        if qt <= 0.0 {
            return true;
        }
        // The query circle covers at most the annulus beyond radius
        // (d - qr); mass there is 1 - mass_within(d - qr).
        let inner = (d - qr).max(0.0);
        1.0 - self.mass_within(inner) >= qt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn g() -> ConstrainedGaussian {
        ConstrainedGaussian::new(0.0, 0.0, 10.0, 50.0)
    }

    #[test]
    fn mass_within_is_monotone_and_normalized() {
        let g = g();
        assert_eq!(g.mass_within(0.0), 0.0);
        assert_eq!(g.mass_within(50.0), 1.0);
        assert_eq!(g.mass_within(100.0), 1.0);
        let mut prev = 0.0;
        for r in 1..=50 {
            let m = g.mass_within(r as f64);
            assert!(m >= prev);
            prev = m;
        }
    }

    #[test]
    fn quantile_radius_inverts_mass_within() {
        let g = g();
        for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let r = g.quantile_radius(p);
            assert!((g.mass_within(r) - p).abs() < 1e-9, "p={p}");
        }
        assert_eq!(g.quantile_radius(0.0), 0.0);
        assert_eq!(g.quantile_radius(1.0), 50.0);
    }

    #[test]
    fn circle_at_center_matches_closed_form() {
        let g = g();
        for r in [5.0, 10.0, 20.0, 49.0] {
            let p = g.prob_in_circle(0.0, 0.0, r);
            assert!(
                (p - g.mass_within(r)).abs() < 1e-6,
                "r={r}: {} vs {}",
                p,
                g.mass_within(r)
            );
        }
    }

    #[test]
    fn disjoint_and_containing_circles() {
        let g = g();
        assert_eq!(g.prob_in_circle(200.0, 0.0, 10.0), 0.0);
        assert_eq!(g.prob_in_circle(0.0, 0.0, 60.0), 1.0);
        assert_eq!(g.prob_in_circle(5.0, 5.0, 100.0), 1.0);
    }

    #[test]
    fn offset_circle_probability_is_sane() {
        let g = g();
        // A query circle centered 20 away with radius 10 should catch some
        // but far from all of the mass.
        let p = g.prob_in_circle(20.0, 0.0, 10.0);
        assert!(p > 0.0 && p < 0.5, "p={p}");
        // Symmetric positions agree.
        let p2 = g.prob_in_circle(0.0, 20.0, 10.0);
        assert!((p - p2).abs() < 1e-3);
    }

    #[test]
    fn monte_carlo_cross_check() {
        // Compare the ray integration against rejection sampling.
        let g = ConstrainedGaussian::new(3.0, -2.0, 8.0, 30.0);
        let (qx, qy, qr) = (8.0, 2.0, 12.0);
        let analytic = g.prob_in_circle(qx, qy, qr);
        // Deterministic LCG sampler.
        let mut state = 42u64;
        let mut unif = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut hits = 0u64;
        let mut total = 0u64;
        while total < 200_000 {
            // Sample from the truncated Gaussian by rejection on the bound.
            let u1 = unif().max(1e-12);
            let u2 = unif();
            let r = g.sigma * (-2.0 * u1.ln()).sqrt();
            if r > g.bound {
                continue;
            }
            let theta = std::f64::consts::TAU * u2;
            let (x, y) = (g.cx + r * theta.cos(), g.cy + r * theta.sin());
            total += 1;
            if (x - qx).powi(2) + (y - qy).powi(2) <= qr * qr {
                hits += 1;
            }
        }
        let mc = hits as f64 / total as f64;
        assert!(
            (analytic - mc).abs() < 0.01,
            "analytic {analytic} vs monte-carlo {mc}"
        );
    }

    #[test]
    fn can_reach_is_a_sound_prune() {
        let g = g();
        for (qx, qr) in [(0.0, 5.0), (15.0, 5.0), (30.0, 10.0), (45.0, 10.0)] {
            for qt in [0.05, 0.3, 0.7] {
                let p = g.prob_in_circle(qx, 0.0, qr);
                if p >= qt {
                    assert!(
                        g.can_reach(qx, 0.0, qr, qt),
                        "prune must not kill qualifying entries (qx={qx} qr={qr} qt={qt} p={p})"
                    );
                }
            }
        }
    }

    /// `x` moved by `k` representable values (positive finite `x`).
    fn nudge(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    #[test]
    fn prob_in_circle_is_bit_identical_to_the_reference() {
        const PER_CLASS: usize = 50_000;
        let mut state = 0x5EED_CAFE_F00Du64;
        let mut unif = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let dtheta = std::f64::consts::TAU / INTEGRATION_RAYS as f64;
        // (cases, strictly partial, partial with the centre inside the
        // query circle, partial with it outside)
        let mut seen = [0usize; 4];
        let mut check = |g: ConstrainedGaussian, qx: f64, qy: f64, qr: f64| {
            let got = g.prob_in_circle(qx, qy, qr);
            let want = g.prob_in_circle_reference(qx, qy, qr);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{g:?} q=({qx:e}, {qy:e}, {qr:e}): {got:e} vs reference {want:e}"
            );
            seen[0] += 1;
            if got > 0.0 && got < 1.0 {
                seen[1] += 1;
                let inside = (qx - g.cx).hypot(qy - g.cy) < qr;
                seen[if inside { 2 } else { 3 }] += 1;
            }
        };
        for _ in 0..PER_CLASS {
            let (cx, cy) = (unif() * 2e4 - 1e4, unif() * 2e4 - 1e4);
            let bound = 1.0 + unif() * 99.0;
            // sigma from bound/100 (exp underflows) to 100·bound (masses
            // cancel near 1), log-uniform.
            let sigma = bound * 10f64.powf(unif() * 4.0 - 2.0);
            let g = ConstrainedGaussian::new(cx, cy, sigma, bound);
            let phi = unif() * std::f64::consts::TAU;
            let ulps = (unif() * 9.0) as i64 - 4;

            // 1. Generic overlap: centre inside or outside the query circle.
            let d = unif() * 3.0 * bound;
            let qr = (d - bound).max(0.0) + unif() * 2.0 * bound + 1e-3;
            check(g, cx + d * phi.cos(), cy + d * phi.sin(), qr);

            // 2. On the edge of the early exits: d − qr (disjoint) or
            //    qr − d (containing) within a few ulps of `bound`.
            let qr = 0.5 + unif() * 2.0 * bound;
            let d = if unif() < 0.5 {
                nudge(qr + bound, ulps)
            } else {
                nudge((qr - bound).abs().max(1e-6), ulps)
            };
            check(g, cx + d * phi.cos(), cy + d * phi.sin(), qr);

            // 3. Ray `i` tangent to the query circle (disc ≈ 0): the
            //    centre-to-query direction makes angle `alpha` with it and
            //    qr = d·sin(alpha), give or take a few ulps.
            let i = (unif() * INTEGRATION_RAYS as f64) as usize;
            let theta = (i as f64 + 0.5) * dtheta;
            let alpha = 0.05 + unif() * 1.4;
            let d = (0.2 + unif() * 1.5) * bound;
            let qr = nudge(d * alpha.sin(), ulps);
            check(
                g,
                cx + d * (theta + alpha).cos(),
                cy + d * (theta + alpha).sin(),
                qr,
            );

            // 4. The Cartel shape the benchmark runs: sigma = bound/3, a
            //    query circle much larger than the uncertainty region whose
            //    edge crosses it.
            let g = ConstrainedGaussian::new(cx, cy, bound / 3.0, bound);
            let qr = 100.0 + unif() * 900.0;
            let d = qr + (unif() * 2.0 - 1.0) * bound;
            check(g, cx + d * phi.cos(), cy + d * phi.sin(), qr);
        }
        let [cases, partial, inside, outside] = seen;
        assert_eq!(cases, 4 * PER_CLASS);
        // The early exits alone must not be able to pass this test.
        assert!(partial >= cases / 2, "only {partial} partial results");
        assert!(inside >= 20_000, "only {inside} partial with centre inside");
        assert!(outside >= 50_000, "only {outside} partial, centre outside");
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn rejects_bad_sigma() {
        ConstrainedGaussian::new(0.0, 0.0, 0.0, 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_probability_bounds(
            cx in -100.0f64..100.0, cy in -100.0f64..100.0,
            sigma in 1.0f64..30.0, bound in 5.0f64..100.0,
            qx in -150.0f64..150.0, qy in -150.0f64..150.0,
            qr in 0.5f64..150.0,
        ) {
            let g = ConstrainedGaussian::new(cx, cy, sigma, bound);
            let p = g.prob_in_circle(qx, qy, qr);
            prop_assert!((0.0..=1.0).contains(&p));
            // Monotone in query radius.
            let p_bigger = g.prob_in_circle(qx, qy, qr * 1.5);
            prop_assert!(p_bigger + 1e-6 >= p);
            // Pruning is sound.
            for qt in [0.1, 0.5] {
                if p >= qt {
                    prop_assert!(g.can_reach(qx, qy, qr, qt));
                }
            }
        }

        #[test]
        fn prop_quantile_monotone(p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
            let g = ConstrainedGaussian::new(0.0, 0.0, 10.0, 50.0);
            let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(g.quantile_radius(lo) <= g.quantile_radius(hi) + 1e-12);
        }
    }
}
