//! Discrete probability mass functions over `u64` value ids.

/// A discrete PMF over alternative values of an uncertain attribute.
///
/// Alternatives are kept **sorted by descending probability**, matching the
/// paper's convention that "Alternatives.first" is the most probable value
/// (Algorithm 1). Probabilities are conditional on tuple existence and must
/// sum to at most 1 (+ float slack); a sum below 1 models leftover mass on
/// unknown values, which the paper's derivation from web search rankings
/// also produces.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscretePmf {
    /// Also built by `TupleView::to_tuple`, from checked alternatives
    /// already in this order.
    pub(crate) alts: Vec<(u64, f64)>,
}

impl DiscretePmf {
    /// Build from `(value, probability)` pairs.
    ///
    /// # Panics
    /// If any probability is outside `(0, 1]`, the sum exceeds `1 + 1e-9`,
    /// a value id repeats, or no alternatives are given.
    pub fn new(alts: Vec<(u64, f64)>) -> DiscretePmf {
        DiscretePmf::try_new(alts).unwrap_or_else(|why| panic!("{why}"))
    }

    /// [`new`](Self::new) for pairs that come from outside the program
    /// (stored bytes): the violated condition instead of a panic.
    pub fn try_new(mut alts: Vec<(u64, f64)>) -> Result<DiscretePmf, String> {
        check_alternatives(alts.iter().copied())?;
        // No NaN reaches the comparison: the range check rejected it.
        alts.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        Ok(DiscretePmf { alts })
    }

    /// Single certain value (probability 1).
    pub fn certain(value: u64) -> DiscretePmf {
        DiscretePmf::new(vec![(value, 1.0)])
    }

    /// Alternatives in descending probability order.
    pub fn alternatives(&self) -> &[(u64, f64)] {
        &self.alts
    }

    /// The most probable alternative (`Alternatives.first` in Algorithm 1).
    pub fn first(&self) -> (u64, f64) {
        self.alts[0]
    }

    /// Probability of a particular value (0 if absent).
    pub fn prob_of(&self, value: u64) -> f64 {
        self.alts
            .iter()
            .find(|&&(v, _)| v == value)
            .map(|&(_, p)| p)
            .unwrap_or(0.0)
    }

    /// Number of alternatives.
    pub fn support_len(&self) -> usize {
        self.alts.len()
    }

    /// Sum of alternative probabilities (≤ 1).
    pub fn mass(&self) -> f64 {
        self.alts.iter().map(|a| a.1).sum()
    }

    /// Alternatives with probability `>= c` (the ones a UPI with cutoff `c`
    /// keeps in the heap file, plus the first which always stays).
    pub fn heap_alternatives(&self, cutoff: f64) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.alts
            .iter()
            .enumerate()
            .filter(move |(i, &(_, p))| *i == 0 || p >= cutoff)
            .map(|(_, &a)| a)
    }

    /// Alternatives with probability `< c`, excluding the first (the ones a
    /// UPI with cutoff `c` moves to the cutoff index).
    pub fn cutoff_alternatives(&self, cutoff: f64) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.alts
            .iter()
            .enumerate()
            .filter(move |(i, &(_, p))| *i != 0 && p < cutoff)
            .map(|(_, &a)| a)
    }
}

/// The conditions of [`DiscretePmf::new`], the first one violated named:
/// at least one alternative, every probability in `(0, 1]`, a sum of at
/// most `1 + 1e-9`, distinct value ids. `Ok` says whether the alternatives
/// are already in the order a PMF keeps them: probability descending, ties
/// by ascending value id.
pub(crate) fn check_alternatives(
    alts: impl ExactSizeIterator<Item = (u64, f64)> + Clone,
) -> Result<bool, String> {
    let n = alts.len();
    if n == 0 {
        return Err("a PMF needs at least one alternative".into());
    }
    let (mut sum, mut canonical, mut prev) = (0.0, true, None);
    for (v, p) in alts.clone() {
        // Written so that a NaN fails the test.
        if !(p > 0.0 && p <= 1.0) {
            return Err(format!("probability {p} out of (0,1]"));
        }
        canonical &= prev.is_none_or(|(pv, pp)| pp > p || (pp == p && pv < v));
        (sum, prev) = (sum + p, Some((v, p)));
    }
    if sum > 1.0 + 1e-9 {
        return Err(format!("probabilities sum to {sum} > 1"));
    }
    // Distinct ids: pairwise over the few alternatives a real PMF has, so
    // that checking one allocates nothing; a sorted copy names the
    // smallest repeated id.
    let ids = alts.map(|a| a.0);
    let seen_before = |(i, v): (usize, u64)| ids.clone().take(i).any(|w| w == v);
    if n > 16 || ids.clone().enumerate().any(seen_before) {
        let mut ids: Vec<u64> = ids.collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate value id {}", w[0]));
        }
    }
    Ok(canonical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorted_descending() {
        let p = DiscretePmf::new(vec![(7, 0.2), (3, 0.5), (9, 0.3)]);
        let probs: Vec<f64> = p.alternatives().iter().map(|a| a.1).collect();
        assert_eq!(probs, vec![0.5, 0.3, 0.2]);
        assert_eq!(p.first(), (3, 0.5));
    }

    #[test]
    fn prob_of_and_mass() {
        let p = DiscretePmf::new(vec![(1, 0.6), (2, 0.3)]);
        assert_eq!(p.prob_of(1), 0.6);
        assert_eq!(p.prob_of(2), 0.3);
        assert_eq!(p.prob_of(3), 0.0);
        assert!((p.mass() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn heap_and_cutoff_partition() {
        // Carol: Brown 60%, U.Tokyo 40% — with C=0.5 U.Tokyo is cut off.
        let p = DiscretePmf::new(vec![(1, 0.6), (2, 0.4)]);
        let heap: Vec<_> = p.heap_alternatives(0.5).collect();
        let cut: Vec<_> = p.cutoff_alternatives(0.5).collect();
        assert_eq!(heap, vec![(1, 0.6)]);
        assert_eq!(cut, vec![(2, 0.4)]);
    }

    #[test]
    fn first_alternative_always_stays_in_heap() {
        // Even when every probability is below the cutoff, Algorithm 1
        // leaves the first alternative in the heap file.
        let p = DiscretePmf::new(vec![(1, 0.05), (2, 0.04), (3, 0.03)]);
        let heap: Vec<_> = p.heap_alternatives(0.5).collect();
        assert_eq!(heap, vec![(1, 0.05)]);
        assert_eq!(p.cutoff_alternatives(0.5).count(), 2);
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn rejects_oversum() {
        DiscretePmf::new(vec![(1, 0.7), (2, 0.7)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicates() {
        DiscretePmf::new(vec![(1, 0.4), (1, 0.4)]);
    }

    #[test]
    fn try_new_names_the_violated_condition() {
        assert!(DiscretePmf::try_new(vec![(3, 0.5), (9, 0.5)]).is_ok());
        let why = DiscretePmf::try_new(vec![(3, 0.2), (9, 0.5), (3, 0.1)]).unwrap_err();
        assert_eq!(why, "duplicate value id 3");
        assert!(DiscretePmf::try_new(vec![(1, f64::NAN)]).is_err());
        assert!(DiscretePmf::try_new(Vec::new()).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty() {
        DiscretePmf::new(vec![]);
    }

    proptest! {
        #[test]
        fn prop_partition_is_exact(
            n in 1usize..8,
            seed in 0u64..1000,
            cutoff in 0.0f64..1.0
        ) {
            // Build a random PMF deterministically from the seed.
            let mut probs = Vec::new();
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut rem: f64 = 1.0;
            for i in 0..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let frac = ((x >> 33) as f64 / (1u64 << 31) as f64).clamp(0.01, 0.99);
                let p = (rem * frac * 0.9).max(1e-6);
                probs.push((i as u64, p));
                rem -= p;
                if rem <= 1e-6 { break; }
            }
            let pmf = DiscretePmf::new(probs);
            let heap: Vec<_> = pmf.heap_alternatives(cutoff).collect();
            let cut: Vec<_> = pmf.cutoff_alternatives(cutoff).collect();
            // Partition: together they are exactly the alternatives.
            prop_assert_eq!(heap.len() + cut.len(), pmf.support_len());
            // First always in heap.
            prop_assert_eq!(heap[0], pmf.first());
            // All cutoff entries are strictly below the threshold.
            for (_, p) in cut {
                prop_assert!(p < cutoff);
            }
            // All heap entries except the first are at/above the threshold.
            for &(_, p) in heap.iter().skip(1) {
                prop_assert!(p >= cutoff);
            }
        }
    }
}
