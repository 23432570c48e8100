//! The stream-sketch surface: the [`SketchKind`] selector and the
//! [`AnySketch`] runtime dispatcher.
//!
//! The engine's stream processor holds an [`AnySketch`], so the
//! paper-faithful [`GkSketch`] default and the [`KllSketch`] compactor
//! backend are interchangeable: both expose the same tracked
//! `[rmin, rmax]` rank intervals that the union-query bisection consumes,
//! so the ε·m union guarantee holds under either backend. Configuration
//! happens at runtime (see `HsqConfig::builder().sketch(..)` in
//! `hsq-core`), hence the enum dispatcher rather than a generic engine.

use std::fmt;

use crate::gk::{GkSketch, RankEstimate};
use crate::kll::KllSketch;
use crate::radix::RadixKey;

/// Which sketch backend the stream side runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SketchKind {
    /// Greenwald–Khanna — the paper-faithful default (§2.2): tightest
    /// per-tuple deterministic bounds and the smallest footprint: 1.9–2.0k
    /// words for a 65,536-item step (`hsq_benchmark`'s
    /// `sketch.gk.memory_words`).
    Gk,
    /// Deterministic KLL compactor ladder: O(1) amortized updates and
    /// order-indifferent batch appends, at far more memory than GK:
    /// 45,068 words for the same step (`sketch.kll.memory_words`).
    Kll,
}

impl SketchKind {
    /// Stable lowercase name, as test and bench reports print the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            SketchKind::Gk => "gk",
            SketchKind::Kll => "kll",
        }
    }
}

impl fmt::Display for SketchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Runtime-dispatched stream sketch: one enum value per backend, so the
/// engine can select the sketch from configuration without becoming
/// generic over it.
#[derive(Clone)]
pub enum AnySketch<T> {
    /// A Greenwald–Khanna backend.
    Gk(GkSketch<T>),
    /// A KLL compactor backend.
    Kll(KllSketch<T>),
}

impl<T: Copy + Ord + fmt::Debug> fmt::Debug for AnySketch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnySketch::Gk(s) => s.fmt(f),
            AnySketch::Kll(s) => s.fmt(f),
        }
    }
}

impl<T: Copy + Ord + RadixKey> AnySketch<T> {
    /// Create an empty sketch of the given kind and error parameter.
    pub fn new(kind: SketchKind, epsilon: f64) -> Self {
        match kind {
            SketchKind::Gk => AnySketch::Gk(GkSketch::new(epsilon)),
            SketchKind::Kll => AnySketch::Kll(KllSketch::new(epsilon)),
        }
    }

    /// Which backend this sketch is.
    pub fn kind(&self) -> SketchKind {
        match self {
            AnySketch::Gk(_) => SketchKind::Gk,
            AnySketch::Kll(_) => SketchKind::Kll,
        }
    }

    /// The GK backend, if that is what this is.
    pub fn as_gk(&self) -> Option<&GkSketch<T>> {
        match self {
            AnySketch::Gk(gk) => Some(gk),
            AnySketch::Kll(_) => None,
        }
    }

    /// The KLL backend, if that is what this is.
    pub fn as_kll(&self) -> Option<&KllSketch<T>> {
        match self {
            AnySketch::Kll(kll) => Some(kll),
            AnySketch::Gk(_) => None,
        }
    }

    /// The error parameter the sketch was built with.
    pub fn epsilon(&self) -> f64 {
        match self {
            AnySketch::Gk(s) => s.epsilon(),
            AnySketch::Kll(s) => s.epsilon(),
        }
    }

    /// Total weight inserted (the element count when unweighted).
    pub fn len(&self) -> u64 {
        match self {
            AnySketch::Gk(s) => s.len(),
            AnySketch::Kll(s) => s.len(),
        }
    }

    /// True iff nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Smallest element seen (tracked exactly).
    pub fn min(&self) -> Option<T> {
        match self {
            AnySketch::Gk(s) => s.min(),
            AnySketch::Kll(s) => s.min(),
        }
    }

    /// Largest element seen (tracked exactly).
    pub fn max(&self) -> Option<T> {
        match self {
            AnySketch::Gk(s) => s.max(),
            AnySketch::Kll(s) => s.max(),
        }
    }

    /// Insert one element.
    pub fn insert(&mut self, v: T) {
        match self {
            AnySketch::Gk(s) => s.insert(v),
            AnySketch::Kll(s) => s.insert(v),
        }
    }

    /// Insert a whole batch, unsorted: GK radix-sorts `batch` in place and
    /// merges it in one pass; KLL appends it to its unsorted level 0.
    pub fn insert_batch(&mut self, batch: &mut [T]) {
        match self {
            AnySketch::Gk(s) => s.insert_batch(batch),
            AnySketch::Kll(s) => s.insert_batch(batch),
        }
    }

    /// Insert a batch the caller has already sorted (nondecreasing).
    pub fn insert_sorted_batch(&mut self, batch: &[T]) {
        match self {
            AnySketch::Gk(s) => s.insert_sorted_batch(batch),
            AnySketch::Kll(s) => s.insert_sorted_batch(batch),
        }
    }

    /// Insert one element carrying integer weight `w`: the same multiset
    /// as `w` [`AnySketch::insert`] calls, so every tracked interval and
    /// guarantee reads `ε·W` for total weight `W = Σw`. `w = 0` is a
    /// no-op. KLL places the binary decomposition of `w` onto its
    /// weight-`2^h` levels at O(log w); GK merges it as one run at
    /// O(tuples).
    pub fn insert_weighted(&mut self, v: T, w: u64) {
        match self {
            AnySketch::Gk(s) => s.insert_weighted(v, w),
            AnySketch::Kll(s) => s.insert_weighted(v, w),
        }
    }

    /// Insert a batch of `(value, weight)` pairs, unsorted (GK sorts
    /// `batch` by value; KLL is order-indifferent). Zero weights are
    /// skipped.
    pub fn insert_weighted_batch(&mut self, batch: &mut [(T, u64)]) {
        match self {
            AnySketch::Gk(s) => s.insert_weighted_batch(batch),
            AnySketch::Kll(s) => s.insert_weighted_batch(batch),
        }
    }

    /// [`AnySketch::insert_weighted_batch`] for pairs the caller has
    /// already sorted by value (nondecreasing).
    pub fn insert_weighted_sorted_batch(&mut self, batch: &[(T, u64)]) {
        match self {
            AnySketch::Gk(s) => s.insert_weighted_sorted_batch(batch),
            AnySketch::Kll(s) => s.insert_weighted_batch(batch),
        }
    }

    /// Answer a query for 1-based rank `r` (clamped into `[1, n]`): a
    /// value with a copy whose true rank is within `εn` of `r`, and the
    /// tracked interval of that copy's rank. `None` iff the sketch is
    /// empty.
    pub fn rank_query(&self, r: u64) -> Option<RankEstimate<T>> {
        match self {
            AnySketch::Gk(s) => s.rank_query(r),
            AnySketch::Kll(s) => s.rank_query(r),
        }
    }

    /// [`AnySketch::rank_query`] for every target of `ascending`
    /// (nondecreasing; panics otherwise) in one forward pass of the
    /// sketch, each answer equal to the single-target one. Empty iff the
    /// sketch is empty.
    pub fn rank_queries(&self, ascending: &[u64]) -> Vec<RankEstimate<T>> {
        match self {
            AnySketch::Gk(s) => s.rank_queries(ascending),
            AnySketch::Kll(s) => s.rank_queries(ascending),
        }
    }

    /// Approximate words of memory used, the unit the paper's memory
    /// budgets are expressed in.
    pub fn memory_words(&self) -> usize {
        match self {
            AnySketch::Gk(s) => s.memory_words(),
            AnySketch::Kll(s) => s.memory_words(),
        }
    }

    /// Clear the sketch back to empty.
    pub fn reset(&mut self) {
        match self {
            AnySketch::Gk(s) => s.reset(),
            AnySketch::Kll(s) => s.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactQuantiles;

    /// Exercise a backend through `AnySketch` only, as the engine does.
    fn drive(mut sk: AnySketch<u64>) -> AnySketch<u64> {
        let mut state = 0xDEADBEEFu64;
        let mut batch: Vec<u64> = Vec::new();
        for i in 0..30_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (state >> 16) % 100_000;
            if i % 3 == 0 {
                sk.insert(v);
            } else {
                batch.push(v);
                if batch.len() == 512 {
                    sk.insert_batch(&mut batch);
                    batch.clear();
                }
            }
        }
        sk.insert_batch(&mut batch);
        sk
    }

    fn check_backend(sk: AnySketch<u64>, eps: f64) {
        let mut mirror = ExactQuantiles::new();
        let mut state = 0xDEADBEEFu64;
        for _ in 0..30_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            mirror.insert((state >> 16) % 100_000);
        }
        assert_eq!(sk.len(), 30_000);
        let n = sk.len();
        for i in 1..=40u64 {
            let r = i * n / 40;
            let est = sk.rank_query(r).unwrap();
            let truth = mirror.rank_of(est.value);
            // KLL's interval brackets the rank of the answer's copy
            // nearest `r`; GK's brackets its last copy's on this data.
            let bracketed = match sk.kind() {
                SketchKind::Gk => truth,
                SketchKind::Kll => {
                    let below = if est.value == 0 {
                        0
                    } else {
                        mirror.rank_of(est.value - 1)
                    };
                    r.clamp(below + 1, truth)
                }
            };
            assert!(
                est.rmin <= bracketed && bracketed <= est.rmax,
                "{}: tracked interval unsound at target {r}",
                sk.kind()
            );
            assert!(
                truth.abs_diff(r) as f64 <= eps * n as f64 + 1.0,
                "answer off by {} at target {r}",
                truth.abs_diff(r)
            );
        }
    }

    #[test]
    fn all_backends_meet_the_bound_through_any_sketch() {
        let eps = 0.01;
        check_backend(drive(AnySketch::<u64>::new(SketchKind::Gk, eps)), eps);
        check_backend(drive(AnySketch::<u64>::new(SketchKind::Kll, eps)), eps);
    }

    #[test]
    fn kind_parsing_and_display() {
        assert_eq!(SketchKind::Kll.to_string(), "kll");
        assert_eq!(SketchKind::Gk.as_str(), "gk");
    }

    /// The weighted surface: every backend must agree with w-fold
    /// replication within ε·W, for scalar, unsorted-batch, and
    /// sorted-batch entry points.
    #[test]
    fn weighted_paths_match_replication_within_bound() {
        let eps = 0.02;
        let mut state = 0xFEEDu64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let pairs: Vec<(u64, u64)> = (0..2_000).map(|_| (lcg() % 20_000, lcg() % 25)).collect();
        let total: u64 = pairs.iter().map(|p| p.1).sum();
        let mut mirror = ExactQuantiles::new();
        for &(v, w) in &pairs {
            for _ in 0..w {
                mirror.insert(v);
            }
        }
        fn drive_weighted(mut sk: AnySketch<u64>, pairs: &[(u64, u64)]) -> AnySketch<u64> {
            let (scalar, rest) = pairs.split_at(pairs.len() / 3);
            let (unsorted, sorted) = rest.split_at(rest.len() / 2);
            for &(v, w) in scalar {
                sk.insert_weighted(v, w);
            }
            let mut unsorted = unsorted.to_vec();
            sk.insert_weighted_batch(&mut unsorted);
            let mut sorted = sorted.to_vec();
            sorted.sort_unstable_by_key(|p| p.0);
            sk.insert_weighted_sorted_batch(&sorted);
            sk
        }
        for sk in [
            drive_weighted(AnySketch::<u64>::new(SketchKind::Gk, eps), &pairs),
            drive_weighted(AnySketch::<u64>::new(SketchKind::Kll, eps), &pairs),
        ] {
            assert_eq!(sk.len(), total);
            for i in 1..=30u64 {
                let r = i * total / 30;
                let est = sk.rank_query(r).unwrap();
                // Heavy weights mean heavily duplicated values: the
                // occurrences of est.value span ranks
                // [count(<v) + 1, count(≤v)], and the tracked interval
                // brackets the rank of *some* occurrence.
                let truth_hi = mirror.rank_of(est.value);
                let truth_lo = if est.value == 0 {
                    1
                } else {
                    mirror.rank_of(est.value - 1) + 1
                };
                assert!(
                    est.rmin <= truth_hi && truth_lo <= est.rmax,
                    "{}: weighted interval [{}, {}] misses occurrence ranks [{truth_lo}, {truth_hi}] at target {r}",
                    sk.kind(),
                    est.rmin,
                    est.rmax
                );
                // KLL's interval brackets the rank of the copy nearest
                // `r`; a GK tuple stands for one copy of its own.
                let nearest = r.clamp(truth_lo, truth_hi);
                assert!(
                    sk.kind() == SketchKind::Gk || (est.rmin <= nearest && nearest <= est.rmax),
                    "{}: weighted interval [{}, {}] misses rank {nearest} of the copy nearest {r}",
                    sk.kind(),
                    est.rmin,
                    est.rmax
                );
                let dist = if r < truth_lo {
                    truth_lo - r
                } else {
                    r.saturating_sub(truth_hi)
                };
                assert!(
                    dist as f64 <= eps * total as f64 + 1.0,
                    "{}: weighted answer off by {dist} at target {r} (eps*W = {})",
                    sk.kind(),
                    eps * total as f64
                );
            }
        }
    }

    #[test]
    fn any_sketch_reports_its_kind() {
        let gk = AnySketch::<u64>::new(SketchKind::Gk, 0.1);
        let kll = AnySketch::<u64>::new(SketchKind::Kll, 0.1);
        assert_eq!(gk.kind(), SketchKind::Gk);
        assert_eq!(kll.kind(), SketchKind::Kll);
        assert!(gk.as_gk().is_some() && gk.as_kll().is_none());
        assert!(kll.as_kll().is_some() && kll.as_gk().is_none());
    }
}
