//! The [`QuantileSketch`] trait — the pluggable stream-sketch abstraction
//! — plus the [`SketchKind`] selector and the [`AnySketch`] runtime
//! dispatcher.
//!
//! The engine's stream processor is written against this trait so the
//! paper-faithful [`GkSketch`] default and the mergeable [`KllSketch`]
//! compactor backend are interchangeable: both expose the same tracked
//! `[rmin, rmax]` rank intervals that the union-query bisection consumes,
//! so the ε·m union guarantee holds under either backend. Configuration
//! happens at runtime (see `HsqConfig::builder().sketch(..)` in
//! `hsq-core`), hence the enum dispatcher rather than a generic engine.

use std::fmt;
use std::str::FromStr;

use crate::gk::{GkSketch, RankEstimate};
use crate::kll::KllSketch;
use crate::radix::RadixKey;

/// Common interface of ε-approximate quantile sketches: bounded-error
/// rank queries over an inserted multiset, with tracked `[rmin, rmax]`
/// intervals sound for every answer.
pub trait QuantileSketch<T: Copy + Ord>: Clone {
    /// The error parameter the sketch was built with: rank queries are
    /// answered within `εn` (up to backend-documented caveats, all of
    /// which keep the *tracked* intervals sound).
    fn epsilon(&self) -> f64;

    /// Number of elements inserted.
    fn len(&self) -> u64;

    /// True iff nothing has been inserted.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Smallest element seen (tracked exactly).
    fn min(&self) -> Option<T>;

    /// Largest element seen (tracked exactly).
    fn max(&self) -> Option<T>;

    /// Insert one element.
    fn insert(&mut self, v: T);

    /// Insert a batch the caller has already sorted (nondecreasing).
    fn insert_sorted_batch(&mut self, batch: &[T]);

    /// Insert a whole batch, unsorted. The default routes through the
    /// radix sort kernel plus [`QuantileSketch::insert_sorted_batch`];
    /// backends indifferent to order (KLL) override to skip the sort.
    fn insert_batch(&mut self, batch: &mut [T])
    where
        T: RadixKey,
    {
        crate::radix::sort_radixable(batch);
        self.insert_sorted_batch(batch);
    }

    /// Insert one element carrying integer weight `w` — semantically
    /// identical to `w` repeated [`QuantileSketch::insert`] calls, with
    /// every tracked interval sound against the replicated multiset
    /// (total mass `W = Σw`, so all guarantees read `ε·W`). `w = 0` is a
    /// no-op. The default really does replicate; both backends override
    /// with sub-linear implementations (KLL places the binary
    /// decomposition of `w` onto its weight-`2^h` levels at O(log w);
    /// GK folds an exact chunked summary in at O(tuples)).
    fn insert_weighted(&mut self, v: T, w: u64) {
        for _ in 0..w {
            self.insert(v);
        }
    }

    /// Insert a batch of `(value, weight)` pairs, unsorted. The default
    /// sorts by value (comparison sort — the weight payload disqualifies
    /// the pair from the order-preserving `u64` radix key, so the LSD
    /// kernel cannot apply at this level; KLL's override recovers the
    /// radix path by sorting per-level value slices instead) and folds
    /// through [`QuantileSketch::insert_weighted_sorted_batch`].
    fn insert_weighted_batch(&mut self, batch: &mut [(T, u64)]) {
        batch.sort_unstable_by_key(|a| a.0);
        self.insert_weighted_sorted_batch(batch);
    }

    /// Weighted batch insert for pairs the caller has already sorted by
    /// value (nondecreasing). Zero weights are skipped.
    fn insert_weighted_sorted_batch(&mut self, batch: &[(T, u64)]) {
        for &(v, w) in batch {
            self.insert_weighted(v, w);
        }
    }

    /// Answer a query for 1-based rank `r` (clamped into `[1, n]`):
    /// a value whose true rank is within `εn` of `r`, with its tracked
    /// rank interval. `None` iff the sketch is empty.
    fn rank_query(&self, r: u64) -> Option<RankEstimate<T>>;

    /// [`QuantileSketch::rank_query`] for every target of `ascending`
    /// (nondecreasing; panics otherwise) in one forward pass of the
    /// sketch, each answer equal to the single-target one. Empty iff
    /// the sketch is empty.
    fn rank_queries(&self, ascending: &[u64]) -> Vec<RankEstimate<T>>;

    /// Rigorous bounds `[lo, hi]` on the rank of an arbitrary value `v`
    /// (the count of stream elements ≤ `v`), which need not have been
    /// inserted.
    fn rank_bounds_of(&self, v: T) -> (u64, u64);

    /// The φ-quantile (`phi ∈ (0, 1]`): the sketch's answer for rank
    /// `⌈φn⌉`. `None` iff empty.
    fn quantile(&self, phi: f64) -> Option<T> {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        let r = (phi * self.len() as f64).ceil() as u64;
        self.rank_query(r).map(|e| e.value)
    }

    /// Approximate words of memory used, the unit the paper's memory
    /// budgets are expressed in.
    fn memory_words(&self) -> usize;

    /// Clear the sketch back to empty.
    fn reset(&mut self);

    /// Whether [`QuantileSketch::merge_from`] is exact — i.e. the merged
    /// sketch's error is the tracked sum with no further degradation
    /// (KLL), as opposed to a sound but bound-widening combination (GK).
    fn exactly_mergeable(&self) -> bool;

    /// Fold `other` into `self`, preserving soundness of every tracked
    /// interval over the union of both inserted multisets.
    fn merge_from(&mut self, other: &Self);
}

impl<T: Copy + Ord + RadixKey> QuantileSketch<T> for GkSketch<T> {
    fn epsilon(&self) -> f64 {
        GkSketch::epsilon(self)
    }

    fn len(&self) -> u64 {
        GkSketch::len(self)
    }

    fn min(&self) -> Option<T> {
        GkSketch::min(self)
    }

    fn max(&self) -> Option<T> {
        GkSketch::max(self)
    }

    fn insert(&mut self, v: T) {
        GkSketch::insert(self, v);
    }

    fn insert_sorted_batch(&mut self, batch: &[T]) {
        GkSketch::insert_sorted_batch(self, batch);
    }

    fn insert_batch(&mut self, batch: &mut [T]) {
        GkSketch::insert_batch(self, batch);
    }

    fn insert_weighted(&mut self, v: T, w: u64) {
        GkSketch::insert_weighted(self, v, w);
    }

    fn insert_weighted_batch(&mut self, batch: &mut [(T, u64)]) {
        GkSketch::insert_weighted_batch(self, batch);
    }

    fn insert_weighted_sorted_batch(&mut self, batch: &[(T, u64)]) {
        GkSketch::insert_weighted_sorted_batch(self, batch);
    }

    fn rank_query(&self, r: u64) -> Option<RankEstimate<T>> {
        GkSketch::rank_query(self, r)
    }

    fn rank_queries(&self, ascending: &[u64]) -> Vec<RankEstimate<T>> {
        GkSketch::rank_queries(self, ascending)
    }

    fn rank_bounds_of(&self, v: T) -> (u64, u64) {
        GkSketch::rank_bounds_of(self, v)
    }

    fn memory_words(&self) -> usize {
        GkSketch::memory_words(self)
    }

    fn reset(&mut self) {
        GkSketch::reset(self);
    }

    fn exactly_mergeable(&self) -> bool {
        false
    }

    fn merge_from(&mut self, other: &Self) {
        GkSketch::merge_from(self, other);
    }
}

impl<T: Copy + Ord + RadixKey> QuantileSketch<T> for KllSketch<T> {
    fn epsilon(&self) -> f64 {
        KllSketch::epsilon(self)
    }

    fn len(&self) -> u64 {
        KllSketch::len(self)
    }

    fn min(&self) -> Option<T> {
        KllSketch::min(self)
    }

    fn max(&self) -> Option<T> {
        KllSketch::max(self)
    }

    fn insert(&mut self, v: T) {
        KllSketch::insert(self, v);
    }

    fn insert_sorted_batch(&mut self, batch: &[T]) {
        KllSketch::insert_sorted_batch(self, batch);
    }

    fn insert_batch(&mut self, batch: &mut [T]) {
        // Order-indifferent: level 0 is an unsorted buffer; the radix
        // sort happens lazily inside the compaction.
        KllSketch::insert_batch(self, batch);
    }

    fn insert_weighted(&mut self, v: T, w: u64) {
        KllSketch::insert_weighted(self, v, w);
    }

    fn insert_weighted_batch(&mut self, batch: &mut [(T, u64)]) {
        // Order-indifferent, like the unweighted batch path: per-level
        // contributions are radix-sorted inside.
        KllSketch::insert_weighted_batch(self, batch);
    }

    fn insert_weighted_sorted_batch(&mut self, batch: &[(T, u64)]) {
        KllSketch::insert_weighted_batch(self, batch);
    }

    fn rank_query(&self, r: u64) -> Option<RankEstimate<T>> {
        KllSketch::rank_query(self, r)
    }

    fn rank_queries(&self, ascending: &[u64]) -> Vec<RankEstimate<T>> {
        KllSketch::rank_queries(self, ascending)
    }

    fn rank_bounds_of(&self, v: T) -> (u64, u64) {
        KllSketch::rank_bounds_of(self, v)
    }

    fn memory_words(&self) -> usize {
        KllSketch::memory_words(self)
    }

    fn reset(&mut self) {
        KllSketch::reset(self);
    }

    fn exactly_mergeable(&self) -> bool {
        true
    }

    fn merge_from(&mut self, other: &Self) {
        KllSketch::merge_from(self, other);
    }
}

/// Which [`QuantileSketch`] backend the stream side runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SketchKind {
    /// Greenwald–Khanna — the paper-faithful default (§2.2): tightest
    /// per-tuple deterministic bounds and the smallest footprint at
    /// moderate ε, but merging is a sound widening, not exact.
    Gk,
    /// Deterministic KLL compactor ladder: O(1) amortized updates,
    /// order-indifferent batch appends, and exact associative merges
    /// with tracked error — the choice for cross-shard aggregation.
    Kll,
}

impl SketchKind {
    /// Stable lowercase name, matching what [`SketchKind::from_str`]
    /// parses and the `HSQ_SKETCH` environment variable accepts.
    pub fn as_str(self) -> &'static str {
        match self {
            SketchKind::Gk => "gk",
            SketchKind::Kll => "kll",
        }
    }

    /// Parse an `HSQ_SKETCH` value, panicking (with the variable name in
    /// the message) on anything [`SketchKind::from_str`] rejects.
    fn parse_env(value: &str) -> SketchKind {
        value
            .parse()
            .unwrap_or_else(|e| panic!("invalid HSQ_SKETCH: {e}"))
    }

    /// Read the `HSQ_SKETCH` environment variable (`"gk"` / `"kll"`,
    /// case-insensitive). `None` when unset; **panics** when set to an
    /// unparsable value — a typo like `HSQ_SKETCH=klll` must fail the
    /// run loudly rather than silently selecting the GK default
    /// fleet-wide.
    pub fn from_env() -> Option<SketchKind> {
        std::env::var("HSQ_SKETCH")
            .ok()
            .map(|s| Self::parse_env(&s))
    }

    /// [`SketchKind::from_env`] with a fallback default.
    pub fn from_env_or(default: SketchKind) -> SketchKind {
        SketchKind::from_env().unwrap_or(default)
    }
}

impl fmt::Display for SketchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for SketchKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "gk" => Ok(SketchKind::Gk),
            "kll" => Ok(SketchKind::Kll),
            other => Err(format!("unknown sketch kind {other:?} (want gk|kll)")),
        }
    }
}

/// Runtime-dispatched [`QuantileSketch`]: one enum value per backend, so
/// the engine can select the sketch from configuration without becoming
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
}

impl<T: Copy + Ord + RadixKey> QuantileSketch<T> for AnySketch<T> {
    fn epsilon(&self) -> f64 {
        match self {
            AnySketch::Gk(s) => s.epsilon(),
            AnySketch::Kll(s) => s.epsilon(),
        }
    }

    fn len(&self) -> u64 {
        match self {
            AnySketch::Gk(s) => s.len(),
            AnySketch::Kll(s) => s.len(),
        }
    }

    fn min(&self) -> Option<T> {
        match self {
            AnySketch::Gk(s) => s.min(),
            AnySketch::Kll(s) => s.min(),
        }
    }

    fn max(&self) -> Option<T> {
        match self {
            AnySketch::Gk(s) => s.max(),
            AnySketch::Kll(s) => s.max(),
        }
    }

    fn insert(&mut self, v: T) {
        match self {
            AnySketch::Gk(s) => s.insert(v),
            AnySketch::Kll(s) => s.insert(v),
        }
    }

    fn insert_sorted_batch(&mut self, batch: &[T]) {
        match self {
            AnySketch::Gk(s) => s.insert_sorted_batch(batch),
            AnySketch::Kll(s) => s.insert_sorted_batch(batch),
        }
    }

    fn insert_batch(&mut self, batch: &mut [T]) {
        match self {
            AnySketch::Gk(s) => s.insert_batch(batch),
            AnySketch::Kll(s) => KllSketch::insert_batch(s, batch),
        }
    }

    fn insert_weighted(&mut self, v: T, w: u64) {
        match self {
            AnySketch::Gk(s) => GkSketch::insert_weighted(s, v, w),
            AnySketch::Kll(s) => KllSketch::insert_weighted(s, v, w),
        }
    }

    fn insert_weighted_batch(&mut self, batch: &mut [(T, u64)]) {
        match self {
            AnySketch::Gk(s) => GkSketch::insert_weighted_batch(s, batch),
            AnySketch::Kll(s) => KllSketch::insert_weighted_batch(s, batch),
        }
    }

    fn insert_weighted_sorted_batch(&mut self, batch: &[(T, u64)]) {
        match self {
            AnySketch::Gk(s) => GkSketch::insert_weighted_sorted_batch(s, batch),
            AnySketch::Kll(s) => KllSketch::insert_weighted_batch(s, batch),
        }
    }

    fn rank_query(&self, r: u64) -> Option<RankEstimate<T>> {
        match self {
            AnySketch::Gk(s) => s.rank_query(r),
            AnySketch::Kll(s) => s.rank_query(r),
        }
    }

    fn rank_queries(&self, ascending: &[u64]) -> Vec<RankEstimate<T>> {
        match self {
            AnySketch::Gk(s) => s.rank_queries(ascending),
            AnySketch::Kll(s) => s.rank_queries(ascending),
        }
    }

    fn rank_bounds_of(&self, v: T) -> (u64, u64) {
        match self {
            AnySketch::Gk(s) => s.rank_bounds_of(v),
            AnySketch::Kll(s) => s.rank_bounds_of(v),
        }
    }

    fn memory_words(&self) -> usize {
        match self {
            AnySketch::Gk(s) => s.memory_words(),
            AnySketch::Kll(s) => s.memory_words(),
        }
    }

    fn reset(&mut self) {
        match self {
            AnySketch::Gk(s) => s.reset(),
            AnySketch::Kll(s) => s.reset(),
        }
    }

    fn exactly_mergeable(&self) -> bool {
        matches!(self, AnySketch::Kll(_))
    }

    /// Fold `other` into `self`. Panics if the two sketches are of
    /// different kinds — the engine always configures every shard with
    /// one [`SketchKind`], so a mixed merge is a logic error upstream.
    fn merge_from(&mut self, other: &Self) {
        match (self, other) {
            (AnySketch::Gk(a), AnySketch::Gk(b)) => a.merge_from(b),
            (AnySketch::Kll(a), AnySketch::Kll(b)) => a.merge_from(b),
            (a, b) => panic!("cannot merge sketch kinds {} and {}", a.kind(), b.kind()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactQuantiles;

    /// Exercise a backend through the trait only, as the engine does.
    fn drive<S: QuantileSketch<u64>>(mut sk: S) -> S {
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

    fn check_backend<S: QuantileSketch<u64>>(sk: S, eps: f64) {
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
            assert!(
                est.rmin <= truth && truth <= est.rmax,
                "tracked interval unsound at target {r}"
            );
            assert!(
                truth.abs_diff(r) as f64 <= eps * n as f64 + 1.0,
                "answer off by {} at target {r}",
                truth.abs_diff(r)
            );
        }
    }

    #[test]
    fn all_backends_meet_the_bound_through_the_trait() {
        let eps = 0.01;
        check_backend(drive(GkSketch::<u64>::new(eps)), eps);
        check_backend(drive(KllSketch::<u64>::new(eps)), eps);
        check_backend(drive(AnySketch::<u64>::new(SketchKind::Gk, eps)), eps);
        check_backend(drive(AnySketch::<u64>::new(SketchKind::Kll, eps)), eps);
    }

    #[test]
    fn kind_parsing_and_display() {
        assert_eq!("gk".parse::<SketchKind>().unwrap(), SketchKind::Gk);
        assert_eq!("KLL".parse::<SketchKind>().unwrap(), SketchKind::Kll);
        assert_eq!(" Gk ".parse::<SketchKind>().unwrap(), SketchKind::Gk);
        assert!("tdigest".parse::<SketchKind>().is_err());
        assert_eq!(SketchKind::Kll.to_string(), "kll");
        assert_eq!(SketchKind::Gk.as_str(), "gk");
    }

    /// `HSQ_SKETCH` parsing goes through this helper; valid values (any
    /// case, surrounding whitespace) select the backend...
    #[test]
    fn env_parsing_accepts_valid_kinds() {
        assert_eq!(SketchKind::parse_env("gk"), SketchKind::Gk);
        assert_eq!(SketchKind::parse_env("KLL"), SketchKind::Kll);
        assert_eq!(SketchKind::parse_env(" Kll "), SketchKind::Kll);
    }

    /// ...and a typo panics with the variable name in the message rather
    /// than silently degrading to the GK default fleet-wide.
    #[test]
    #[should_panic(expected = "HSQ_SKETCH")]
    fn env_parsing_panics_on_typo() {
        SketchKind::parse_env("klll");
    }

    /// The weighted trait surface: every backend (and the enum
    /// dispatcher) must agree with w-fold replication within ε·W, for
    /// scalar, unsorted-batch, and sorted-batch entry points.
    #[test]
    fn weighted_trait_paths_match_replication_within_bound() {
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
        fn drive_weighted<S: QuantileSketch<u64>>(mut sk: S, pairs: &[(u64, u64)]) -> S {
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
        assert!(!gk.exactly_mergeable());
        assert!(kll.exactly_mergeable());
    }

    /// GK's merge is a sound widening: merged intervals bracket union
    /// ranks even though the combination is not exact.
    #[test]
    fn gk_merge_from_brackets_union_ranks() {
        let mut state = 1u64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut exact = ExactQuantiles::new();
        let mut parts: Vec<GkSketch<u64>> = Vec::new();
        for _ in 0..4 {
            let mut gk = GkSketch::new(0.02);
            for _ in 0..8_000 {
                let v = lcg() % 50_000;
                gk.insert(v);
                exact.insert(v);
            }
            parts.push(gk);
        }
        let mut merged = parts[0].clone();
        for p in &parts[1..] {
            merged.merge_from(p);
        }
        assert_eq!(merged.len(), 32_000);
        let n = merged.len();
        for i in 1..=32u64 {
            let r = i * n / 32;
            let est = merged.rank_query(r).unwrap();
            let truth = exact.rank_of(est.value);
            assert!(
                est.rmin <= truth && truth <= est.rmax,
                "merged GK interval [{}, {}] misses true rank {truth}",
                est.rmin,
                est.rmax
            );
            // Folding 4 sketches sums their tracked widths: 2εn total.
            assert!(truth.abs_diff(r) as f64 <= 2.0 * 0.02 * n as f64 + 4.0);
        }
        // Probe values not in any sketch too.
        for probe in (0..52_000u64).step_by(1_111) {
            let (lo, hi) = merged.rank_bounds_of(probe);
            let truth = exact.rank_of(probe);
            assert!(lo <= truth && truth <= hi);
        }
    }

    #[test]
    fn gk_merge_with_empty_sides() {
        let mut a = GkSketch::<u64>::new(0.05);
        let empty = GkSketch::<u64>::new(0.05);
        for v in 0..1_000 {
            a.insert(v);
        }
        let before = a.quantile(0.5);
        a.merge_from(&empty);
        assert_eq!(a.quantile(0.5), before);
        let mut b = GkSketch::<u64>::new(0.05);
        b.merge_from(&a);
        assert_eq!(b.len(), 1_000);
        assert_eq!(b.quantile(0.5), before);
    }
}
