//! The Greenwald–Khanna ε-approximate quantile sketch.
//!
//! Reference: M. Greenwald and S. Khanna, *Space-efficient online
//! computation of quantile summaries*, SIGMOD 2001 — reference \[15\] of the
//! reproduced paper, which uses GK both for the stream summary `SS`
//! (§2.2) and as the pure-streaming baseline (§3.1).
//!
//! The sketch maintains an ordered list of tuples `(vᵢ, gᵢ, Δᵢ)` where
//! `gᵢ` is the gap in minimum rank to the previous tuple and `Δᵢ` bounds
//! the rank uncertainty of `vᵢ`:
//!
//! * `rmin(vᵢ) = Σ_{j≤i} gⱼ`, `rmax(vᵢ) = rmin(vᵢ) + Δᵢ`;
//! * **invariant**: `gᵢ + Δᵢ ≤ ⌊2εn⌋` for all i (checked by
//!   [`GkSketch::check_invariants`]), which guarantees any rank query is
//!   answerable within `εn`.
//!
//! Every insert — scalar, batched, weighted — goes through one merge
//! (`merge_runs`): a backward linear pass over the tuples and the
//! batch's sorted `(value, weight)` runs, with COMPRESS fused into it.
//! COMPRESS merges a tuple into its right neighbour when capacity allows
//! and the *band* condition holds (newer tuples, with larger Δ, may only
//! absorb tuples from the same or newer band), preserving the
//! `O((1/ε)·log(εn))` space bound.

use std::fmt;

/// One summary tuple. `g` = rank gap to predecessor, `delta` = rank
/// uncertainty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tuple<T> {
    v: T,
    g: u64,
    delta: u64,
}

/// Result of a rank query: the chosen value and its tracked rank interval.
///
/// The true 1-based rank of one copy of `value` in the stream lies in
/// `[rmin, rmax]`. With duplicates that is the copy the estimate answers
/// for: a GK tuple's own copy, or KLL's copy nearest the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankEstimate<T> {
    /// The answering element (some element that appeared in the stream).
    pub value: T,
    /// Lower bound on `value`'s rank in the stream.
    pub rmin: u64,
    /// Upper bound on `value`'s rank in the stream.
    pub rmax: u64,
}

/// Greenwald–Khanna ε-approximate quantile sketch over a totally ordered
/// `T`.
///
/// ```
/// use hsq_sketch::GkSketch;
/// let mut gk = GkSketch::new(0.01);
/// for v in 0..10_000u64 {
///     gk.insert(v);
/// }
/// let med = gk.quantile(0.5).unwrap();
/// assert!((med as i64 - 5_000).abs() <= 100); // epsilon * n = 100
/// ```
#[derive(Clone)]
pub struct GkSketch<T> {
    epsilon: f64,
    tuples: Vec<Tuple<T>>,
    n: u64,
    min: Option<T>,
    max: Option<T>,
    /// Spare buffer for the fused merge+compress pass (double-buffered
    /// with `tuples` so steady-state ingestion never allocates).
    scratch: Vec<Tuple<T>>,
}

impl<T: Copy + Ord> GkSketch<T> {
    /// Create a sketch with error parameter `epsilon ∈ (0, 1]`: any rank
    /// query over the first `n` inserts is answered within `εn`.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        GkSketch {
            epsilon,
            tuples: Vec::new(),
            n: 0,
            min: None,
            max: None,
            scratch: Vec::new(),
        }
    }

    /// The error parameter.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of elements inserted.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True iff nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Smallest element seen (tracked exactly).
    pub fn min(&self) -> Option<T> {
        self.min
    }

    /// Largest element seen (tracked exactly).
    pub fn max(&self) -> Option<T> {
        self.max
    }

    /// Number of summary tuples currently held.
    pub fn num_tuples(&self) -> usize {
        self.tuples.len()
    }

    /// Approximate words of memory used (3 words per tuple + header),
    /// the unit the paper's memory budgets are expressed in.
    pub fn memory_words(&self) -> usize {
        3 * self.tuples.len() + 8
    }

    /// `⌊2εn⌋`: the capacity bound on `g + Δ`.
    #[inline]
    fn cap(&self) -> u64 {
        (2.0 * self.epsilon * self.n as f64).floor() as u64
    }

    /// Insert one element: a batch of one run, through the one merge
    /// every insert takes (a pass over the tuples).
    #[inline]
    pub fn insert(&mut self, v: T) {
        self.merge_runs(1, [(v, 1)]);
    }

    /// Insert a whole batch at once: sorts `batch` in place (via the LSD
    /// radix path of [`crate::radix::sort_radixable`] for radix-keyed
    /// types, comparison sort otherwise), then merges it in one linear
    /// pass ([`GkSketch::insert_sorted_batch`]) instead of `batch.len()`
    /// scalar inserts, with the same `g + Δ ≤ ⌊2εn⌋` invariant and `εn`
    /// rank guarantee.
    ///
    /// The [`crate::radix::RadixKey`] bound is how the sort picks its
    /// path: types without an order-preserving `u64` key implement the
    /// trait with `RADIXABLE = false` (three lines — see the `u128`
    /// impl) and every batch takes the comparison sort instead.
    pub fn insert_batch(&mut self, batch: &mut [T])
    where
        T: crate::radix::RadixKey,
    {
        crate::radix::sort_radixable(batch);
        self.insert_sorted_batch(batch);
    }

    /// [`GkSketch::insert_batch`] for a batch the caller has already
    /// sorted (nondecreasing). Skips the sort; the batch's runs of equal
    /// values are read on the fly as `(value, count)` runs.
    pub fn insert_sorted_batch(&mut self, batch: &[T]) {
        debug_assert!(batch.windows(2).all(|w| w[0] <= w[1]), "batch not sorted");
        self.merge_runs(batch.len() as u64, batch.iter().rev().map(|&v| (v, 1)));
    }

    /// Insert one element carrying integer weight `w` — the same multiset
    /// as `w` [`GkSketch::insert`] calls, merged as one run. `w = 0` is a
    /// no-op.
    pub fn insert_weighted(&mut self, v: T, w: u64) {
        self.merge_runs(w, [(v, w)]);
    }

    /// Insert a batch of `(value, weight)` pairs, unsorted: sorts by
    /// value (comparison sort — the weight payload cannot ride along an
    /// order-preserving `u64` radix key, so the pair is not
    /// [`crate::radix::RadixKey`] material) and merges through
    /// [`GkSketch::insert_weighted_sorted_batch`].
    pub fn insert_weighted_batch(&mut self, batch: &mut [(T, u64)]) {
        batch.sort_unstable_by_key(|a| a.0);
        self.insert_weighted_sorted_batch(batch);
    }

    /// Weighted batch insert for pairs the caller has already sorted by
    /// value (nondecreasing; zero weights are skipped). Pairs of one value
    /// are summed into one run on the fly. Cost is `O(tuples + pairs +
    /// 1/ε)`, independent of the weight magnitudes.
    pub fn insert_weighted_sorted_batch(&mut self, batch: &[(T, u64)]) {
        debug_assert!(
            batch.windows(2).all(|w| w[0].0 <= w[1].0),
            "batch not sorted by value"
        );
        let total = batch.iter().map(|p| p.1).sum();
        self.merge_runs(total, batch.iter().rev().copied());
    }

    /// The one merge, behind every insert. `descending` lists
    /// `(value, weight)` pairs from the largest value down, summing to
    /// `total`; pairs of one value are summed into one run and zero
    /// weights skipped as they are read. The runs are merged into the
    /// tuple list in one backward linear pass with COMPRESS fused into it,
    /// and the output is written once into the `scratch` double buffer.
    ///
    /// A run's copies of `u` go *before* the sketch's own copies of `u`,
    /// so every existing tuple keeps its `(g, Δ)`: the new mass below it
    /// arrives as new tuples between it and its predecessor. The sketch
    /// holds between `rmin(s)` and `rmax(t) − 1` items below `u`, for `s`
    /// the last tuple under `u` and `t` the first at or above it, so the
    /// run enters with that local width `Δ = g_t + Δ_t − 1` (exactly 0 when
    /// no tuple is at or above `u`, or when `u` is at or below the exact
    /// minimum), in chunks of `g ≤ ⌊2εn⌋ − Δ` at the new `n`. Every new
    /// tuple thus keeps `g + Δ ≤ ⌊2εn⌋`, and no Δ is wider than the
    /// classic insert's `⌊2εn⌋ − 1`.
    ///
    /// Streaming largest to smallest, the accumulator `right` absorbs its
    /// left neighbour while `g_left + g + Δ < ⌊2εn⌋` and the band rule
    /// allow; the minimum tuple is never absorbed. Cost is one pass over
    /// the tuples plus one step per pair and per chunk, whatever the batch
    /// size: a scalar insert pays the whole pass.
    fn merge_runs(&mut self, total: u64, descending: impl IntoIterator<Item = (T, u64)>) {
        if total == 0 {
            return;
        }
        self.n += total;
        let cap = self.cap();
        let old_min = self.min;
        let mut pairs = descending.into_iter().filter(|p| p.1 > 0).peekable();
        let (mut lo, mut hi) = (None, None);
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        let old = &self.tuples;
        let mut i = old.len();
        let mut right: Option<Tuple<T>> = None;
        let mut emit = |t: Tuple<T>, is_min: bool| match right.take() {
            Some(mut r)
                if !is_min
                    && t.g + r.g + r.delta < cap
                    && Self::band(t.delta, cap) <= Self::band(r.delta, cap) =>
            {
                r.g += t.g;
                right = Some(r);
            }
            r => {
                if let Some(r) = r {
                    out.push(r);
                }
                right = Some(t);
            }
        };
        while let Some((u, mut w)) = pairs.next() {
            while let Some((_, more)) = pairs.next_if(|p| p.0 == u) {
                w += more;
            }
            debug_assert!(lo.is_none_or(|l| u < l), "pairs not descending");
            hi = hi.or(Some(u));
            lo = Some(u);
            while i > 0 && old[i - 1].v >= u {
                i -= 1;
                emit(old[i], false);
            }
            let delta = match old.get(i) {
                Some(t) if old_min < Some(u) => (t.g + t.delta).saturating_sub(1),
                _ => 0,
            };
            let chunk = cap.saturating_sub(delta).max(1);
            let is_min = i == 0 && pairs.peek().is_none();
            // Full chunks from the right, the remainder leftmost.
            let tuple = |g| Tuple { v: u, g, delta };
            let mut rest = w;
            while rest > chunk {
                rest -= chunk;
                emit(tuple(chunk), false);
            }
            emit(tuple(rest), is_min);
        }
        while i > 0 {
            i -= 1;
            emit(old[i], i == 0);
        }
        out.extend(right);
        out.reverse();
        self.scratch = std::mem::replace(&mut self.tuples, out);
        self.min = self.min.min(lo).or(lo);
        self.max = self.max.max(hi);
    }

    /// Band of a tuple: groups Δ values by the insertion epoch that could
    /// have produced them; only same-or-newer bands may be absorbed.
    #[inline]
    fn band(delta: u64, cap: u64) -> u32 {
        // A sketch rebuilt by [`GkSketch::from_tuple_parts`] may carry Δ
        // above the current cap; clamp for banding only — the absorption
        // test uses the real Δ, so soundness is unaffected.
        let delta = delta.min(cap);
        if delta == cap {
            0
        } else {
            // floor(log2(cap - delta + 1)) + 1: monotone decreasing in delta.
            64 - (cap - delta + 1).leading_zeros()
        }
    }

    /// Answer a query for 1-based rank `r` (clamped into `[1, n]`).
    ///
    /// Returns a value whose true rank is within `εn` of `r`, along with
    /// its tracked rank interval: the tuple before the first one with
    /// `rmax > r + ⌊εn⌋` (the first tuple when that one already
    /// overshoots, the last when none does). `None` iff the sketch is
    /// empty. This is the one-target case of [`GkSketch::rank_queries`],
    /// an O(tuples) scan.
    pub fn rank_query(&self, r: u64) -> Option<RankEstimate<T>> {
        self.sweep(std::iter::once(r)).next()
    }

    /// [`GkSketch::rank_query`] for every target of `ascending`, in one
    /// forward sweep of the tuple list: O(tuples + targets) rather than
    /// one scan per target. The answer position of a target only moves
    /// right as the target grows, so each answer equals
    /// `rank_query(target)` exactly. Empty iff the sketch is empty.
    ///
    /// # Panics
    ///
    /// If `ascending` is not nondecreasing.
    pub fn rank_queries(&self, ascending: &[u64]) -> Vec<RankEstimate<T>> {
        self.sweep(ascending.iter().copied()).collect()
    }

    /// The cursor behind [`GkSketch::rank_queries`]: `next` is the first
    /// tuple not yet known to sit within reach of the current target and
    /// `rmin` the rank mass of the tuples before it. An empty sketch
    /// answers nothing.
    fn sweep<'a>(
        &'a self,
        targets: impl Iterator<Item = u64> + 'a,
    ) -> impl Iterator<Item = RankEstimate<T>> + 'a {
        let slack = (self.epsilon * self.n as f64).floor() as u64;
        let (mut next, mut rmin, mut last) = (0usize, 0u64, 0u64);
        targets.take_while(|_| self.n > 0).map(move |r| {
            assert!(
                r >= last,
                "rank targets must be ascending: {r} after {last}"
            );
            last = r;
            let limit = r.clamp(1, self.n).saturating_add(slack);
            while let Some(t) = self.tuples.get(next) {
                if rmin + t.g + t.delta > limit {
                    break;
                }
                rmin += t.g;
                next += 1;
            }
            // The tuple before the first overshooting one is within slack
            // by the invariant; with no predecessor, the first tuple.
            let (t, rmin) = match next.checked_sub(1) {
                Some(i) => (self.tuples[i], rmin),
                None => (self.tuples[0], self.tuples[0].g),
            };
            RankEstimate {
                value: t.v,
                rmin,
                rmax: rmin + t.delta,
            }
        })
    }

    /// The element at quantile `phi ∈ (0, 1]` (rank `⌈φn⌉`), within `εn`.
    pub fn quantile(&self, phi: f64) -> Option<T> {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        let r = (phi * self.n as f64).ceil() as u64;
        self.rank_query(r).map(|e| e.value)
    }

    /// Rigorous bounds `[lo, hi]` on the rank of an arbitrary value `v`
    /// (not necessarily seen): `lo ≤ rank(v, stream) ≤ hi`, where
    /// `rank(v) = |{x : x ≤ v}|`. The width `hi − lo` is at most `2εn` by
    /// the GK invariant.
    ///
    /// * `lo` = `rmin` of the last tuple with value ≤ `v` (every such
    ///   element is certainly ≤ `v`);
    /// * `hi` = `rmax − 1` of the first tuple with value > `v` (any
    ///   element ≤ `v` must precede that tuple's value).
    pub fn rank_bounds_of(&self, v: T) -> (u64, u64) {
        let mut rmin = 0u64;
        let mut lo = 0u64;
        for t in &self.tuples {
            if t.v <= v {
                rmin += t.g;
                lo = rmin;
            } else {
                let hi = (rmin + t.g + t.delta).saturating_sub(1);
                return (lo, hi.min(self.n));
            }
        }
        (lo, self.n)
    }

    /// Verify the GK invariant `gᵢ + Δᵢ ≤ ⌊2εn⌋` (plus structural sanity).
    /// Used by tests; cheap enough to call in debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.n == 0 {
            return if self.tuples.is_empty() {
                Ok(())
            } else {
                Err("tuples non-empty but n == 0".into())
            };
        }
        let cap = self.cap().max(1);
        let mut total_g = 0u64;
        let mut prev: Option<T> = None;
        for (i, t) in self.tuples.iter().enumerate() {
            if let Some(p) = prev {
                if t.v < p {
                    return Err(format!("tuple {i} out of order"));
                }
            }
            prev = Some(t.v);
            total_g += t.g;
            if t.g + t.delta > cap {
                return Err(format!(
                    "invariant violated at tuple {i}: g={} delta={} cap={cap}",
                    t.g, t.delta
                ));
            }
        }
        if total_g != self.n {
            return Err(format!("sum of g = {total_g} != n = {}", self.n));
        }
        if self.tuples.first().map(|t| t.delta) != Some(0) {
            return Err("first tuple must have delta 0".into());
        }
        if self.tuples.last().map(|t| t.delta) != Some(0) {
            return Err("last tuple must have delta 0".into());
        }
        Ok(())
    }

    /// The summary tuples as `(value, g, Δ)` triples, for serialization.
    pub fn tuple_parts(&self) -> impl Iterator<Item = (T, u64, u64)> + '_ {
        self.tuples.iter().map(|t| (t.v, t.g, t.delta))
    }

    /// Rebuild a sketch from serialized parts, validating ordering, rank
    /// mass and min/max consistency. The capacity invariant is *not*
    /// enforced; every insert keeps it, so a sketch this crate wrote meets
    /// it. Above the cap the tracked intervals stay sound, since every
    /// query reads only the tuples' `g` and `Δ`, but answers lose the `εn`
    /// guarantee, which rests on the cap; [`GkSketch::restore_cap`]
    /// restores it.
    pub fn from_tuple_parts(
        epsilon: f64,
        n: u64,
        min: Option<T>,
        max: Option<T>,
        parts: Vec<(T, u64, u64)>,
    ) -> Result<Self, String> {
        if !(epsilon.is_finite() && epsilon > 0.0 && epsilon <= 1.0) {
            return Err(format!("epsilon {epsilon} out of (0, 1]"));
        }
        let tuples: Vec<Tuple<T>> = parts
            .into_iter()
            .map(|(v, g, delta)| Tuple { v, g, delta })
            .collect();
        if let Some(w) = tuples.windows(2).position(|w| w[1].v < w[0].v) {
            return Err(format!("tuple {} out of order", w + 1));
        }
        // Every query computes `rmax = Σg + Δ` per tuple, so each must fit.
        let mut total_g = 0u64;
        for (i, t) in tuples.iter().enumerate() {
            total_g = total_g
                .checked_add(t.g)
                .ok_or_else(|| "rank mass overflows u64".to_string())?;
            if total_g.checked_add(t.delta).is_none() {
                return Err(format!("tuple {i}: rmin + delta overflows u64"));
            }
        }
        if total_g != n {
            return Err(format!("sum of g = {total_g} != n = {n}"));
        }
        if (n == 0) != tuples.is_empty() {
            return Err("tuple list inconsistent with n".into());
        }
        if (n == 0) != (min.is_none() && max.is_none()) {
            return Err("min/max tracking inconsistent with n".into());
        }
        if let (Some(lo), Some(hi)) = (min, max) {
            if lo > hi {
                return Err("min > max".into());
            }
            // Extracts anchor the exact min (at rank 1) and max ahead of
            // and behind the tuples' answers, so the tuples must lie in
            // between and the first must carry rank mass.
            let (first, last) = (tuples[0], tuples[tuples.len() - 1]);
            if first.v < lo || last.v > hi {
                return Err("tuple outside [min, max]".into());
            }
            if first.g == 0 {
                return Err("first tuple carries no rank mass".into());
            }
        }
        Ok(GkSketch {
            epsilon,
            tuples,
            n,
            min,
            max,
            scratch: Vec::new(),
        })
    }

    /// Bring a sketch rebuilt by [`GkSketch::from_tuple_parts`] back under
    /// the `⌊2εn⌋` cap through the one insert path. Each tuple `(v, g, Δ)`
    /// over the cap keeps one item of its `g`; the other `g − 1` re-enter
    /// as one run of copies of `v` through the merge every insert takes,
    /// chunked under the cap and compressed like any insert. That reads an
    /// over-cap tuple's mass as copies of its value, and soundness rests
    /// on that reading: `g` only places those items in `(v_{i−1}, v]`, and
    /// where some are smaller values the new tuples at `v` claim ranks
    /// below `v`'s true rank. An older build's weighted fold made its
    /// over-cap tuples out of a heavy pair's copies of `v` plus one gap of
    /// at most the old cap. A sketch within the cap is left exactly as it
    /// is, and so is a tuple whose `Δ` alone exceeds half the cap (chunks
    /// under it could number one per item).
    pub fn restore_cap(&mut self) {
        let cap = self.cap().max(1);
        let mut excess = Vec::new();
        for t in self.tuples.iter_mut().rev() {
            if t.g > 1 && t.g + t.delta > cap && 2 * t.delta <= cap {
                excess.push((t.v, t.g - 1));
                t.g = 1;
            }
        }
        let total = excess.iter().map(|p| p.1).sum();
        self.n -= total;
        self.merge_runs(total, excess);
    }

    /// Drop all state, keeping the error parameter (paper Algorithm 4,
    /// `StreamReset`).
    pub fn reset(&mut self) {
        self.tuples.clear();
        self.n = 0;
        self.min = None;
        self.max = None;
    }
}

impl<T: Copy + Ord + fmt::Debug> fmt::Debug for GkSketch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GkSketch")
            .field("epsilon", &self.epsilon)
            .field("n", &self.n)
            .field("tuples", &self.tuples.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Exact rank of `v` in `data` (count of elements <= v).
    fn exact_rank(data: &[u64], v: u64) -> u64 {
        data.iter().filter(|&&x| x <= v).count() as u64
    }

    #[test]
    fn empty_sketch() {
        let gk = GkSketch::<u64>::new(0.1);
        assert!(gk.is_empty());
        assert!(gk.rank_query(1).is_none());
        assert!(gk.quantile(0.5).is_none());
        assert_eq!(gk.min(), None);
        gk.check_invariants().unwrap();
    }

    #[test]
    fn single_element() {
        let mut gk = GkSketch::new(0.1);
        gk.insert(42u64);
        assert_eq!(gk.quantile(0.5), Some(42));
        assert_eq!(gk.quantile(1.0), Some(42));
        assert_eq!(gk.min(), Some(42));
        assert_eq!(gk.max(), Some(42));
    }

    #[test]
    fn sorted_insert_error_bound() {
        let n = 20_000u64;
        let eps = 0.01;
        let mut gk = GkSketch::new(eps);
        for v in 0..n {
            gk.insert(v);
        }
        gk.check_invariants().unwrap();
        let slack = (eps * n as f64).ceil() as i64;
        for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let r = (phi * n as f64).ceil() as i64;
            let v = gk.quantile(phi).unwrap();
            let true_rank = (v + 1) as i64; // distinct values 0..n
            assert!(
                (true_rank - r).abs() <= slack,
                "phi={phi}: rank {true_rank} vs target {r} (slack {slack})"
            );
        }
    }

    #[test]
    fn shuffled_insert_error_bound() {
        let n = 20_000u64;
        let eps = 0.005;
        let mut rng = StdRng::seed_from_u64(7);
        let mut data: Vec<u64> = (0..n).collect();
        data.shuffle(&mut rng);
        let mut gk = GkSketch::new(eps);
        for &v in &data {
            gk.insert(v);
        }
        gk.check_invariants().unwrap();
        let slack = (eps * n as f64).ceil() as i64;
        for r in (1..=n).step_by(997) {
            let est = gk.rank_query(r).unwrap();
            let true_rank = (est.value + 1) as i64;
            assert!(
                (true_rank - r as i64).abs() <= slack,
                "r={r}: got value {} with true rank {true_rank}",
                est.value
            );
            // Tracked bounds must contain the true rank.
            assert!(est.rmin as i64 <= true_rank && true_rank <= est.rmax as i64);
        }
    }

    #[test]
    fn duplicate_heavy_stream() {
        let eps = 0.01;
        let mut gk = GkSketch::new(eps);
        let mut data = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v: u64 = *[5u64, 5, 5, 7, 100].choose(&mut rng).unwrap();
            data.push(v);
            gk.insert(v);
        }
        gk.check_invariants().unwrap();
        let n = data.len() as u64;
        let slack = (eps * n as f64).ceil() as u64;
        for phi in [0.1, 0.5, 0.61, 0.9] {
            let r = (phi * n as f64).ceil() as u64;
            let v = gk.quantile(phi).unwrap();
            let rank_lo = data.iter().filter(|&&x| x < v).count() as u64 + 1;
            let rank_hi = exact_rank(&data, v);
            // Some rank in [rank_lo, rank_hi] must be within slack of r.
            assert!(
                r.saturating_sub(slack) <= rank_hi && rank_lo <= r + slack,
                "phi={phi} v={v} ranks [{rank_lo},{rank_hi}] target {r}"
            );
        }
    }

    #[test]
    fn space_stays_sublinear() {
        let eps = 0.01;
        let mut gk = GkSketch::new(eps);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100_000 {
            gk.insert(rng.gen::<u64>());
        }
        gk.check_invariants().unwrap();
        // Theory: O((1/eps) * log(eps n)) = O(100 * ~10) tuples. Allow a
        // generous constant.
        assert!(
            gk.num_tuples() < 6000,
            "GK summary too large: {} tuples for eps={eps}",
            gk.num_tuples()
        );
    }

    #[test]
    fn min_max_tracked_exactly() {
        let mut gk = GkSketch::new(0.05);
        let mut rng = StdRng::seed_from_u64(5);
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for _ in 0..50_000 {
            let v = rng.gen::<u64>();
            lo = lo.min(v);
            hi = hi.max(v);
            gk.insert(v);
        }
        assert_eq!(gk.min(), Some(lo));
        assert_eq!(gk.max(), Some(hi));
    }

    #[test]
    fn reset_clears_state() {
        let mut gk = GkSketch::new(0.1);
        for v in 0..100u64 {
            gk.insert(v);
        }
        gk.reset();
        assert!(gk.is_empty());
        assert!(gk.quantile(0.5).is_none());
        // Reusable after reset.
        gk.insert(9);
        assert_eq!(gk.quantile(1.0), Some(9));
    }

    #[test]
    fn rank_bounds_of_contains_truth() {
        let mut gk = GkSketch::new(0.02);
        let mut rng = StdRng::seed_from_u64(23);
        let data: Vec<u64> = (0..30_000).map(|_| rng.gen_range(0..1_000_000)).collect();
        for &v in &data {
            gk.insert(v);
        }
        let width_cap = (2.0 * 0.02 * data.len() as f64).ceil() as u64;
        for probe in (0..1_000_000).step_by(99_991) {
            let (lo, hi) = gk.rank_bounds_of(probe);
            let truth = exact_rank(&data, probe);
            // Bounds are rigorous and no wider than 2*eps*n.
            assert!(
                lo <= truth && truth <= hi,
                "probe {probe}: truth {truth} not in [{lo},{hi}]"
            );
            assert!(hi - lo <= width_cap, "bounds too wide: [{lo},{hi}]");
        }
    }

    #[test]
    fn works_with_signed_values() {
        let mut gk = GkSketch::new(0.01);
        for v in -5000i64..5000 {
            gk.insert(v);
        }
        let med = gk.quantile(0.5).unwrap();
        assert!(med.abs() <= 100);
    }

    /// `(label, ε, pairs, batch length)`.
    type Input = (&'static str, f64, Vec<(u64, u64)>, usize);

    /// One entry point fed one batch of pairs.
    type Feed = fn(&mut GkSketch<u64>, &[(u64, u64)]);

    /// The inputs of [`weighted_insert_matches_replicated`]: random
    /// weights < 40 over 50,000 values, and two heavy-duplicate shapes of
    /// weight-1 pairs at the engine's ε₂/2 for ε = 0.01: a log-uniform
    /// head `⌊2^(20u)⌋` and a 20-value domain.
    fn weighted_inputs() -> Vec<Input> {
        let mut rng = StdRng::seed_from_u64(17);
        let random = (0..3_000)
            .map(|_| (rng.gen_range(0..50_000), rng.gen_range(0..40)))
            .collect();
        let head = (0..4 * 4_096)
            .map(|_| (2f64.powf(20.0 * rng.gen::<f64>()) as u64, 1))
            .collect();
        let twenty = (0..4 * 4_096).map(|_| (rng.gen::<u64>() % 20, 1)).collect();
        vec![
            ("random weights", 0.02, random, 491),
            ("log-uniform head", 0.00125, head, 4_096),
            ("20 values", 0.00125, twenty, 4_096),
        ]
    }

    /// Every weighted and unweighted entry point over `pairs` (the
    /// unweighted ones take the replicated copies, batch by batch), each
    /// sketch checked against the GK invariant after every batch.
    fn every_entry_point(
        eps: f64,
        pairs: &[(u64, u64)],
        batch: usize,
    ) -> Vec<(&'static str, GkSketch<u64>)> {
        let feeds: [(&str, Feed); 6] = [
            ("insert_weighted", |gk, b| {
                b.iter().for_each(|&(v, w)| gk.insert_weighted(v, w))
            }),
            ("insert_weighted_batch", |gk, b| {
                gk.insert_weighted_batch(&mut b.to_vec())
            }),
            ("insert_weighted_sorted_batch", |gk, b| {
                let mut sorted = b.to_vec();
                sorted.sort_unstable();
                gk.insert_weighted_sorted_batch(&sorted);
            }),
            ("insert", |gk, b| {
                replicated(b).into_iter().for_each(|v| gk.insert(v))
            }),
            ("insert_batch", |gk, b| gk.insert_batch(&mut replicated(b))),
            ("insert_sorted_batch", |gk, b| {
                let mut sorted = replicated(b);
                sorted.sort_unstable();
                gk.insert_sorted_batch(&sorted);
            }),
        ];
        feeds
            .into_iter()
            .map(|(name, feed)| {
                let mut gk = GkSketch::new(eps);
                for (i, b) in pairs.chunks(batch).enumerate() {
                    feed(&mut gk, b);
                    if let Err(e) = gk.check_invariants() {
                        panic!("{name}: batch {i}: {e}");
                    }
                }
                (name, gk)
            })
            .collect()
    }

    fn replicated(pairs: &[(u64, u64)]) -> Vec<u64> {
        pairs
            .iter()
            .flat_map(|&(v, w)| std::iter::repeat_n(v, w as usize))
            .collect()
    }

    /// Weighted insertion must bound ranks of the replicated multiset
    /// within ε·W and keep the GK invariant after every batch, through
    /// every entry point, on heavy heads too.
    #[test]
    fn weighted_insert_matches_replicated() {
        for (shape, eps, pairs, batch) in weighted_inputs() {
            let mut data = replicated(&pairs);
            data.sort_unstable();
            let total = data.len() as u64;
            let slack = eps * total as f64;
            for (name, gk) in every_entry_point(eps, &pairs, batch) {
                let label = format!("{shape}/{name}");
                assert_eq!(gk.len(), total, "{label}");
                assert_eq!(gk.min(), data.first().copied(), "{label}");
                assert_eq!(gk.max(), data.last().copied(), "{label}");
                for i in 1..=200u64 {
                    let r = i * total / 200;
                    let est = gk.rank_query(r).unwrap();
                    // Occurrence-rank semantics: the weighted copies of
                    // est.value span [count(<v) + 1, count(≤v)] and the
                    // tracked interval brackets one of them.
                    let truth_hi = data.partition_point(|&x| x <= est.value) as u64;
                    let truth_lo = data.partition_point(|&x| x < est.value) as u64 + 1;
                    assert!(
                        est.rmin <= truth_hi && truth_lo <= est.rmax,
                        "{label}: interval [{}, {}] misses occurrence ranks [{truth_lo}, {truth_hi}]",
                        est.rmin,
                        est.rmax
                    );
                    let dist = if r < truth_lo {
                        truth_lo - r
                    } else {
                        r.saturating_sub(truth_hi)
                    };
                    assert!(
                        dist as f64 <= slack + 1.0,
                        "{label}: rank_query off by {dist} at target {r} (ε·W = {slack})"
                    );
                }
                for probe in (0..50_000).step_by(1_733) {
                    let (lo, hi) = gk.rank_bounds_of(probe);
                    let truth = data.partition_point(|&x| x <= probe) as u64;
                    assert!(
                        lo <= truth && truth <= hi,
                        "{label}: probe {probe}: truth {truth} not in [{lo},{hi}]"
                    );
                    assert!(
                        (hi - lo) as f64 <= 2.0 * slack + 2.0,
                        "{label}: bounds wider than 2·ε·W: [{lo},{hi}]"
                    );
                }
                // Weighted folding must not blow up the summary size.
                assert!(
                    gk.num_tuples() < 4_000,
                    "{label}: {} tuples",
                    gk.num_tuples()
                );
            }
        }
    }

    /// Satellite audit: exhaustive bound-soundness at n ∈ {0, 1, 2} —
    /// an empty sketch must never claim mass.
    #[test]
    fn tiny_sketch_bounds_are_exact() {
        let empty = GkSketch::<u64>::new(0.05);
        assert_eq!(empty.rank_query(1), None);
        for probe in [0u64, 1, u64::MAX] {
            assert_eq!(empty.rank_bounds_of(probe), (0, 0));
        }
        let mut one = GkSketch::new(0.05);
        one.insert(10u64);
        let est = one.rank_query(1).unwrap();
        assert_eq!((est.value, est.rmin, est.rmax), (10, 1, 1));
        assert_eq!(one.rank_bounds_of(9), (0, 0));
        assert_eq!(one.rank_bounds_of(10), (1, 1));
        assert_eq!(one.rank_bounds_of(11), (1, 1));
        let mut two = GkSketch::new(0.05);
        two.insert(10u64);
        two.insert(20);
        assert_eq!(two.rank_bounds_of(9), (0, 0));
        assert_eq!(two.rank_bounds_of(10), (1, 1));
        assert_eq!(two.rank_bounds_of(15), (1, 1));
        assert_eq!(two.rank_bounds_of(20), (2, 2));
        assert_eq!(two.rank_bounds_of(21), (2, 2));
        let mut dup = GkSketch::new(0.05);
        dup.insert_weighted(10u64, 2);
        assert_eq!(dup.rank_bounds_of(9), (0, 0));
        assert_eq!(dup.rank_bounds_of(10), (2, 2));
    }

    /// Recovery refuses a tuple list whose `Σg + Δ` overflows u64 — every
    /// rank query computes it — instead of panicking (debug) or answering
    /// with `rmax < rmin` (release). Tuples outside `[min, max]` or a
    /// massless first tuple are refused too.
    #[test]
    fn from_tuple_parts_rejects_overflowing_delta() {
        let parts = |delta| vec![(10u64, 1, 0), (20, 1, delta)];
        let edge = GkSketch::from_tuple_parts(0.1, 2, Some(10), Some(20), parts(u64::MAX - 2));
        let est = edge.unwrap().rank_query(2).unwrap();
        assert!(est.rmin <= est.rmax);
        for delta in [u64::MAX - 1, u64::MAX] {
            let err = GkSketch::from_tuple_parts(0.1, 2, Some(10u64), Some(20), parts(delta))
                .unwrap_err();
            assert!(err.contains("overflows"), "{err}");
        }
        let ok = vec![(10u64, 1, 0), (20, 1, 0)];
        assert!(GkSketch::from_tuple_parts(0.1, 2, Some(10), Some(20), ok.clone()).is_ok());
        for (min, max) in [(11, 20), (10, 19)] {
            let err = GkSketch::from_tuple_parts(0.1, 2, Some(min), Some(max), ok.clone());
            assert!(err.unwrap_err().contains("outside"));
        }
        let massless = vec![(10u64, 0, 0), (20, 2, 0)];
        let err = GkSketch::from_tuple_parts(0.1, 2, Some(10), Some(20), massless);
        assert!(err.unwrap_err().contains("rank mass"));
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn nan_epsilon_rejected() {
        GkSketch::<u64>::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn zero_epsilon_rejected() {
        GkSketch::<u64>::new(0.0);
    }
}
