//! A deterministic KLL-style compactor sketch with tracked error bounds.
//!
//! References: Karnin, Lang and Liberty, *Optimal quantile approximation
//! in streams*, FOCS 2016 (the compactor-hierarchy architecture), and
//! Ivkin et al., *Streaming quantiles algorithms with small space and
//! update time* (the lazy, amortized-O(1) update schedule). Both are the
//! ROADMAP's named successors to the paper's GK stream summary.
//!
//! The sketch keeps a ladder of *compactor levels*: level `h` holds items
//! each representing `2^h` stream elements. Inserts append to level 0 —
//! a plain `Vec::push`, so updates are O(1) amortized — and when a level
//! reaches the capacity `k` it is *compacted*: sorted (through the LSD
//! radix kernel of [`crate::radix::sort_radixable`], the same path the
//! warehouse batch ingest uses), split into odd- and even-indexed halves,
//! and one half (chosen by a deterministic alternating parity bit) is
//! promoted to level `h + 1` at double weight.
//!
//! ## Determinism and tracked error
//!
//! The classical KLL analysis randomizes the surviving half; this
//! implementation has exactly one, **deterministic** schedule: each level
//! alternates between keeping its odd- and even-indexed items, a single
//! parity bit per level. That keeps every run, test and recovery
//! bit-reproducible — a property the rest of this codebase leans on
//! heavily — and the parity mask is the only schedule state a persisted
//! sketch carries. Instead of a probabilistic guarantee
//! the sketch *tracks* its worst-case rank error exactly: compacting
//! level `h` displaces any rank by at most `2^h` (the surviving half
//! over- or under-counts each prefix by at most one item of weight
//! `2^h`), so the running sum `err` of `2^h` over all compactions
//! performed is a hard bound on the rank error of every estimate. All
//! intervals reported by [`KllSketch::rank_query`] and
//! [`KllSketch::rank_bounds_of`] are widened by exactly `err` and are
//! therefore unconditionally sound.
//!
//! With capacity `k = ⌈48/ε⌉`, level `h` receives at most `n/2^h` items
//! and therefore compacts at most `n/(k·2^h)` times, contributing at most
//! `n/k` to `err`; across `H ≤ 24` levels, `err ≤ H·n/k ≤ ε·n/2`. The
//! `H ≤ 24` premise holds for any `n ≤ k·2^24` (for ε = 0.005 that is
//! ≈ 1.6·10¹¹ elements); beyond it the a-priori bound degrades gracefully
//! by `H/24` while the *tracked* bounds remain sound regardless.

use crate::gk::RankEstimate;
use crate::radix::{sort_radixable, sort_radixable_by_key, RadixKey};

/// Levels at or above this budget exceed the a-priori `ε·n/2` error
/// analysis (tracked bounds stay sound); see the module docs.
const LEVEL_BUDGET: u32 = 24;

/// Deterministic KLL compactor sketch over a radix-sortable `T`.
///
/// ```
/// use hsq_sketch::KllSketch;
/// let mut kll = KllSketch::new(0.01);
/// for v in 0..10_000u64 {
///     kll.insert(v);
/// }
/// let med = kll.quantile(0.5).unwrap();
/// assert!((med as i64 - 5_000).abs() <= 100); // epsilon * n = 100
/// ```
#[derive(Clone, Debug)]
pub struct KllSketch<T> {
    epsilon: f64,
    /// `levels[h]` holds items of weight `2^h`. Level 0 is an unsorted
    /// append buffer; levels ≥ 1 are kept sorted at all times.
    levels: Vec<Vec<T>>,
    /// Bit `h` = "keep odd-indexed survivors" on the next compaction of
    /// level `h`; flipped after each use so systematic bias cancels.
    parity: u64,
    n: u64,
    min: Option<T>,
    max: Option<T>,
    /// Tracked worst-case rank error: `Σ 2^h` over all compactions run.
    err: u64,
    /// Per-level capacity `k`, derived from `epsilon`.
    cap: usize,
}

impl<T: Copy + Ord + RadixKey> KllSketch<T> {
    /// Create a sketch with error parameter `epsilon ∈ (0, 1]`: any rank
    /// query is answered within `εn` (tracked, and a-priori within
    /// `εn/2` while the level count stays under the analysed budget —
    /// see the module docs).
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        KllSketch {
            epsilon,
            levels: vec![Vec::new()],
            parity: 0,
            n: 0,
            min: None,
            max: None,
            err: 0,
            cap: Self::capacity_for(epsilon),
        }
    }

    /// Per-level capacity `k = max(8, ⌈2·LEVEL_BUDGET/ε⌉)`. Callers
    /// (constructor, deserialization) must have validated
    /// `epsilon` already: a non-finite or out-of-range value would turn
    /// the `f64 → usize` cast into a garbage capacity.
    fn capacity_for(epsilon: f64) -> usize {
        debug_assert!(
            epsilon.is_finite() && epsilon > 0.0 && epsilon <= 1.0,
            "capacity_for needs a validated epsilon, got {epsilon}"
        );
        (((2 * LEVEL_BUDGET) as f64 / epsilon).ceil() as usize).max(8)
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

    /// Tracked worst-case rank error of every reported estimate.
    pub fn tracked_err(&self) -> u64 {
        self.err
    }

    /// Per-level item capacity `k`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of compactor levels currently allocated.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total items retained across all levels.
    pub fn num_retained(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Approximate words of memory used (1 word per retained item plus
    /// per-level and header overhead) — the unit the paper's memory
    /// budgets are expressed in.
    pub fn memory_words(&self) -> usize {
        self.num_retained() + 2 * self.levels.len() + 8
    }

    #[inline]
    fn touch_minmax(&mut self, lo: T, hi: T) {
        self.min = Some(match self.min {
            Some(m) => m.min(lo),
            None => lo,
        });
        self.max = Some(match self.max {
            Some(m) => m.max(hi),
            None => hi,
        });
    }

    /// Insert one element: a `Vec::push` plus an amortized-O(1) share of
    /// the compaction cascade.
    #[inline]
    pub fn insert(&mut self, v: T) {
        self.touch_minmax(v, v);
        self.n += 1;
        self.levels[0].push(v);
        if self.levels[0].len() >= self.cap {
            self.compact_pending();
        }
    }

    /// Insert a whole batch at once. Order is irrelevant — level 0 is an
    /// unsorted buffer and sorting happens lazily inside the compaction,
    /// through the radix kernel — so this is a single `extend` plus the
    /// (error-cheap) cascade: compacting a level costs one `2^h` error
    /// unit regardless of how many items it holds, which makes large
    /// batches *cheaper* in error than the same items compacted k at a
    /// time.
    pub fn insert_batch(&mut self, batch: &[T]) {
        if batch.is_empty() {
            return;
        }
        let (mut lo, mut hi) = (batch[0], batch[0]);
        for &v in &batch[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        self.touch_minmax(lo, hi);
        self.n += batch.len() as u64;
        self.levels[0].extend_from_slice(batch);
        if self.levels[0].len() >= self.cap {
            self.compact_pending();
        }
    }

    /// [`KllSketch::insert_batch`] for a batch the caller has already
    /// sorted (nondecreasing). The min/max scan collapses to the batch
    /// endpoints; the buffer append is identical.
    pub fn insert_sorted_batch(&mut self, batch: &[T]) {
        if batch.is_empty() {
            return;
        }
        debug_assert!(batch.windows(2).all(|w| w[0] <= w[1]), "batch not sorted");
        self.touch_minmax(batch[0], batch[batch.len() - 1]);
        self.n += batch.len() as u64;
        self.levels[0].extend_from_slice(batch);
        if self.levels[0].len() >= self.cap {
            self.compact_pending();
        }
    }

    /// Insert one element carrying integer weight `w` — semantically `w`
    /// repeated [`KllSketch::insert`] calls, at O(log w) cost and with
    /// **zero** added error: the binary decomposition of `w` is placed
    /// directly onto the weight-`2^h` compactor levels (bit `h` of `w`
    /// becomes one item at level `h`), so the mass invariant
    /// `Σ len·2^h = n` holds exactly and no compaction is charged for
    /// the placement itself. `w = 0` is a no-op.
    pub fn insert_weighted(&mut self, v: T, w: u64) {
        if w == 0 {
            return;
        }
        self.touch_minmax(v, v);
        self.n += w;
        self.place_weight(v, w);
        self.compact_pending();
    }

    /// Place the binary decomposition of `w` onto the ladder without
    /// touching `n`/min/max or compacting — shared by the scalar and
    /// batch weighted paths.
    fn place_weight(&mut self, v: T, w: u64) {
        let mut bits = w;
        while bits != 0 {
            let h = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            while self.levels.len() <= h {
                self.levels.push(Vec::new());
            }
            if h == 0 {
                self.levels[0].push(v);
            } else {
                // Levels ≥ 1 stay sorted at all times.
                let at = self.levels[h].partition_point(|&x| x <= v);
                self.levels[h].insert(at, v);
            }
        }
    }

    /// Insert a batch of `(value, weight)` pairs in one pass: per-level
    /// contributions are gathered first, level 0 takes a single append,
    /// higher levels take one radix sort plus one linear merge each
    /// (the same [`crate::radix::sort_radixable`] kernel the unweighted
    /// batch path compacts through), and the compaction cascade runs
    /// once at the end. Order of pairs is irrelevant; zero weights are
    /// skipped. Exact, like [`KllSketch::insert_weighted`].
    pub fn insert_weighted_batch(&mut self, batch: &[(T, u64)]) {
        let mut total = 0u64;
        let mut extremes: Option<(T, T)> = None;
        let mut per_level: Vec<Vec<T>> = Vec::new();
        for &(v, w) in batch {
            if w == 0 {
                continue;
            }
            total += w;
            extremes = Some(match extremes {
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
                None => (v, v),
            });
            let mut bits = w;
            while bits != 0 {
                let h = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                while per_level.len() <= h {
                    per_level.push(Vec::new());
                }
                per_level[h].push(v);
            }
        }
        let Some((lo, hi)) = extremes else { return };
        self.touch_minmax(lo, hi);
        self.n += total;
        while self.levels.len() < per_level.len() {
            self.levels.push(Vec::new());
        }
        for (h, mut items) in per_level.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            if h == 0 {
                self.levels[0].append(&mut items);
            } else {
                sort_radixable(&mut items);
                self.levels[h] = merge_sorted(&self.levels[h], &items);
            }
        }
        self.compact_pending();
    }

    /// Run the compaction cascade: compact every level at or over
    /// capacity, bottom-up (a compaction can push the next level over).
    fn compact_pending(&mut self) {
        let mut h = 0;
        while h < self.levels.len() {
            if self.levels[h].len() >= self.cap {
                self.compact_level(h);
            }
            h += 1;
        }
    }

    /// Compact level `h`: sort (level 0 only — higher levels are kept
    /// sorted), promote alternate items to level `h + 1` at double
    /// weight, leave at most one leftover item behind, and charge `2^h`
    /// to the tracked error.
    fn compact_level(&mut self, h: usize) {
        if h == 0 {
            sort_radixable(&mut self.levels[0]);
        }
        if self.levels.len() == h + 1 {
            self.levels.push(Vec::new());
        }
        let keep_odd = (self.parity >> h) & 1 == 1;
        self.parity ^= 1u64 << h;
        let (lower, upper) = self.levels.split_at_mut(h + 1);
        let lvl = &mut lower[h];
        let dst = &mut upper[0];
        let even = lvl.len() & !1;
        let survivors: Vec<T> = lvl[..even]
            .iter()
            .skip(usize::from(keep_odd))
            .step_by(2)
            .copied()
            .collect();
        let leftover = (lvl.len() > even).then(|| lvl[even]);
        lvl.clear();
        if let Some(x) = leftover {
            lvl.push(x);
        }
        *dst = merge_sorted(dst, &survivors);
        self.err += 1u64 << h;
    }

    /// Compile the ladder into a [`KllCumulative`]: one sorted pass over
    /// every retained item, its `(value, weight)` pairs sorted by value
    /// through the radix kernel with the weight as payload
    /// ([`crate::radix::sort_radixable_by_key`]). Extract loops that probe hundreds of targets
    /// (the stream-summary builder upstream) should call
    /// [`KllSketch::rank_queries`], which compiles once and answers every
    /// ascending target with one forward cursor, rather than calling
    /// [`KllSketch::rank_query`] (which compiles per call) in a loop.
    pub fn cumulative(&self) -> KllCumulative<T> {
        let mut pairs: Vec<(T, u64)> = Vec::with_capacity(self.num_retained());
        for (h, lvl) in self.levels.iter().enumerate() {
            let w = 1u64 << h;
            pairs.extend(lvl.iter().map(|&v| (v, w)));
        }
        sort_radixable_by_key(&mut pairs, |a| a.0);
        // Collapse duplicates; store the cumulative weight through the
        // last retained occurrence of each value. The weight before its
        // first occurrence is the previous item's.
        let mut items: Vec<(T, u64)> = Vec::with_capacity(pairs.len());
        let mut cum = 0u64;
        for (v, w) in pairs {
            cum += w;
            match items.last_mut() {
                Some(last) if last.0 == v => last.1 = cum,
                _ => items.push((v, cum)),
            }
        }
        debug_assert_eq!(cum, self.n, "weighted mass must equal n");
        KllCumulative {
            items,
            err: self.err,
            n: self.n,
            min: self.min,
            max: self.max,
        }
    }

    /// Answer a query for 1-based rank `r` (clamped into `[1, n]`);
    /// `None` iff the sketch is empty. Compiles the ladder per call —
    /// use [`KllSketch::cumulative`] for query loops.
    pub fn rank_query(&self, r: u64) -> Option<RankEstimate<T>> {
        self.cumulative().rank_query(r)
    }

    /// [`KllSketch::rank_query`] for every target of `ascending`: one
    /// [`KllSketch::cumulative`] compile, then one forward cursor (see
    /// [`KllCumulative::rank_queries`], which panics on targets that are
    /// not nondecreasing).
    pub fn rank_queries(&self, ascending: &[u64]) -> Vec<RankEstimate<T>> {
        self.cumulative().rank_queries(ascending)
    }

    /// Rigorous bounds `[lo, hi]` on the rank of an arbitrary value `v`
    /// (the count of stream elements ≤ `v`), which need not have been
    /// inserted. Compiles the ladder per call — use
    /// [`KllSketch::cumulative`] for query loops.
    pub fn rank_bounds_of(&self, v: T) -> (u64, u64) {
        self.cumulative().rank_bounds_of(v)
    }

    /// The φ-quantile (`phi ∈ (0, 1]`): the sketch's answer for rank
    /// `⌈φn⌉`. `None` iff empty.
    pub fn quantile(&self, phi: f64) -> Option<T> {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        let r = (phi * self.n as f64).ceil() as u64;
        self.rank_query(r).map(|e| e.value)
    }

    /// Clear the sketch back to empty, retaining allocations where
    /// possible.
    pub fn reset(&mut self) {
        self.levels.truncate(1);
        self.levels[0].clear();
        self.parity = 0;
        self.n = 0;
        self.min = None;
        self.max = None;
        self.err = 0;
    }

    /// Structural self-check: weighted mass equals `n`, levels ≥ 1
    /// sorted, min/max consistent with emptiness, level count within the
    /// representable parity mask.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.levels.len() > 64 {
            return Err(format!(
                "{} levels exceed the parity mask",
                self.levels.len()
            ));
        }
        let mut mass = 0u64;
        for (h, lvl) in self.levels.iter().enumerate() {
            if h >= 1 && !lvl.windows(2).all(|w| w[0] <= w[1]) {
                return Err(format!("level {h} is not sorted"));
            }
            mass = mass
                .checked_add((lvl.len() as u64) << h)
                .ok_or_else(|| "weighted mass overflows u64".to_string())?;
        }
        if mass != self.n {
            return Err(format!("weighted mass {mass} != n {}", self.n));
        }
        if (self.n == 0) != (self.min.is_none() && self.max.is_none()) {
            return Err("min/max tracking inconsistent with n".into());
        }
        if let (Some(lo), Some(hi)) = (self.min, self.max) {
            if lo > hi {
                return Err("min > max".into());
            }
            // Every retained item was inserted, so none lies outside the
            // tracked extremes (extracts anchor them as SS's ends).
            if self.levels.iter().flatten().any(|&v| v < lo || v > hi) {
                return Err("retained item outside [min, max]".into());
            }
        }
        Ok(())
    }

    /// The raw compactor levels (level `h` = weight `2^h`), for
    /// serialization. Level 0 may be unsorted.
    pub fn raw_levels(&self) -> &[Vec<T>] {
        &self.levels
    }

    /// The compaction parity bitmask, for serialization.
    pub fn parity_mask(&self) -> u64 {
        self.parity
    }

    /// Rebuild a sketch from serialized parts, validating structural
    /// invariants (per [`KllSketch::check_invariants`]). The capacity is
    /// re-derived from `epsilon`, so it is not part of the encoding; the
    /// parity mask carries the whole compaction schedule, so a sketch
    /// rebuilt mid-stream resumes it exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        epsilon: f64,
        n: u64,
        min: Option<T>,
        max: Option<T>,
        err: u64,
        parity: u64,
        levels: Vec<Vec<T>>,
    ) -> Result<Self, String> {
        if !(epsilon.is_finite() && epsilon > 0.0 && epsilon <= 1.0) {
            return Err(format!("epsilon {epsilon} out of (0, 1]"));
        }
        let mut sk = KllSketch {
            epsilon,
            levels,
            parity,
            n,
            min,
            max,
            err,
            cap: Self::capacity_for(epsilon),
        };
        if sk.levels.is_empty() {
            sk.levels.push(Vec::new());
        }
        sk.check_invariants()?;
        Ok(sk)
    }
}

/// A compiled, query-ready view of a [`KllSketch`]: distinct retained
/// values with cumulative weighted counts, plus the tracked error. Built
/// by [`KllSketch::cumulative`]; answers any number of ascending rank
/// targets in one forward pass without re-flattening the ladder.
#[derive(Clone, Debug)]
pub struct KllCumulative<T> {
    /// `(value, cumulative weight through the last retained occurrence)`,
    /// strictly increasing in both components. An item's weight *before*
    /// its value is the previous item's cumulative weight (0 for the
    /// first).
    items: Vec<(T, u64)>,
    err: u64,
    n: u64,
    min: Option<T>,
    max: Option<T>,
}

impl<T: Copy + Ord> KllCumulative<T> {
    /// Number of elements the source sketch had seen.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True iff the source sketch was empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Answer a query for 1-based rank `r` (clamped into `[1, n]`);
    /// `None` iff empty. The answer is the first distinct value whose
    /// cumulative weight `c` reaches `r` (the largest if none does). Its
    /// retained copies span the estimated ranks `c_before + 1 ..= c`,
    /// `c_before` the weight below the value; the returned interval is
    /// the one of those ranks nearest `r`, widened by the tracked error.
    /// So it brackets the true rank of the copy nearest `r`, as a GK
    /// tuple brackets the rank of its own copy. The one-target case of
    /// [`KllCumulative::rank_queries`].
    pub fn rank_query(&self, r: u64) -> Option<RankEstimate<T>> {
        self.sweep(std::iter::once(r)).next()
    }

    /// [`KllCumulative::rank_query`] for every target of `ascending`,
    /// with one forward cursor over the compiled items: O(items +
    /// targets). Empty iff the source sketch was.
    ///
    /// # Panics
    ///
    /// If `ascending` is not nondecreasing.
    pub fn rank_queries(&self, ascending: &[u64]) -> Vec<RankEstimate<T>> {
        self.sweep(ascending.iter().copied()).collect()
    }

    /// The cursor behind [`KllCumulative::rank_queries`]: `idx` only
    /// moves right, stopping at the first item with cumulative weight
    /// `≥ r` or at the last item. An empty view answers nothing.
    fn sweep<'a>(
        &'a self,
        targets: impl Iterator<Item = u64> + 'a,
    ) -> impl Iterator<Item = RankEstimate<T>> + 'a {
        let (mut idx, mut last) = (0usize, 0u64);
        targets.take_while(|_| self.n > 0).map(move |r| {
            assert!(
                r >= last,
                "rank targets must be ascending: {r} after {last}"
            );
            last = r;
            let r = r.clamp(1, self.n);
            while idx + 1 < self.items.len() && self.items[idx].1 < r {
                idx += 1;
            }
            let (value, c) = self.items[idx];
            let c_before = idx.checked_sub(1).map_or(0, |i| self.items[i].1);
            // Every true count moves at most `err` from its estimate, so
            // some copy of `value` has a true rank within `err` of
            // `nearest`. The `.max(1)` clamp is sound because this point
            // is unreachable for an empty sketch (`n == 0` answers
            // nothing): the reported value was retained, hence inserted,
            // hence its true rank is at least 1.
            let nearest = r.clamp(c_before + 1, c);
            RankEstimate {
                value,
                rmin: nearest.saturating_sub(self.err).max(1),
                rmax: (nearest + self.err).min(self.n),
            }
        })
    }

    /// Rigorous bounds `[lo, hi]` on the rank of an arbitrary value `v`
    /// (the count of stream elements ≤ `v`). Exact at and beyond the
    /// tracked extremes.
    pub fn rank_bounds_of(&self, v: T) -> (u64, u64) {
        let (min, max) = match (self.min, self.max) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => return (0, 0),
        };
        if v < min {
            return (0, 0);
        }
        if v >= max {
            return (self.n, self.n);
        }
        let idx = self.items.partition_point(|&(x, _)| x <= v);
        let w = if idx == 0 { 0 } else { self.items[idx - 1].1 };
        // Reachable only with `min ≤ v < max` (the early returns above
        // cover empty sketches and out-of-range probes), so the true
        // rank of `v` counts at least the tracked minimum: `.max(1)` can
        // never claim mass that is not there. The `lo.min(hi)` guard is
        // belt-and-braces for `w = 0 ∧ err = 0`, which is itself
        // unreachable here: `err = 0` means every item (including
        // `min ≤ v`) is retained, forcing `w ≥ 1`.
        let lo = w.saturating_sub(self.err).max(1);
        let hi = (w + self.err).min(self.n);
        (lo.min(hi), hi)
    }
}

/// Linear merge of two sorted slices into a freshly allocated sorted
/// `Vec`.
fn merge_sorted<T: Copy + Ord>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactQuantiles;

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        }
    }

    /// The rank of the copy of `v` nearest target `r`: `r` clamped to
    /// the ranks `[count(<v) + 1, count(≤v)]` that `v`'s copies occupy.
    /// This is the rank a KLL interval brackets.
    fn nearest_copy_rank(exact: &mut ExactQuantiles<u64>, v: u64, r: u64) -> u64 {
        let below = if v == 0 { 0 } else { exact.rank_of(v - 1) };
        r.clamp(below + 1, exact.rank_of(v))
    }

    /// Every reported interval must contain the nearest copy's rank, the
    /// answer's last copy must lie within ε·n of the target, and the
    /// tracked error must stay within the a-priori ε·n/2 analysis.
    #[test]
    fn tracked_bounds_are_sound_and_within_epsilon() {
        for &eps in &[0.1, 0.02, 0.005] {
            let mut rng = lcg(7);
            let n = 40_000usize;
            let mut kll = KllSketch::new(eps);
            let mut exact = ExactQuantiles::new();
            for _ in 0..n {
                let v = rng() % 1_000_003;
                kll.insert(v);
                exact.insert(v);
            }
            kll.check_invariants().unwrap();
            assert!(
                kll.tracked_err() as f64 <= eps * n as f64 / 2.0 + 1.0,
                "tracked err {} exceeds eps*n/2 for eps {eps}",
                kll.tracked_err()
            );
            let cum = kll.cumulative();
            for i in 0..=100u64 {
                let r = (i * n as u64 / 100).max(1);
                let est = cum.rank_query(r).unwrap();
                let true_rank = exact.rank_of(est.value);
                let nearest = nearest_copy_rank(&mut exact, est.value, r);
                assert!(
                    est.rmin <= nearest && nearest <= est.rmax,
                    "rank {nearest} of {} outside [{}, {}]",
                    est.value,
                    est.rmin,
                    est.rmax
                );
                assert!(
                    true_rank.abs_diff(r) as f64 <= eps * n as f64 + 1.0,
                    "rank error {} exceeds eps*n at target {r}",
                    true_rank.abs_diff(r)
                );
            }
        }
    }

    #[test]
    fn rank_bounds_of_brackets_arbitrary_values() {
        let mut rng = lcg(11);
        let mut kll = KllSketch::new(0.02);
        let mut exact = ExactQuantiles::new();
        for _ in 0..20_000 {
            let v = rng() % 10_000;
            kll.insert(v);
            exact.insert(v);
        }
        let cum = kll.cumulative();
        for probe in (0..10_500).step_by(37) {
            let (lo, hi) = cum.rank_bounds_of(probe);
            let truth = exact.rank_of(probe);
            assert!(
                lo <= truth && truth <= hi,
                "rank {truth} of probe {probe} outside [{lo}, {hi}]"
            );
        }
    }

    /// Below one capacity's worth of items nothing compacts: answers are
    /// exact.
    #[test]
    fn no_compaction_means_exact() {
        let mut kll = KllSketch::new(0.1);
        assert!(kll.capacity() > 200);
        for v in (0..200u64).rev() {
            kll.insert(v);
        }
        assert_eq!(kll.tracked_err(), 0);
        for r in 1..=200u64 {
            let est = kll.rank_query(r).unwrap();
            assert_eq!(est.value, r - 1);
            assert_eq!((est.rmin, est.rmax), (r, r));
        }
    }

    #[test]
    fn batch_scalar_equivalence_in_bounds() {
        let mut rng = lcg(5);
        let data: Vec<u64> = (0..30_000).map(|_| rng() % 65_536).collect();
        let mut scalar = KllSketch::new(0.01);
        let mut batched = KllSketch::new(0.01);
        for &v in &data {
            scalar.insert(v);
        }
        for chunk in data.chunks(997) {
            batched.insert_batch(chunk);
        }
        assert_eq!(scalar.len(), batched.len());
        assert_eq!(scalar.min(), batched.min());
        assert_eq!(scalar.max(), batched.max());
        // Batching compacts less often, so its tracked error can only be
        // at most the scalar path's.
        assert!(batched.tracked_err() <= scalar.tracked_err());
        let mut exact = ExactQuantiles::from_data(data);
        for i in 1..=20u64 {
            let r = i * 30_000 / 20;
            for sk in [&scalar, &batched] {
                let est = sk.rank_query(r).unwrap();
                let nearest = nearest_copy_rank(&mut exact, est.value, r);
                assert!(est.rmin <= nearest && nearest <= est.rmax);
            }
        }
    }

    #[test]
    fn reset_and_raw_parts_roundtrip() {
        let mut kll = KllSketch::new(0.05);
        for v in 0..10_000u64 {
            kll.insert(v * 3);
        }
        let rebuilt = KllSketch::from_raw_parts(
            kll.epsilon(),
            kll.len(),
            kll.min(),
            kll.max(),
            kll.tracked_err(),
            kll.parity_mask(),
            kll.raw_levels().to_vec(),
        )
        .unwrap();
        for i in 1..=10u64 {
            assert_eq!(
                kll.quantile(i as f64 / 10.0),
                rebuilt.quantile(i as f64 / 10.0)
            );
        }
        kll.reset();
        assert!(kll.is_empty());
        assert_eq!(kll.tracked_err(), 0);
        assert_eq!(kll.min(), None);
        kll.insert(42);
        assert_eq!(kll.quantile(1.0), Some(42));
    }

    /// Weighted insertion is exact: it must agree with w-fold replicated
    /// insertion on n/min/max, add no tracked error of its own, and every
    /// reported interval must bracket the rank, in the replicated
    /// multiset, of the answer's copy nearest the target.
    #[test]
    fn weighted_insert_matches_replicated() {
        let mut rng = lcg(41);
        let pairs: Vec<(u64, u64)> = (0..4_000)
            .map(|_| {
                (
                    rng() % 50_000,
                    rng() % 37 + rng().is_multiple_of(11) as u64 * 900,
                )
            })
            .collect();
        let total: u64 = pairs.iter().map(|p| p.1).sum();
        let mut weighted = KllSketch::new(0.01);
        let mut batched = KllSketch::new(0.01);
        let mut exact = ExactQuantiles::new();
        for &(v, w) in &pairs {
            weighted.insert_weighted(v, w);
            for _ in 0..w {
                exact.insert(v);
            }
        }
        for chunk in pairs.chunks(397) {
            batched.insert_weighted_batch(chunk);
        }
        for sk in [&weighted, &batched] {
            sk.check_invariants().unwrap();
            assert_eq!(sk.len(), total);
            let cum = sk.cumulative();
            for i in 1..=40u64 {
                let r = i * total / 40;
                let est = cum.rank_query(r).unwrap();
                let truth = exact.rank_of(est.value);
                let nearest = nearest_copy_rank(&mut exact, est.value, r);
                assert!(
                    est.rmin <= nearest && nearest <= est.rmax,
                    "weighted rank {nearest} outside [{}, {}]",
                    est.rmin,
                    est.rmax
                );
                assert!(
                    truth.abs_diff(r) as f64 <= 0.01 * total as f64 + 1.0,
                    "weighted rank error exceeds eps*W at target {r}"
                );
            }
        }
    }

    /// A weight-w insert below the compaction threshold is exact and
    /// charges nothing: the decomposition lands directly on the ladder.
    #[test]
    fn weighted_insert_is_exact_without_compaction() {
        let mut kll = KllSketch::new(0.1);
        kll.insert_weighted(5, 13); // 0b1101 → levels 0, 2, 3
        kll.insert_weighted(9, 2); // → level 1
        kll.insert_weighted(1, 0); // no-op
        kll.check_invariants().unwrap();
        assert_eq!(kll.len(), 15);
        assert_eq!(kll.tracked_err(), 0);
        assert_eq!(kll.min(), Some(5));
        assert_eq!(kll.max(), Some(9));
        assert_eq!(kll.rank_bounds_of(5), (13, 13));
        assert_eq!(kll.rank_bounds_of(9), (15, 15));
    }

    /// Rebuilding a sketch mid-stream from its raw parts (parity mask
    /// included) resumes the exact compaction schedule: the rebuilt
    /// sketch and the original finish byte-identical.
    #[test]
    fn restore_resumes_mid_sequence() {
        let mut rng = lcg(3);
        let data: Vec<u64> = (0..40_000).map(|_| rng() % 65_536).collect();
        let (head, tail) = data.split_at(17_500);
        let mut live = KllSketch::new(0.02);
        for &v in head {
            live.insert(v);
        }
        assert_ne!(
            live.parity_mask(),
            0,
            "the head must leave parity mid-cycle"
        );
        let mut restored = KllSketch::from_raw_parts(
            live.epsilon(),
            live.len(),
            live.min(),
            live.max(),
            live.tracked_err(),
            live.parity_mask(),
            live.raw_levels().to_vec(),
        )
        .unwrap();
        for &v in tail {
            live.insert(v);
            restored.insert(v);
        }
        assert_eq!(live.raw_levels(), restored.raw_levels());
        assert_eq!(live.parity_mask(), restored.parity_mask());
        assert_eq!(live.tracked_err(), restored.tracked_err());
    }

    /// Satellite audit: exhaustive bound-soundness at n ∈ {0, 1, 2}. An
    /// empty sketch must never claim mass (`max(1)` is gated behind the
    /// emptiness/out-of-range returns), and with one or two items every
    /// probe interval must bracket the exact rank.
    #[test]
    fn tiny_sketch_bounds_are_exact() {
        // n = 0: no rank exists, no probe has mass.
        let empty = KllSketch::<u64>::new(0.05);
        assert_eq!(empty.rank_query(1), None);
        for probe in [0u64, 1, u64::MAX] {
            assert_eq!(empty.rank_bounds_of(probe), (0, 0));
        }
        // n = 1.
        let mut one = KllSketch::new(0.05);
        one.insert(10u64);
        let est = one.rank_query(1).unwrap();
        assert_eq!((est.value, est.rmin, est.rmax), (10, 1, 1));
        assert_eq!(one.rank_bounds_of(9), (0, 0));
        assert_eq!(one.rank_bounds_of(10), (1, 1));
        assert_eq!(one.rank_bounds_of(11), (1, 1));
        // n = 2, distinct and duplicate.
        let mut two = KllSketch::new(0.05);
        two.insert(10u64);
        two.insert(20);
        assert_eq!(two.rank_bounds_of(9), (0, 0));
        assert_eq!(two.rank_bounds_of(10), (1, 1));
        assert_eq!(two.rank_bounds_of(15), (1, 1));
        assert_eq!(two.rank_bounds_of(20), (2, 2));
        assert_eq!(two.rank_bounds_of(21), (2, 2));
        let mut dup = KllSketch::new(0.05);
        dup.insert_weighted(10u64, 2);
        assert_eq!(dup.rank_bounds_of(9), (0, 0));
        assert_eq!(dup.rank_bounds_of(10), (2, 2));
    }

    #[test]
    fn from_raw_parts_rejects_garbage() {
        // Mass mismatch.
        assert!(
            KllSketch::<u64>::from_raw_parts(0.1, 5, Some(1), Some(9), 0, 0, vec![vec![1, 9]])
                .is_err()
        );
        // Unsorted upper level.
        assert!(KllSketch::<u64>::from_raw_parts(
            0.1,
            5,
            Some(1),
            Some(9),
            0,
            0,
            vec![vec![9], vec![5, 1]]
        )
        .is_err());
        // min/max on an empty sketch.
        assert!(
            KllSketch::<u64>::from_raw_parts(0.1, 0, Some(1), Some(9), 0, 0, vec![vec![]]).is_err()
        );
        // A retained item outside the tracked [min, max].
        let err =
            KllSketch::<u64>::from_raw_parts(0.1, 2, Some(1), Some(9), 0, 0, vec![vec![0, 9]])
                .unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }
}
