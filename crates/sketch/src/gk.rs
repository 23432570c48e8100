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
    since_compress: u64,
    compress_period: u64,
    /// Spare buffer for the fused merge+compress pass (double-buffered
    /// with `tuples` so steady-state batch ingestion never allocates).
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
            since_compress: 0,
            compress_period: Self::period_for(epsilon),
            scratch: Vec::new(),
        }
    }

    /// COMPRESS cadence `max(1, ⌊1/2ε⌋)`. Like the KLL capacity formula,
    /// this `f64 → u64` cast turns garbage for a non-finite or
    /// out-of-range `epsilon`; callers must have validated it.
    fn period_for(epsilon: f64) -> u64 {
        debug_assert!(
            epsilon.is_finite() && epsilon > 0.0 && epsilon <= 1.0,
            "period_for needs a validated epsilon, got {epsilon}"
        );
        ((1.0 / (2.0 * epsilon)).floor() as u64).max(1)
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

    /// Insert one element.
    ///
    /// Routed through [`GkSketch::insert_sorted_batch`] with a batch of
    /// one, so the scalar and batched paths share a single merge
    /// implementation. Cost is unchanged from a direct insert: one binary
    /// search plus one tail move.
    #[inline]
    pub fn insert(&mut self, v: T) {
        self.insert_sorted_batch(&[v]);
    }

    /// Insert a whole batch at once: sorts `batch` in place (via the LSD
    /// radix path of [`crate::radix::sort_radixable`] for radix-keyed
    /// types, comparison sort otherwise), then merges it into the tuple
    /// list in **one linear pass** with a single amortized COMPRESS —
    /// replacing `batch.len()` binary-search-plus-`Vec`-shift insertions.
    /// The resulting sketch satisfies the same GK invariant
    /// (`g + Δ ≤ ⌊2εn⌋`) and therefore the same `εn` rank guarantee as
    /// element-wise insertion.
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
    /// sorted (nondecreasing). Skips the sort.
    ///
    /// Two merge strategies behind one API, picked by whether this batch
    /// crosses the COMPRESS cadence:
    /// * below the cadence (every scalar insert except each
    ///   `compress_period`-th lands here) — an in-place back-to-front
    ///   merge moving each existing tuple at most once, which for a batch
    ///   of one degenerates to exactly the classic binary-search-plus-
    ///   tail-move insert;
    /// * at or above it — a fused forward merge+COMPRESS writing each
    ///   surviving tuple once into a double-buffered scratch vector, so a
    ///   large batch never materializes `s + b` tuples nor takes a
    ///   separate compression sweep.
    pub fn insert_sorted_batch(&mut self, batch: &[T]) {
        let b = batch.len();
        if b == 0 {
            return;
        }
        debug_assert!(batch.windows(2).all(|w| w[0] <= w[1]), "batch not sorted");
        self.min = Some(match self.min {
            Some(m) => m.min(batch[0]),
            None => batch[0],
        });
        self.max = Some(match self.max {
            Some(m) => m.max(batch[b - 1]),
            None => batch[b - 1],
        });
        self.n += b as u64;
        self.since_compress += b as u64;
        if self.since_compress >= self.compress_period {
            self.merge_fused(batch);
            self.since_compress = 0;
        } else {
            self.back_merge(batch);
        }
    }

    /// In-place back-to-front merge of a sorted `batch` into the tuple
    /// list, no compression. Each existing tuple moves at most once
    /// (whole runs via `copy_within`).
    fn back_merge(&mut self, batch: &[T]) {
        let b = batch.len();
        // Δ for interior inserts, computed at the final n. For elements of
        // the batch this can only over-state the uncertainty relative to
        // element-wise insertion (cap is nondecreasing in n), so the
        // tracked intervals stay sound and the invariant holds at n.
        let delta_mid = self.cap().saturating_sub(1);

        let s = self.tuples.len();
        let filler = Tuple {
            v: batch[0],
            g: 0,
            delta: 0,
        };
        self.tuples.resize(s + b, filler);
        // Old tuples occupy [0, src_end); the space [src_end, dst_end) is
        // free; merged output grows down from s + b.
        let mut src_end = s;
        let mut dst_end = s + b;
        for j in (0..b).rev() {
            let v = batch[j];
            // Old tuples with value >= v go after v (the scalar path's
            // `partition_point(|t| t.v < v)` position), moved as one run.
            let cut = self.tuples[..src_end].partition_point(|t| t.v < v);
            if cut < src_end {
                let run = src_end - cut;
                self.tuples.copy_within(cut..src_end, dst_end - run);
                dst_end -= run;
                src_end = cut;
            }
            dst_end -= 1;
            // Δ = 0 is sound in exactly two spots (mirroring the scalar
            // path): the global minimum position, and elements greater
            // than every existing value — behind those sit only batch
            // elements with g = 1 and Δ = 0, so their rank is exact.
            let delta = if dst_end == 0 || src_end == s {
                0
            } else {
                delta_mid
            };
            self.tuples[dst_end] = Tuple { v, g: 1, delta };
        }
        debug_assert_eq!(src_end, dst_end);
    }

    /// Backward merge of a sorted `batch` with COMPRESS fused into the
    /// same pass. Streaming largest-to-smallest lets absorption work
    /// exactly like [`GkSketch::compress`]'s right-to-left sweep — the
    /// accumulator `right` soaks up whole runs of left tuples while the
    /// invariant and band rule allow — so the output lands already
    /// compressed in the scratch buffer: one write per surviving tuple
    /// plus a reverse of the (compressed, small) result.
    fn merge_fused(&mut self, batch: &[T]) {
        let b = batch.len();
        let cap = self.cap();
        let delta_mid = cap.saturating_sub(1);
        let s = self.tuples.len();
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        out.reserve(s + b);
        {
            let old = &self.tuples;
            let mut i = s as isize - 1;
            let mut j = b as isize - 1;
            // `right` = the accumulating right neighbour, as in compress().
            let mut right: Option<Tuple<T>> = None;
            while i >= 0 || j >= 0 {
                // Ties emit the old tuple first (we run back to front), so
                // after the final reverse a new element sits before equal
                // old tuples — the scalar path's insertion position.
                let take_old = i >= 0 && (j < 0 || old[i as usize].v >= batch[j as usize]);
                let t = if take_old {
                    let t = old[i as usize];
                    i -= 1;
                    t
                } else {
                    let v = batch[j as usize];
                    j -= 1;
                    // Δ = 0 is sound in two spots (mirroring the scalar
                    // path): elements greater than every existing value —
                    // no old tuple emitted yet, so behind them sit only
                    // batch elements whose g/Δ keep ranks exact — and the
                    // global minimum position.
                    let delta = if i == s as isize - 1 || (i < 0 && j < 0) {
                        0
                    } else {
                        delta_mid
                    };
                    Tuple { v, g: 1, delta }
                };
                // The left-most (minimum) tuple must never be merged away.
                let is_min = i < 0 && j < 0;
                match right.take() {
                    None => right = Some(t),
                    Some(mut r) => {
                        let absorb = !is_min
                            && t.g + r.g + r.delta < cap
                            && Self::band(t.delta, cap) <= Self::band(r.delta, cap);
                        if absorb {
                            r.g += t.g;
                            right = Some(r);
                        } else {
                            out.push(r);
                            right = Some(t);
                        }
                    }
                }
            }
            if let Some(r) = right {
                out.push(r);
            }
        }
        out.reverse();
        self.scratch = std::mem::replace(&mut self.tuples, out);
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

    /// COMPRESS: one right-to-left pass merging tuples into their right
    /// neighbours where the invariant and band condition allow.
    pub fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let cap = self.cap();
        let old = std::mem::take(&mut self.tuples);
        let len = old.len();
        let mut out: Vec<Tuple<T>> = Vec::with_capacity(len);
        let mut iter = old.into_iter().rev();
        // The right-most (maximum) tuple is always kept.
        let mut right = iter.next().expect("len >= 3");
        for (k, t) in iter.enumerate() {
            // The left-most (minimum) tuple is yielded last (k == len - 2)
            // and must never be merged away.
            let is_min_tuple = k == len - 2;
            let mergeable = !is_min_tuple
                && t.g + right.g + right.delta < cap
                && Self::band(t.delta, cap) <= Self::band(right.delta, cap);
            if mergeable {
                right.g += t.g;
            } else {
                out.push(right);
                right = t;
            }
        }
        out.push(right);
        out.reverse();
        self.tuples = out;
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

    /// Insert one element carrying integer weight `w` — semantically `w`
    /// repeated [`GkSketch::insert`] calls. See
    /// [`GkSketch::insert_weighted_sorted_batch`] for the mechanism and
    /// error accounting. `w = 0` is a no-op.
    pub fn insert_weighted(&mut self, v: T, w: u64) {
        self.insert_weighted_sorted_batch(&[(v, w)]);
    }

    /// Insert a batch of `(value, weight)` pairs, unsorted: sorts by
    /// value (comparison sort — the weight payload cannot ride along an
    /// order-preserving `u64` radix key, so the pair is not
    /// [`crate::radix::RadixKey`] material) and folds through
    /// [`GkSketch::insert_weighted_sorted_batch`].
    pub fn insert_weighted_batch(&mut self, batch: &mut [(T, u64)]) {
        batch.sort_unstable_by_key(|a| a.0);
        self.insert_weighted_sorted_batch(batch);
    }

    /// Weighted batch insert for pairs the caller has already sorted by
    /// value (nondecreasing; zero weights are skipped).
    ///
    /// GK has no weight-carrying levels to exploit, so this is *bound
    /// surgery*: the batch, being fully known, is an **exact** summary
    /// of itself, and folding it in widens nothing that was not already
    /// wide. Existing tuples are shifted by the exact batch mass at or
    /// below their value (zero added width — folding in a second *sketch*
    /// instead would have to assume its gap mass can sit anywhere, paying
    /// `Δ`-width per fold, compounded over repeated batches). Batch values
    /// enter with the sketch's own local rank width, split into
    /// invariant-sized (`⌊2εn⌋`) same-value chunks so heavy weights cannot
    /// wreck rank-query navigation. All
    /// tracked intervals on the result remain within the pre-existing
    /// `ε·n_old ≤ ε·W` widths, for total weight `W = n_old + Σw`; cost
    /// is `O(tuples + pairs + Σ⌈w/⌊2εW⌋⌉)`, independent of the weight
    /// magnitudes. A COMPRESS pass then re-bounds the tuple count.
    pub fn insert_weighted_sorted_batch(&mut self, batch: &[(T, u64)]) {
        debug_assert!(
            batch.windows(2).all(|w| w[0].0 <= w[1].0),
            "batch not sorted by value"
        );
        let total: u64 = batch.iter().map(|p| p.1).sum();
        if total == 0 {
            return;
        }
        let n_new = self.n + total;
        let cap_new = (2.0 * self.epsilon * n_new as f64).floor() as u64;
        // Self tuples as absolute-rank intervals.
        let mut rmin = 0u64;
        let a: Vec<(T, u64, u64)> = self
            .tuples
            .iter()
            .map(|t| {
                rmin += t.g;
                (t.v, rmin, rmin + t.delta)
            })
            .collect();
        // The batch as (value, cumulative weight through value).
        let mut b: Vec<(T, u64)> = Vec::with_capacity(batch.len());
        let mut cum = 0u64;
        for &(v, w) in batch {
            if w == 0 {
                continue;
            }
            cum += w;
            match b.last_mut() {
                Some(last) if last.0 == v => last.1 = cum,
                _ => b.push((v, cum)),
            }
        }
        // Cumulative batch weight ≤ v — exact, because the batch has no
        // uncertainty. `j` only advances: probes arrive in value order.
        fn batch_le<T: Copy + Ord>(b: &[(T, u64)], j: &mut usize, v: T) -> u64 {
            while *j < b.len() && b[*j].0 <= v {
                *j += 1;
            }
            if *j == 0 {
                0
            } else {
                b[*j - 1].1
            }
        }
        // Self's rank bounds at v, from the absolute intervals.
        fn self_bounds<T: Copy + Ord>(
            a: &[(T, u64, u64)],
            j: &mut usize,
            v: T,
            n: u64,
        ) -> (u64, u64) {
            while *j < a.len() && a[*j].0 <= v {
                *j += 1;
            }
            let lo = if *j == 0 { 0 } else { a[*j - 1].1 };
            let hi = if *j < a.len() { a[*j].2 - 1 } else { n };
            (lo, hi)
        }
        let mut entries: Vec<(T, u64, u64)> = Vec::with_capacity(a.len() + b.len());
        let (mut ja, mut jb) = (0usize, 0usize);
        for &(v, lo, hi) in &a {
            let m = batch_le(&b, &mut jb, v);
            entries.push((v, lo + m, hi + m));
        }
        let mut prev_cum = 0u64;
        for &(v, c) in &b {
            let (slo, shi) = self_bounds(&a, &mut ja, v, self.n);
            // Chunk the weight so each resulting tuple satisfies the
            // invariant at the new n: its Δ is the sketch's local width
            // `shi − slo`, so a chunk `g ≤ cap − Δ` keeps `g + Δ ≤ cap`.
            // Existing tuples keep their own (g, Δ) — the batch mass
            // between any two of them telescopes through these chunk
            // entries — so the whole result obeys `g + Δ ≤ ⌊2εn⌋` and
            // rank queries retain their full εn (= ε·W) navigation
            // guarantee. The i-th chunk's last copy has batch-rank `ci`,
            // hence union rank in [ci + slo, ci + shi].
            let chunk = cap_new.saturating_sub(shi - slo).max(1);
            let mut ci = prev_cum;
            while ci < c {
                ci = (ci + chunk).min(c);
                entries.push((v, ci + slo, ci + shi));
            }
            prev_cum = c;
        }
        entries.sort_by_key(|x| (x.0, x.1));
        // The union minimum has rank exactly 1; pin it so the leading
        // tuple keeps Δ = 0 even when both sides share the minimum.
        if entries.first().map(|e| e.1 > 1).unwrap_or(false) {
            let union_min = match self.min {
                Some(x) => x.min(b[0].0),
                None => b[0].0,
            };
            entries.insert(0, (union_min, 1, 1));
        }
        let mut tuples: Vec<Tuple<T>> = Vec::with_capacity(entries.len());
        let mut prev_lo = 0u64;
        for (v, lo, hi) in entries {
            debug_assert!(lo >= prev_lo, "merged lower bounds must be monotone");
            let hi = hi.max(lo);
            if prev_lo == lo && hi == lo {
                // Zero-width duplicate of the previous bound: redundant.
                if tuples.last().map(|t: &Tuple<T>| t.v == v).unwrap_or(false) {
                    continue;
                }
            }
            tuples.push(Tuple {
                v,
                g: lo.saturating_sub(prev_lo),
                delta: hi - lo,
            });
            prev_lo = lo;
        }
        debug_assert_eq!(prev_lo, n_new, "weighted rank mass must equal n + W");
        self.tuples = tuples;
        self.n = n_new;
        let (blo, bhi) = (b[0].0, b[b.len() - 1].0);
        self.min = Some(self.min.map_or(blo, |x| x.min(blo)));
        self.max = Some(self.max.map_or(bhi, |x| x.max(bhi)));
        self.since_compress = 0;
        self.compress();
    }

    /// The summary tuples as `(value, g, Δ)` triples, for serialization.
    pub fn tuple_parts(&self) -> impl Iterator<Item = (T, u64, u64)> + '_ {
        self.tuples.iter().map(|t| (t.v, t.g, t.delta))
    }

    /// Rebuild a sketch from serialized parts, validating ordering, rank
    /// mass and min/max consistency. The capacity invariant is *not*
    /// enforced: it bounds space, not soundness — every query reads only
    /// the tracked `g` and `Δ`, which stay sound above the cap.
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
            since_compress: 0,
            compress_period: Self::period_for(epsilon),
            scratch: Vec::new(),
        })
    }

    /// Drop all state, keeping the error parameter (paper Algorithm 4,
    /// `StreamReset`).
    pub fn reset(&mut self) {
        self.tuples.clear();
        self.n = 0;
        self.min = None;
        self.max = None;
        self.since_compress = 0;
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

    /// Weighted insertion must bound ranks of the replicated multiset
    /// within ε·W, for both the scalar and the batch entry points.
    #[test]
    fn weighted_insert_matches_replicated() {
        let mut rng = StdRng::seed_from_u64(17);
        let pairs: Vec<(u64, u64)> = (0..3_000)
            .map(|_| (rng.gen_range(0..50_000), rng.gen_range(0..40)))
            .collect();
        let total: u64 = pairs.iter().map(|p| p.1).sum();
        let mut data = Vec::with_capacity(total as usize);
        for &(v, w) in &pairs {
            for _ in 0..w {
                data.push(v);
            }
        }
        let mut scalar = GkSketch::new(0.02);
        for &(v, w) in &pairs {
            scalar.insert_weighted(v, w);
        }
        let mut batched = GkSketch::new(0.02);
        let mut shuffled = pairs.clone();
        shuffled.shuffle(&mut rng);
        for chunk in shuffled.chunks_mut(491) {
            batched.insert_weighted_batch(chunk);
        }
        for gk in [&scalar, &batched] {
            // The weighted fold preserves the full GK invariant, not just
            // interval soundness.
            gk.check_invariants().unwrap();
            assert_eq!(gk.len(), total);
            assert_eq!(gk.min(), data.iter().min().copied());
            assert_eq!(gk.max(), data.iter().max().copied());
            for i in 1..=20u64 {
                let r = i * total / 20;
                let est = gk.rank_query(r).unwrap();
                // Occurrence-rank semantics: the weighted copies of
                // est.value span [count(<v) + 1, count(≤v)] and the
                // tracked interval brackets one of them.
                let truth_hi = exact_rank(&data, est.value);
                let truth_lo = data.iter().filter(|&&x| x < est.value).count() as u64 + 1;
                assert!(
                    est.rmin <= truth_hi && truth_lo <= est.rmax,
                    "interval [{}, {}] misses occurrence ranks [{truth_lo}, {truth_hi}]",
                    est.rmin,
                    est.rmax
                );
                let dist = if r < truth_lo {
                    truth_lo - r
                } else {
                    r.saturating_sub(truth_hi)
                };
                assert!(
                    dist as f64 <= 0.02 * total as f64 + 1.0,
                    "weighted rank_query off by {dist} at target {r}"
                );
            }
            for probe in (0..50_000).step_by(1_733) {
                let (lo, hi) = gk.rank_bounds_of(probe);
                let truth = exact_rank(&data, probe);
                assert!(
                    lo <= truth && truth <= hi,
                    "probe {probe}: truth {truth} not in [{lo},{hi}]"
                );
                assert!(
                    (hi - lo) as f64 <= 2.0 * 0.02 * total as f64 + 2.0,
                    "weighted bounds wider than 2·ε·W: [{lo},{hi}]"
                );
            }
            // Weighted folding must not blow up the summary size.
            assert!(gk.num_tuples() < 4_000, "{} tuples", gk.num_tuples());
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
