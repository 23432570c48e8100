//! Stream processing and the stream summary `SS` (paper §2.2, Algorithm 4).
//!
//! The live stream `R` is absorbed by an [`hsq_sketch::AnySketch`] —
//! Greenwald–Khanna (the paper-faithful default) or the KLL compactor
//! ladder, selected by [`hsq_sketch::SketchKind`] via
//! `HsqConfig::builder().sketch(..)`. When a query arrives,
//! `StreamSummary` extracts `β₂` elements at approximate ranks `i·ε₂·m`
//! (`StreamSummary` in Algorithm 4). The targets ascend,
//! so the sketch answers them all in one forward sweep — O(|tuples| + β₂)
//! on GK, one compile plus one pass on KLL — with answers identical to
//! `β₂` separate rank queries. Lemma 1 needs the
//! one-sided guarantee `i·ε₂·m ≤ rank(SS[i]) ≤ (i+1)·ε₂·m`; the paper
//! obtains it by quoting Theorem 1's one-sided form. Textbook GK is
//! two-sided (`±εn`), so we run the sketch at `ε₂/2` and, in addition,
//! record the sketch's *tracked* rank interval `[rmin, rmax]` for every
//! extracted element — bounds that hold unconditionally and are what the
//! combined-summary computation consumes (see `crate::bounds`). The KLL
//! backend reports tracked intervals of the same shape (the rank of the
//! answer's copy nearest the target, widened by its exact
//! compaction-error counter), so everything downstream of the extract —
//! seeding, bisection, union bounds — is backend-agnostic.
//!
//! ## Stream/history boundary under retention
//!
//! The live stream is always the *current* time step: its age is zero by
//! definition, so no [`crate::retention::RetentionPolicy`] can expire
//! stream mass — expiry acts purely on archived partitions, at step
//! boundaries, before the stream's contents are ever archived. The
//! sketch therefore needs no expired-mass accounting: `m` always counts
//! exactly the live elements, every one of which is inside any retention
//! window, and `StreamReset` (end of step) empties the sketch at the
//! same boundary where its data enters the warehouse as the newest —
//! hence last-to-expire — partition. Queries over the retained union
//! keep Theorem 2's `ε·m` error with `m` the live stream size.

use hsq_sketch::{AnySketch, SketchKind};
use hsq_storage::Item;

/// One extracted stream-summary element with rigorous rank bounds in `R`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsEntry<T> {
    /// The element value (an element that appeared in the stream).
    pub value: T,
    /// Lower bound on the rank in `R` of one copy of `value` (with
    /// duplicates, the copy the sketch answered for).
    pub rmin: u64,
    /// Upper bound on the rank in `R` of that same copy.
    pub rmax: u64,
}

/// The extracted stream summary `SS`: `β₂` entries in nondecreasing value
/// order, plus the stream size `m`.
#[derive(Clone, Debug)]
pub struct StreamSummary<T> {
    entries: Vec<SsEntry<T>>,
    m: u64,
}

impl<T> Default for StreamSummary<T> {
    fn default() -> Self {
        StreamSummary {
            entries: Vec::new(),
            m: 0,
        }
    }
}

impl<T: Item> StreamSummary<T> {
    /// Entries in value order.
    pub fn entries(&self) -> &[SsEntry<T>] {
        &self.entries
    }

    /// Stream size `m` at extraction time.
    pub fn stream_len(&self) -> u64 {
        self.m
    }

    /// Largest entry with `value <= v`.
    pub fn last_le(&self, v: T) -> Option<&SsEntry<T>> {
        let idx = self.entries.partition_point(|e| e.value <= v);
        idx.checked_sub(1).map(|i| &self.entries[i])
    }

    /// Smallest entry with `value > v`.
    pub fn first_gt(&self, v: T) -> Option<&SsEntry<T>> {
        let idx = self.entries.partition_point(|e| e.value <= v);
        self.entries.get(idx)
    }

    /// Rigorous bounds on `rank(z, R)` from the summary alone:
    /// `lo` from the last entry ≤ z, `hi` from the first entry > z.
    pub fn rank_bounds(&self, z: T) -> (u64, u64) {
        let lo = self.last_le(z).map(|e| e.rmin).unwrap_or(0);
        let hi = self
            .first_gt(z)
            .map(|e| e.rmax.saturating_sub(1))
            .unwrap_or(self.m);
        (lo.min(hi), hi.max(lo))
    }
}

#[cfg(test)]
impl<T: Item> StreamSummary<T> {
    /// Test-only constructor for replaying fixtures (e.g. Figure 3's
    /// idealized stream summary).
    pub(crate) fn from_parts_for_tests(entries: Vec<SsEntry<T>>, m: u64) -> Self {
        StreamSummary { entries, m }
    }
}

/// Live processor for the current time step's stream (Algorithm 4),
/// generic at runtime over the [`AnySketch`] backend.
#[derive(Clone, Debug)]
pub struct StreamProcessor<T: Copy + Ord> {
    sketch: AnySketch<T>,
    /// The *configured* backend: [`StreamProcessor::reset`] re-creates
    /// the sketch at this kind, so a recovered foreign-backend sketch
    /// switches over at the next step boundary.
    kind: SketchKind,
    epsilon2: f64,
    beta2: usize,
}

impl<T: Item> StreamProcessor<T> {
    /// `StreamInit(ε₂, β₂)` on the paper-faithful GK backend: the
    /// internal sketch runs at `ε₂/2` (see module docs).
    pub fn new(epsilon2: f64, beta2: usize) -> Self {
        Self::with_kind(SketchKind::Gk, epsilon2, beta2)
    }

    /// `StreamInit(ε₂, β₂)` on an explicitly chosen sketch backend.
    pub fn with_kind(kind: SketchKind, epsilon2: f64, beta2: usize) -> Self {
        StreamProcessor {
            sketch: AnySketch::new(kind, epsilon2 / 2.0),
            kind,
            epsilon2,
            beta2,
        }
    }

    /// Adopt a recovered sketch (whose kind may differ from the
    /// configured `kind` when a manifest written under one backend is
    /// recovered under another — it is used as-is until the next
    /// [`StreamProcessor::reset`]).
    pub(crate) fn from_recovered(
        sketch: AnySketch<T>,
        kind: SketchKind,
        epsilon2: f64,
        beta2: usize,
    ) -> Self {
        StreamProcessor {
            sketch,
            kind,
            epsilon2,
            beta2,
        }
    }

    /// `StreamUpdate(e)`: absorb one streaming element.
    #[inline]
    pub fn update(&mut self, e: T) {
        self.sketch.insert(e);
    }

    /// Absorb a whole batch at once: one linear merge into the sketch
    /// (GK — sorts `batch` in place via the radix kernel) or a buffer
    /// append (KLL) instead of `batch.len()` scalar updates. Same `ε₂`
    /// guarantee; see [`AnySketch::insert_batch`].
    #[inline]
    pub fn ingest_batch(&mut self, batch: &mut [T]) {
        self.sketch.insert_batch(batch);
    }

    /// [`StreamProcessor::ingest_batch`] for an already-sorted batch.
    #[inline]
    pub fn ingest_sorted_batch(&mut self, batch: &[T]) {
        self.sketch.insert_sorted_batch(batch);
    }

    /// `StreamUpdate(e)` with multiplicity: absorb `w` copies of one
    /// element at once (sampled/pre-aggregated telemetry). Counts `w`
    /// toward the stream size `m`; every downstream guarantee is `ε·m`
    /// with `m` the *summed weight*. KLL decomposes the weight onto its
    /// levels in O(log w); GK merges it as one run.
    #[inline]
    pub fn update_weighted(&mut self, e: T, w: u64) {
        self.sketch.insert_weighted(e, w);
    }

    /// Absorb a whole weighted batch at once (may reorder `batch`).
    #[inline]
    pub fn ingest_weighted_batch(&mut self, batch: &mut [(T, u64)]) {
        self.sketch.insert_weighted_batch(batch);
    }

    /// [`StreamProcessor::ingest_weighted_batch`] for pairs already
    /// sorted by value.
    #[inline]
    pub fn ingest_weighted_sorted_batch(&mut self, batch: &[(T, u64)]) {
        self.sketch.insert_weighted_sorted_batch(batch);
    }

    /// Elements in the current stream (`m`).
    pub fn len(&self) -> u64 {
        self.sketch.len()
    }

    /// True iff the current stream is empty.
    pub fn is_empty(&self) -> bool {
        self.sketch.is_empty()
    }

    /// Direct access to the underlying sketch, for serialization and
    /// inspection. Queries do not read it: Algorithm 8's ρ₂ comes from
    /// the extracted summary's [`StreamSummary::rank_bounds`].
    pub fn sketch(&self) -> &AnySketch<T> {
        &self.sketch
    }

    /// The backend this processor is configured to run on. The live
    /// sketch may transiently differ right after a cross-backend
    /// recovery; see [`StreamProcessor::reset`].
    pub fn kind(&self) -> SketchKind {
        self.kind
    }

    /// Words of memory used by the sketch (Lemma 9's budget unit).
    pub fn memory_words(&self) -> usize {
        self.sketch.memory_words()
    }

    /// `StreamSummary()`: extract `SS` (Algorithm 4 lines 6–11).
    ///
    /// The `β₂` rank targets `⌊i·ε₂·m⌋` ascend, so the sketch answers
    /// all of them in one forward pass
    /// ([`AnySketch::rank_queries`]): GK walks its tuple
    /// list once, O(|tuples| + β₂); KLL compiles its ladder into a
    /// cumulative view once and walks that.
    pub fn summary(&self) -> StreamSummary<T> {
        let m = self.sketch.len();
        if m == 0 {
            return StreamSummary {
                entries: Vec::new(),
                m: 0,
            };
        }
        let min = self.sketch.min().expect("non-empty");
        let max = self.sketch.max().expect("non-empty");
        let mut targets = Vec::with_capacity(self.beta2);
        for i in 1..self.beta2 as u64 {
            let target = ((i as f64) * self.epsilon2 * m as f64).floor() as u64;
            let target = target.clamp(1, m);
            targets.push(target);
            if target == m {
                break;
            }
        }
        let mut entries = Vec::with_capacity(targets.len() + 2);
        // SS[0]: the smallest element in the stream so far (tracked
        // exactly by the sketch). rmin = 1; rank(min) may exceed 1 with
        // duplicates, but 1 is the sound lower bound and `rmax = 1` makes
        // the "elements strictly below min" upper contribution zero.
        entries.push(SsEntry {
            value: min,
            rmin: 1,
            rmax: 1,
        });
        entries.extend(
            self.sketch
                .rank_queries(&targets)
                .into_iter()
                .map(|est| SsEntry {
                    value: est.value,
                    rmin: est.rmin,
                    rmax: est.rmax,
                }),
        );
        // Ensure the maximum is represented (rank m exactly: the sketch
        // tracks max, and rank(max) = m by definition).
        if entries.last().map(|e| e.value) != Some(max) {
            entries.push(SsEntry {
                value: max,
                rmin: m,
                rmax: m,
            });
        }
        // Ascending targets move the answer position right through value
        // order, so values and `rmin` ascend together; both backends keep
        // their answers inside `[min, max]` with `rmin ≥ 1`.
        debug_assert!(
            entries
                .windows(2)
                .all(|w| (w[0].value, w[0].rmin) <= (w[1].value, w[1].rmin)),
            "extract not in (value, rmin) order"
        );
        // Monotonize the bounds: rank() is monotone in value, so a later
        // entry's rank is at least any earlier rmin (forward running max)
        // and an earlier entry's rank is at most any later rmax (backward
        // running min). This only tightens, and it makes the per-source
        // bound contributions monotone — which the combined summary's
        // binary searches rely on.
        let mut run = 0u64;
        for e in &mut entries {
            run = run.max(e.rmin);
            e.rmin = run;
        }
        let mut run = u64::MAX;
        for e in entries.iter_mut().rev() {
            run = run.min(e.rmax);
            e.rmax = run;
        }
        StreamSummary { entries, m }
    }

    /// `StreamReset()`: called at the end of each time step once the batch
    /// has been archived (Algorithm 4 lines 12–13). If the live sketch's
    /// backend differs from the configured one (possible only right after
    /// a cross-backend recovery), the step boundary is where the
    /// configured backend takes over.
    pub fn reset(&mut self) {
        if self.sketch.kind() == self.kind {
            self.sketch.reset();
        } else {
            self.sketch = AnySketch::new(self.kind, self.epsilon2 / 2.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn processor_with(data: &[u64], eps2: f64) -> StreamProcessor<u64> {
        let beta2 = (1.0 / eps2 + 1.0).ceil() as usize;
        let mut sp = StreamProcessor::new(eps2, beta2);
        for &v in data {
            sp.update(v);
        }
        sp
    }

    #[test]
    fn empty_stream_summary() {
        let sp = StreamProcessor::<u64>::new(0.125, 9);
        let ss = sp.summary();
        assert!(ss.entries().is_empty());
        assert_eq!(ss.stream_len(), 0);
        assert_eq!(ss.rank_bounds(42), (0, 0));
    }

    #[test]
    fn summary_has_min_and_max() {
        let data: Vec<u64> = (401..=600).collect();
        let sp = processor_with(&data, 0.125);
        let ss = sp.summary();
        assert_eq!(ss.entries().first().unwrap().value, 401);
        assert_eq!(ss.entries().last().unwrap().value, 600);
        assert_eq!(ss.stream_len(), 200);
    }

    #[test]
    fn lemma1_style_spacing() {
        // Entries' true ranks must be spaced ~eps2*m apart, each within
        // the tracked bounds.
        let m = 10_000u64;
        let data: Vec<u64> = (0..m).collect(); // value v has rank v+1
        let eps2 = 0.05;
        let sp = processor_with(&data, eps2);
        let ss = sp.summary();
        for e in ss.entries() {
            let true_rank = e.value + 1;
            assert!(
                e.rmin <= true_rank && true_rank <= e.rmax,
                "tracked bounds [{},{}] miss true rank {true_rank}",
                e.rmin,
                e.rmax
            );
        }
        // Consecutive entries no farther apart than ~2*eps2*m in rank.
        let cap = (2.0 * eps2 * m as f64).ceil() as u64 + 2;
        for w in ss.entries().windows(2) {
            let gap = (w[1].value + 1) - (w[0].value + 1);
            assert!(gap <= cap, "rank gap {gap} exceeds {cap}");
        }
    }

    #[test]
    fn rank_bounds_sound_on_random_values() {
        let data: Vec<u64> = (0..5000).map(|i| (i * 7919) % 100_000).collect();
        let sp = processor_with(&data, 0.1);
        let ss = sp.summary();
        for probe in (0..100_000).step_by(9973) {
            let truth = data.iter().filter(|&&x| x <= probe).count() as u64;
            let (lo, hi) = ss.rank_bounds(probe);
            assert!(
                lo <= truth && truth <= hi,
                "probe {probe}: {truth} outside [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn reset_then_reuse() {
        let mut sp = processor_with(&[1, 2, 3], 0.25);
        assert_eq!(sp.len(), 3);
        sp.reset();
        assert!(sp.is_empty());
        sp.update(9);
        let ss = sp.summary();
        assert_eq!(ss.entries().first().unwrap().value, 9);
        assert_eq!(ss.stream_len(), 1);
    }

    #[test]
    fn summary_size_near_beta2() {
        let data: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(2654435761))
            .collect();
        let sp = processor_with(&data, 1.0 / 64.0);
        let ss = sp.summary();
        // beta2 = 65 targets (+ possibly max): small and bounded.
        assert!(ss.entries().len() <= 67, "got {}", ss.entries().len());
        assert!(ss.entries().len() >= 60);
    }

    fn kll_processor_with(data: &[u64], eps2: f64) -> StreamProcessor<u64> {
        let beta2 = (1.0 / eps2 + 1.0).ceil() as usize;
        let mut sp = StreamProcessor::with_kind(SketchKind::Kll, eps2, beta2);
        for &v in data {
            sp.update(v);
        }
        sp
    }

    /// The KLL-backed extract satisfies the same tracked-bound and
    /// spacing contract as the GK-backed one.
    #[test]
    fn kll_summary_bounds_and_extremes() {
        let data: Vec<u64> = (0..20_000).map(|i| (i * 7919) % 100_000).collect();
        let sp = kll_processor_with(&data, 0.05);
        assert_eq!(sp.kind(), SketchKind::Kll);
        assert_eq!(sp.sketch().kind(), SketchKind::Kll);
        let ss = sp.summary();
        assert_eq!(ss.stream_len(), 20_000);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(ss.entries().first().unwrap().value, sorted[0]);
        assert_eq!(ss.entries().last().unwrap().value, *sorted.last().unwrap());
        for e in ss.entries() {
            let truth = sorted.partition_point(|&x| x <= e.value) as u64;
            assert!(
                e.rmin <= truth && truth <= e.rmax,
                "entry {} tracked [{},{}] misses rank {truth}",
                e.value,
                e.rmin,
                e.rmax
            );
        }
        for probe in (0..100_000).step_by(9973) {
            let truth = sorted.partition_point(|&x| x <= probe) as u64;
            let (lo, hi) = ss.rank_bounds(probe);
            assert!(lo <= truth && truth <= hi);
        }
    }

    /// Reset is where the configured backend takes over after a
    /// cross-backend recovery.
    #[test]
    fn reset_switches_to_configured_kind() {
        let mut sp = StreamProcessor::<u64>::from_recovered(
            hsq_sketch::AnySketch::new(SketchKind::Gk, 0.05),
            SketchKind::Kll,
            0.1,
            11,
        );
        sp.update(7);
        assert_eq!(sp.sketch().kind(), SketchKind::Gk);
        assert_eq!(sp.kind(), SketchKind::Kll);
        sp.reset();
        assert_eq!(sp.sketch().kind(), SketchKind::Kll);
        sp.update(9);
        assert_eq!(sp.len(), 1);
    }

    /// Weighted ingest must summarize exactly like the replicated stream:
    /// `m` counts summed weight and every extracted bound brackets the
    /// replicated truth, on both backends and all three ingest paths.
    #[test]
    fn weighted_updates_match_replication() {
        let eps2 = 0.1f64;
        let beta2 = (1.0 / eps2 + 1.0).ceil() as usize;
        let pairs: Vec<(u64, u64)> = (0..4000u64)
            .map(|i| {
                let v = i.wrapping_mul(2654435761) % 30_000;
                (v, (v % 7) + 1)
            })
            .collect();
        let total: u64 = pairs.iter().map(|&(_, w)| w).sum();
        let mut replicated: Vec<u64> = Vec::new();
        for &(v, w) in &pairs {
            replicated.extend(std::iter::repeat_n(v, w as usize));
        }
        replicated.sort_unstable();
        for kind in [SketchKind::Gk, SketchKind::Kll] {
            let mut sp = StreamProcessor::with_kind(kind, eps2, beta2);
            let third = pairs.len() / 3;
            for &(v, w) in &pairs[..third] {
                sp.update_weighted(v, w);
            }
            let mut mid: Vec<(u64, u64)> = pairs[third..2 * third].to_vec();
            sp.ingest_weighted_batch(&mut mid);
            let mut tail: Vec<(u64, u64)> = pairs[2 * third..].to_vec();
            tail.sort_unstable_by_key(|a| a.0);
            sp.ingest_weighted_sorted_batch(&tail);
            assert_eq!(sp.len(), total, "{kind:?}: m must be summed weight");
            let ss = sp.summary();
            assert_eq!(ss.stream_len(), total);
            for probe in (0..30_000u64).step_by(911) {
                let truth = replicated.partition_point(|&x| x <= probe) as u64;
                let (lo, hi) = ss.rank_bounds(probe);
                assert!(
                    lo <= truth && truth <= hi,
                    "{kind:?}: probe {probe} truth {truth} outside [{lo},{hi}]"
                );
            }
        }
    }
}
