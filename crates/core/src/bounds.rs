//! The combined summary `TS` and its rank bounds `Lᵢ`, `Uᵢ` (paper §2.3.1,
//! Lemma 2).
//!
//! `TS` is the sorted union of every partition summary in `HS` and the
//! stream summary `SS`. For each `TS[i]`, the algorithm derives a lower
//! bound `Lᵢ` and an upper bound `Uᵢ` on `rank(TS[i], T)` by summing
//! per-source contributions.
//!
//! Two variants are implemented:
//!
//! * [`CombinedSummary::build`] — the production path. Every summary entry
//!   carries *rigorous* rank bounds within its own source (exact positions
//!   for partitions, GK-tracked intervals for the stream), so the per-source
//!   contribution of "the largest entry ≤ x" / "the first entry > x" is
//!   provably correct with no distributional assumption. These bounds are
//!   at least as tight as the paper's formulas.
//! * [`paper_li_ui`] — the paper's closed-form formulas in terms of the
//!   counts `α_S`, `α_P` (with a switch for the figure's idealized variant
//!   versus Lemma 2's safe variant), used to replay the Figure 3 worked
//!   example verbatim and as documentation of the original arithmetic.
//!
//! ## One sort for all sources
//!
//! A source's term in `Lᵢ` (its `lo` at the last entry `≤ x`) and in `Uᵢ`
//! (its `hi − 1` at the first entry `> x`, or its total past the end) is a
//! step function of `x` that moves only at that source's own entries. So
//! each entry becomes one event `(value, ΔL, ΔU)` carrying the step it
//! makes, the δ events are sorted by value once, and a single prefix-sum
//! sweep yields every `Lᵢ` and `Uᵢ`: O(δ log δ) however many sources
//! there are, instead of one pass over `TS` per source. Equal values share
//! one sum — the one reached after their whole group — because "entries
//! `≤ x`" counts every entry of value `x`, whichever source it came from.
//! Since the sums are order-independent and ties are grouped, the result
//! does not depend on the order of the sources or of the sort.

use hsq_storage::Item;

use crate::stream::StreamSummary;
use crate::summary::PartitionSummary;

/// A per-source view used to assemble `TS`: entries sorted by value, each
/// with bounds on its rank *within that source*, plus the source's size.
///
/// Semantics required of each entry `(value, lo, hi)`:
/// * at least `lo` elements of the source are `≤ value`;
/// * at most `hi − 1` elements of the source are `< value`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceView<T> {
    entries: Vec<(T, u64, u64)>,
    total: u64,
}

impl<T: Item> SourceView<T> {
    /// View of a historical partition summary: positions are exact.
    pub fn from_partition(s: &PartitionSummary<T>) -> Self {
        SourceView {
            entries: s
                .entries()
                .iter()
                .map(|e| (e.value, e.rank, e.rank))
                .collect(),
            total: s.partition_len(),
        }
    }

    /// View of the stream summary: GK-tracked intervals.
    pub fn from_stream(s: &StreamSummary<T>) -> Self {
        SourceView {
            entries: s
                .entries()
                .iter()
                .map(|e| (e.value, e.rmin, e.rmax))
                .collect(),
            total: s.stream_len(),
        }
    }

    /// Raw construction (tests and benches): the entries must already
    /// meet [`SourceView::try_from_raw`]'s ordering conditions, which debug
    /// builds assert.
    pub fn from_raw(entries: Vec<(T, u64, u64)>, total: u64) -> Self {
        debug_assert!(entries
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1 && w[0].2 <= w[1].2));
        SourceView { entries, total }
    }

    /// Validating construction for views that crossed a trust boundary
    /// (e.g. decoded from a wire frame). Entries must be sorted by value,
    /// have `lo ≤ hi ≤ total`, and have `lo` and `hi` each nondecreasing
    /// along the entries. Every local view already has that shape
    /// (partition ranks are exact; the stream view is monotonized), and
    /// the combined summary relies on it: monotone per-source terms are
    /// what make `Lᵢ`/`Uᵢ` monotone in `i`, which the bracket seeding's
    /// binary searches and the bisection's soundness argument assume.
    /// Anything else is rejected rather than silently producing unsound
    /// rank bounds.
    pub fn try_from_raw(entries: Vec<(T, u64, u64)>, total: u64) -> Result<Self, &'static str> {
        if !entries.windows(2).all(|w| w[0].0 <= w[1].0) {
            return Err("source view entries not sorted by value");
        }
        for &(_, lo, hi) in &entries {
            if lo > hi {
                return Err("source view entry has lo > hi");
            }
            if hi > total {
                return Err("source view entry bound exceeds source total");
            }
        }
        if !entries
            .windows(2)
            .all(|w| w[0].1 <= w[1].1 && w[0].2 <= w[1].2)
        {
            return Err("source view entry bounds not monotone");
        }
        Ok(SourceView { entries, total })
    }

    /// The `(value, lo, hi)` entries, sorted by value — the serializable
    /// form a serving node ships to a coordinator.
    pub fn entries(&self) -> &[(T, u64, u64)] {
        &self.entries
    }

    /// The source's total size (summed weight).
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// `TS` with per-element rank bounds over `T = H ∪ R`.
#[derive(Clone, Debug)]
pub struct CombinedSummary<T> {
    /// `(TS[i], Lᵢ, Uᵢ)`, sorted by value.
    entries: Vec<(T, u64, u64)>,
    total: u64,
}

impl<T: Item> CombinedSummary<T> {
    /// Assemble `TS` from all sources and compute `Lᵢ`/`Uᵢ` in one sort and
    /// one prefix-sum sweep (module docs, "One sort for all sources").
    ///
    /// Source `s` contributes `lo` of its last entry `≤ x` to `L` (0 before
    /// its first entry) and `cap` of its first entry `> x` to `U`, where
    /// `cap(j) = hi_j − 1` (saturating) and `cap` past the last entry is the
    /// source's total. Entry `j` therefore steps `L` by `lo_j − lo_{j−1}`
    /// and `U` by `cap(j+1) − cap(j)` at its value, and `U` starts from
    /// `Σ cap(0)`. Time is O(δ log δ); the event buffer becomes `TS` in
    /// place, so the build allocates one δ-length buffer.
    pub fn build(sources: &[SourceView<T>]) -> Self {
        let total = sources.iter().map(|s| s.total).sum();
        let delta = sources.iter().map(|s| s.entries.len()).sum();
        let mut entries: Vec<(T, u64, u64)> = Vec::with_capacity(delta);
        let mut upper = 0u64;
        for src in sources {
            let cap = |j: usize| {
                src.entries
                    .get(j)
                    .map_or(src.total, |e| e.2.saturating_sub(1))
            };
            upper = upper.wrapping_add(cap(0));
            let mut prev_lo = 0;
            for (j, &(value, lo, _)) in src.entries.iter().enumerate() {
                // Wrapping steps sum to the exact terms whatever the view's
                // shape; validated views only ever step up.
                let dl = lo.wrapping_sub(prev_lo);
                let du = cap(j + 1).wrapping_sub(cap(j));
                entries.push((value, dl, du));
                prev_lo = lo;
            }
        }
        entries.sort_unstable_by_key(|e| e.0);

        let mut lower = 0u64;
        for run in entries.chunk_by_mut(|a, b| a.0 == b.0) {
            for e in run.iter() {
                lower = lower.wrapping_add(e.1);
                upper = upper.wrapping_add(e.2);
            }
            for e in run {
                (e.1, e.2) = (lower, upper);
            }
        }
        CombinedSummary { entries, total }
    }

    /// Number of entries `δ`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no summaries contributed entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total data size `N`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `TS[i]`.
    pub fn value(&self, i: usize) -> T {
        self.entries[i].0
    }

    /// `Lᵢ`: lower bound on `rank(TS[i], T)`.
    pub fn lower(&self, i: usize) -> u64 {
        self.entries[i].1
    }

    /// `Uᵢ`: upper bound on `rank(TS[i], T)`.
    pub fn upper(&self, i: usize) -> u64 {
        self.entries[i].2
    }

    /// Algorithm 5 (`QuantilesQuickResponse`): the element at the smallest
    /// `j` with `Lⱼ ≥ r`, else the last element. `None` iff empty.
    pub fn quick_response(&self, r: u64) -> Option<T> {
        let last = self.entries.len().checked_sub(1)?;
        let j = self.entries.partition_point(|e| e.1 < r);
        Some(self.entries[j.min(last)].0)
    }

    /// Algorithm 7 (`GenerateFilters`): `u` = `TS[x]` for the largest `x`
    /// with `Uₓ ≤ r` (or `None` if no such x — the caller widens to the
    /// universe minimum); `v` = `TS[y]` for the smallest `y` with `Lᵧ ≥ r`
    /// (or `None` — widen to the universe maximum).
    pub fn generate_filters(&self, r: u64) -> (Option<T>, Option<T>) {
        // U is nondecreasing (sums of nondecreasing per-source terms), as
        // is L.
        let x = self.entries.partition_point(|e| e.2 <= r); // first index with U > r
        let u = x.checked_sub(1).map(|i| self.entries[i].0);
        let y = self.entries.partition_point(|e| e.1 < r);
        let v = self.entries.get(y).map(|e| e.0);
        (u, v)
    }

    /// The tightest bisection bracket `[u, v]` this summary supports for
    /// rank `r`: Algorithm 7's filters where they exist, otherwise the
    /// summary's extreme values instead of the universe bounds.
    ///
    /// The fallbacks are sound because every source summary carries its
    /// exact minimum and maximum, so `TS[0]` / `TS[δ−1]` are the union's
    /// true extremes: the Definition-1 answer (the smallest value whose
    /// rank reaches `r ≥ 1`) is never below the minimum — values below it
    /// have rank 0 — and never above the maximum, whose rank is `N ≥ r`.
    /// Seeding from them instead of `T::MIN`/`T::MAX` saves the bisection
    /// steps that would otherwise be spent walking in from the empty
    /// parts of the universe.
    pub fn seed_bracket(&self, r: u64) -> (T, T) {
        let (u, v) = self.generate_filters(r);
        (
            u.or_else(|| self.entries.first().map(|e| e.0))
                .unwrap_or(T::MIN),
            v.or_else(|| self.entries.last().map(|e| e.0))
                .unwrap_or(T::MAX),
        )
    }
}

/// Which flavour of the paper's `Uᵢ` formula to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaperBoundVariant {
    /// Figure 3's arithmetic: stream entries treated as sitting at exact
    /// ranks `i·ε₂·m`, so `Uᵢ`'s stream term is `ε₂·m·α_S`.
    FigureIdealized,
    /// Lemma 2's safe form: `Uᵢ`'s stream term is `ε₂·m·(α_S + 1)`,
    /// accounting for Lemma 1's one-sided slack.
    LemmaSafe,
}

/// The paper's closed-form `Lᵢ`/`Uᵢ` (§2.3.1) for a single value `x`:
///
/// `L = ε₂·m·b·(α_S − 1) + Σ_{P : α_P > 0} ε₁·m_P·(α_P − 1)`
/// `U = ε₂·m·b·(α_S + s) + Σ_{P : α_P > 0} ε₁·m_P·α_P`
///
/// where `α_S`/`α_P` count summary entries ≤ `x`, `b = [α_S > 0]`, and
/// `s` is 0 or 1 per [`PaperBoundVariant`].
#[allow(clippy::too_many_arguments)]
pub fn paper_li_ui<T: Item>(
    x: T,
    partitions: &[&PartitionSummary<T>],
    stream: &StreamSummary<T>,
    epsilon1: f64,
    epsilon2: f64,
    variant: PaperBoundVariant,
) -> (u64, u64) {
    let m = stream.stream_len() as f64;
    let alpha_s = stream.entries().iter().filter(|e| e.value <= x).count() as f64;
    let b = if alpha_s > 0.0 { 1.0 } else { 0.0 };
    let slack = match variant {
        PaperBoundVariant::FigureIdealized => 0.0,
        PaperBoundVariant::LemmaSafe => 1.0,
    };
    let mut l = epsilon2 * m * b * (alpha_s - 1.0).max(0.0);
    let mut u = epsilon2 * m * b * (alpha_s + slack);
    for p in partitions {
        let alpha_p = p.entries().iter().filter(|e| e.value <= x).count() as f64;
        if alpha_p > 0.0 {
            let mp = p.partition_len() as f64;
            l += epsilon1 * mp * (alpha_p - 1.0);
            u += epsilon1 * mp * alpha_p;
        }
    }
    (l.round() as u64, u.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamProcessor;
    use crate::summary::summarize_sorted;

    /// Build the paper's Figure 3 scenario: three partitions and the
    /// 401..=600 stream, with eps = 1/2 (eps1 = 1/4, eps2 = 1/8).
    fn figure3() -> (Vec<PartitionSummary<u64>>, StreamSummary<u64>) {
        let eps1 = 0.25;
        let beta1 = 5;
        let p1: Vec<u64> = (1..=100).collect();
        let p2: Vec<u64> = (101..=200).collect();
        let p3: Vec<u64> = (2..=201).collect();
        let summaries = vec![
            summarize_sorted(&p1, eps1, beta1, 4096),
            summarize_sorted(&p2, eps1, beta1, 4096),
            summarize_sorted(&p3, eps1, beta1, 4096),
        ];
        // The figure's stream summary is the idealized [401, ..., 600]; we
        // reproduce its *shape* through the real GK processor and verify
        // the min/max anchors, then use the figure's exact entries for the
        // formula replay below.
        let mut sp = StreamProcessor::new(0.125, 9);
        for v in 401..=600u64 {
            sp.update(v);
        }
        (summaries, sp.summary())
    }

    /// The figure's idealized SS: 9 entries whose assumed ranks are
    /// i * eps2 * m = 25i.
    fn figure3_idealized_ss() -> StreamSummary<u64> {
        let values = [401u64, 438, 452, 480, 520, 530, 565, 595, 600];
        let m = 200u64;
        let entries: Vec<(u64, u64, u64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let r = if i == 0 { 1 } else { 25 * i as u64 };
                (v, r, r)
            })
            .collect();
        // Round-trip through SourceView is what the production code sees;
        // for paper_li_ui we need a StreamSummary, so build one manually.
        let ss_entries: Vec<crate::stream::SsEntry<u64>> = entries
            .iter()
            .map(|&(v, lo, hi)| crate::stream::SsEntry {
                value: v,
                rmin: lo,
                rmax: hi,
            })
            .collect();
        // Construct via the public-ish path: there is no constructor, so we
        // go through a tiny helper on the test side.
        StreamSummary::from_parts_for_tests(ss_entries, m)
    }

    #[test]
    fn figure3_ts_composition() {
        let (summaries, ss) = figure3();
        let mut sources: Vec<SourceView<u64>> =
            summaries.iter().map(SourceView::from_partition).collect();
        sources.push(SourceView::from_stream(&ss));
        let ts = CombinedSummary::build(&sources);
        assert_eq!(ts.total(), 600);
        // 3 partitions x 5 entries + stream entries (9..=10).
        assert!(ts.len() >= 24, "delta = {}", ts.len());
        // The historical prefix of TS matches the figure exactly.
        let expect_prefix = [
            1u64, 2, 25, 50, 51, 75, 100, 101, 101, 125, 150, 151, 175, 200, 201,
        ];
        let hist_values: Vec<u64> = (0..ts.len())
            .map(|i| ts.value(i))
            .filter(|&v| v <= 201)
            .collect();
        assert_eq!(hist_values, expect_prefix);
    }

    #[test]
    fn figure3_li_ui_replay() {
        // Replay the figure's L and U rows exactly, using the idealized SS
        // and the FigureIdealized variant.
        let (summaries, _) = figure3();
        let ss = figure3_idealized_ss();
        let parts: Vec<&PartitionSummary<u64>> = summaries.iter().collect();

        let ts_values = [
            1u64, 2, 25, 50, 51, 75, 100, 101, 101, 125, 150, 151, 175, 200, 201, 401, 438, 452,
            480, 520, 530, 565, 595, 600,
        ];
        let expect_l = [
            0u64, 0, 25, 50, 100, 125, 150, 200, 200, 225, 250, 300, 325, 350, 400, 400, 425, 450,
            475, 500, 525, 550, 575, 600,
        ];
        let expect_u = [
            25u64, 75, 100, 125, 175, 200, 225, 300, 300, 325, 350, 400, 425, 450, 500, 525, 550,
            575, 600, 625, 650, 675, 700, 725,
        ];
        for (i, &x) in ts_values.iter().enumerate() {
            let (l, u) = paper_li_ui(
                x,
                &parts,
                &ss,
                0.25,
                0.125,
                PaperBoundVariant::FigureIdealized,
            );
            assert_eq!(l, expect_l[i], "L mismatch at TS[{i}] = {x}");
            assert_eq!(u, expect_u[i], "U mismatch at TS[{i}] = {x}");
        }
    }

    #[test]
    fn lemma_safe_dominates_idealized() {
        let (summaries, _) = figure3();
        let ss = figure3_idealized_ss();
        let parts: Vec<&PartitionSummary<u64>> = summaries.iter().collect();
        for x in [1u64, 101, 401, 520, 600] {
            let (_, u_ideal) = paper_li_ui(
                x,
                &parts,
                &ss,
                0.25,
                0.125,
                PaperBoundVariant::FigureIdealized,
            );
            let (_, u_safe) =
                paper_li_ui(x, &parts, &ss, 0.25, 0.125, PaperBoundVariant::LemmaSafe);
            assert!(u_safe >= u_ideal);
        }
    }

    #[test]
    fn lemma2_bounds_sandwich_exact_ranks() {
        // Production tracked bounds: L_i <= rank(TS[i], T) <= U_i for the
        // figure's full dataset.
        let (summaries, ss) = figure3();
        let mut sources: Vec<SourceView<u64>> =
            summaries.iter().map(SourceView::from_partition).collect();
        sources.push(SourceView::from_stream(&ss));
        let ts = CombinedSummary::build(&sources);

        let mut all: Vec<u64> = (1..=100).collect();
        all.extend(101..=200u64);
        all.extend(2..=201u64);
        all.extend(401..=600u64);

        for i in 0..ts.len() {
            let v = ts.value(i);
            let rank = all.iter().filter(|&&x| x <= v).count() as u64;
            assert!(
                ts.lower(i) <= rank && rank <= ts.upper(i),
                "TS[{i}]={v}: rank {rank} outside [L={}, U={}]",
                ts.lower(i),
                ts.upper(i)
            );
        }
    }

    #[test]
    fn lemma2_width_bound() {
        // U_i - L_i <= eps * N (Lemma 2 part 2); production bounds are
        // tighter than the paper's, so the check must pass with eps = 1/2.
        let (summaries, ss) = figure3();
        let mut sources: Vec<SourceView<u64>> =
            summaries.iter().map(SourceView::from_partition).collect();
        sources.push(SourceView::from_stream(&ss));
        let ts = CombinedSummary::build(&sources);
        let n = ts.total();
        for i in 0..ts.len() {
            assert!(
                ts.upper(i) - ts.lower(i) <= n / 2,
                "width {} at {i} exceeds eps*N = {}",
                ts.upper(i) - ts.lower(i),
                n / 2
            );
        }
    }

    #[test]
    fn quick_response_monotone_and_in_range() {
        let (summaries, ss) = figure3();
        let mut sources: Vec<SourceView<u64>> =
            summaries.iter().map(SourceView::from_partition).collect();
        sources.push(SourceView::from_stream(&ss));
        let ts = CombinedSummary::build(&sources);
        let mut prev = 0u64;
        for r in [1u64, 100, 200, 300, 400, 500, 600] {
            let v = ts.quick_response(r).unwrap();
            assert!(v >= prev, "quick response must be monotone in r");
            prev = v;
        }
    }

    #[test]
    fn filters_bracket_target_rank() {
        let (summaries, ss) = figure3();
        let mut sources: Vec<SourceView<u64>> =
            summaries.iter().map(SourceView::from_partition).collect();
        sources.push(SourceView::from_stream(&ss));
        let ts = CombinedSummary::build(&sources);

        let mut all: Vec<u64> = (1..=100).collect();
        all.extend(101..=200u64);
        all.extend(2..=201u64);
        all.extend(401..=600u64);
        all.sort_unstable();

        for r in [1u64, 50, 150, 300, 450, 600] {
            let (u, v) = ts.generate_filters(r);
            let answer = all[(r - 1) as usize]; // exact element of rank r
            if let Some(u) = u {
                assert!(
                    u <= answer,
                    "filter u={u} above exact answer {answer} (r={r})"
                );
            }
            if let Some(v) = v {
                assert!(
                    v >= answer,
                    "filter v={v} below exact answer {answer} (r={r})"
                );
            }
        }
    }

    #[test]
    fn empty_summary() {
        let ts = CombinedSummary::<u64>::build(&[]);
        assert!(ts.is_empty());
        assert_eq!(ts.quick_response(1), None);
        assert_eq!(ts.generate_filters(1), (None, None));
    }
}
