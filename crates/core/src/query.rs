//! Query processing: one path, *scope → probe source → driver*, that
//! every surface (live engine, pinned snapshot, sharded fan-in, served
//! node, remote coordinator) answers through.
//!
//! * A [`QueryScope`] is what a query answers over and nothing else: the
//!   combined summary `TS` of the selected partitions plus the stream
//!   (what Algorithm 6 starts from), the sizes `N` and `m`, `ε`, the mass
//!   excluded by quarantine or lost replica groups, and `strict`. A
//!   window is just a different partition selection, so full-union and
//!   windowed queries share everything below. The quick response
//!   (Algorithm 5, [`QueryScope::quick_rank`]) needs only the scope.
//! * A [`RankProbeSource`] returns rigorous bounds on `rank(z)` over the
//!   scope's data. [`PartitionProbes`] is the one that touches disk: the
//!   exact rank `ρ₁` of `z` in every partition — each searched only
//!   inside its summary's `narrow` (Algorithm 8, line 5) intersected with
//!   the exact ranks of the nearest values already probed on either side
//!   (the tightening of lines 13/15) — plus the stream summary's interval
//!   for `ρ₂`. Bounds over disjoint data add, so a [`FanIn`] of them
//!   fronts a sharded engine and a coordinator sums nodes the same way.
//! * The driver, [`accurate_response`], is Algorithm 6: refuse if the
//!   scope is strict and degraded, seed the bracket `[u, v]` with
//!   Algorithm 7's filters ([`CombinedSummary::seed_bracket`]), run
//!   Algorithm 8's value-space bisection ([`bisect_summed_rank`], the
//!   only loop) until `ρ = ρ₁ + ρ₂` lands within `⌊ε·m⌋` of the target,
//!   and assemble the one [`QueryOutcome`].
//!
//! Recovery wraps the path from outside: both engines' one loop re-runs
//! "build scope, run driver" after quarantining a corrupt partition on
//! the shard whose probe read it, or on a transient fault, and the
//! coordinator re-runs it when fleet membership changes mid-bisection.
//!
//! Ranks throughout this module are *summed weights*, not item counts:
//! with weighted ingestion (`stream_update_weighted`) an item of weight
//! `w` contributes `w` to every `rank(z)` with `z ≥ item`, the total
//! size `N` and stream size `m` are summed weights, and every error
//! bound reads `ε·m` with `m = W`, the total stream weight. Unweighted
//! ingestion is the `w = 1` special case, where weights and counts
//! coincide — nothing below changes shape either way, because archived
//! partitions materialize weight as replication while the stream sketch
//! carries it natively.
//!
//! Inside its window a partition is searched block by block
//! ([`hsq_storage::SortedRun::rank_in`]). Both ends of the window are
//! exact `(value, rank)` pairs, so the first block read is the one at the
//! position `z`'s order-preserving key takes between the two values
//! (interpolation); on smooth data that block usually holds the
//! boundary. A partition's first miss switches it to bisection for the
//! rest of its [`ProbeState`] (the search that missed guesses once more
//! first), which keeps clumped (Zipf-like) partitions at bisection's
//! `O(log₂(window/B))` reads plus at most two missed guesses. Lemma 7
//! prices the search as binary search; the guess changes only which
//! blocks are read, never the exact rank, so every [`QueryOutcome`] field
//! but `io` is the same under either rule.
//!
//! All block reads go through a per-partition [`BlockCache`], so once a
//! partition's window falls inside one block no further I/O is charged
//! for it (§2.4 "Optimization").

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use hsq_storage::{BlockCache, BlockDevice, FileId, IoSnapshot, Item, RankWindow};

use crate::bounds::{CombinedSummary, SourceView};
use crate::stream::StreamSummary;
use crate::warehouse::StoredPartition;

/// The answer to a rank/quantile query, with its observed cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome<T> {
    /// The answering value (see module docs on Definition 1 semantics).
    pub value: T,
    /// Disk I/O consumed by this query.
    pub io: IoSnapshot,
    /// Value-space bisection steps executed.
    pub bisection_steps: u32,
    /// The algorithm's final rank estimate for `value` in `T`.
    pub estimated_rank: u64,
    /// Rigorous lower bound on `rank(value, T)`: `estimated_rank − ε·m`.
    pub rank_lo: u64,
    /// Rigorous upper bound on `rank(value, T)`:
    /// `estimated_rank + ε·m + quarantined` — degraded queries widen the
    /// upper bound by **exactly** the quarantined item count, since every
    /// unreadable item could fall at or below `value`.
    pub rank_hi: u64,
    /// `true` when the scope excluded quarantined (confirmed-corrupt)
    /// partitions: the answer is still rank-correct within
    /// `[rank_lo, rank_hi]`, just wider than the healthy-path `ε·m`.
    pub degraded: bool,
    /// Items excluded by quarantine (suspect partitions + confirmed-lost
    /// mass) — the exact widening applied to `rank_hi`.
    pub quarantined: u64,
}

/// What one query answers over: the data selected (all partitions or a
/// window's worth, plus the stream) reduced to what the bisection needs.
/// Built once per pinned view and window, shared by every query on it.
#[derive(Clone, Debug)]
pub struct QueryScope<T> {
    ts: Arc<CombinedSummary<T>>,
    total: u64,
    stream_weight: u64,
    epsilon: f64,
    quarantined: u64,
    missing: u64,
    strict: bool,
}

impl<T: Item> QueryScope<T> {
    /// A healthy scope: `TS` built over `sources`, total size `total`
    /// (`N`: the selected partitions, readable or not, plus the stream),
    /// stream weight `stream_weight` (`m`) and error parameter `epsilon`.
    pub fn new(sources: &[SourceView<T>], total: u64, stream_weight: u64, epsilon: f64) -> Self {
        QueryScope {
            ts: Arc::new(CombinedSummary::build(sources)),
            total,
            stream_weight,
            epsilon,
            quarantined: 0,
            missing: 0,
            strict: false,
        }
    }

    /// Record the mass `sources` could not cover: `quarantined` items
    /// (corrupt partitions plus confirmed-lost items) and `missing`
    /// weight of unreachable replica groups. Outcomes widen `rank_hi` by
    /// exactly their sum and set `degraded`; no-op at 0.
    pub fn with_excluded(mut self, quarantined: u64, missing: u64) -> Self {
        self.quarantined = quarantined;
        self.missing = missing;
        self
    }

    /// Record [`crate::HsqConfig::strict`] as of pin time: a strict scope
    /// with quarantined mass refuses accurate queries.
    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Total size `N` of the scope.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The combined summary `TS` (shared, never rebuilt).
    pub fn combined_summary(&self) -> &Arc<CombinedSummary<T>> {
        &self.ts
    }

    /// The 1-based target rank `⌈φ·N⌉` of the φ-quantile.
    pub fn rank_of(&self, phi: f64) -> u64 {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        (phi * self.total as f64).ceil() as u64
    }

    /// Algorithm 5: quick response for 1-based rank `r`, using only
    /// in-memory structures. Error ≤ 1.5·ε·N (Lemma 3).
    pub fn quick_rank(&self, r: u64) -> Option<T> {
        self.ts.quick_response(r.clamp(1, self.ts.total().max(1)))
    }

    /// Quick φ-quantile: [`QueryScope::quick_rank`] of `⌈φ·N⌉`.
    pub fn quick_quantile(&self, phi: f64) -> Option<T> {
        self.quick_rank(self.rank_of(phi))
    }
}

/// One window's plan over a pinned view: the scope's size `N`, what to
/// probe (`parts`: per shard, positions in that shard's partition list),
/// and the scope itself — the expensive part, `TS`, left unbuilt until a
/// query needs it (a serving node only probes and never does).
pub(crate) struct Plan<T> {
    pub(crate) total: u64,
    pub(crate) parts: Vec<Vec<usize>>,
    scope: OnceLock<QueryScope<T>>,
}

impl<T> Plan<T> {
    /// The plan's scope, built by `build(self)` on first use. Readers of
    /// *other* windows never wait on one scope's construction.
    pub(crate) fn scope(&self, build: impl FnOnce(&Self) -> QueryScope<T>) -> &QueryScope<T> {
        self.scope.get_or_init(|| build(self))
    }
}

/// A pinned view's plans, keyed by window (`None` = the full union), each
/// selected once; a misaligned window caches as `None`, so repeats stay
/// cheap too. The plan cache behind [`crate::ShardedSnapshot`].
pub(crate) struct Plans<T>(Mutex<PlanMap<T>>);

/// Plans by window; `None` marks a misaligned window.
type PlanMap<T> = HashMap<Option<u64>, Option<Arc<Plan<T>>>>;

impl<T> Default for Plans<T> {
    fn default() -> Self {
        Plans(Mutex::new(HashMap::new()))
    }
}

impl<T> Plans<T> {
    /// The plan of `window`; on first use `select` returns its `N` and
    /// what to probe, or `None` when the window misaligns.
    pub(crate) fn get(
        &self,
        window: Option<u64>,
        select: impl FnOnce() -> Option<(u64, Vec<Vec<usize>>)>,
    ) -> Option<Arc<Plan<T>>> {
        let mut plans = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let plan = plans.entry(window).or_insert_with(|| {
            let (total, parts) = select()?;
            let scope = OnceLock::new();
            Some(Arc::new(Plan {
                total,
                parts,
                scope,
            }))
        });
        plan.clone()
    }
}

/// The views `TS` is built from over one device: every partition's
/// summary, in order, then the stream's.
pub(crate) fn source_views<T: Item>(
    partitions: &[&StoredPartition<T>],
    stream: &StreamSummary<T>,
) -> Vec<SourceView<T>> {
    let parts = partitions
        .iter()
        .map(|p| SourceView::from_partition(&p.summary));
    parts.chain([SourceView::from_stream(stream)]).collect()
}

/// The strict-mode gate ([`crate::HsqConfig::strict`]): refuse to answer
/// over a union with `quarantined` unreadable items. [`accurate_response`]
/// applies it to its scope; a serving node, whose bisection runs on the
/// coordinator, applies it per probe round.
pub fn strict_gate(strict: bool, quarantined: u64) -> io::Result<()> {
    if strict && quarantined > 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("query refused: {quarantined} items quarantined (strict mode)"),
        ));
    }
    Ok(())
}

/// Algorithm 6: the accurate response for 1-based rank `r` over `scope`,
/// probing through `source`. Error O(ε·m) (Lemma 5, Theorem 2). The
/// outcome's `io` is zero — whoever owns the source stamps what the
/// probes cost.
pub fn accurate_response<T: Item>(
    scope: &QueryScope<T>,
    r: u64,
    source: &mut dyn RankProbeSource<T>,
) -> io::Result<Option<QueryOutcome<T>>> {
    strict_gate(scope.strict, scope.quarantined)?;
    if scope.ts.total() == 0 {
        // Nothing readable to answer from (empty, or all quarantined).
        return Ok(None);
    }
    let r = r.clamp(1, scope.total);
    let (u, v) = scope.ts.seed_bracket(r);
    let eps_m = (scope.epsilon * scope.stream_weight as f64).floor() as u64;
    let (value, estimated_rank, bisection_steps) = bisect_summed_rank(r, eps_m, u, v, source)?;
    let excluded = scope.quarantined + scope.missing;
    Ok(Some(QueryOutcome {
        value,
        io: IoSnapshot::default(),
        bisection_steps,
        estimated_rank,
        rank_lo: estimated_rank.saturating_sub(eps_m),
        // One-sided widening: unreadable or unreachable items can only
        // push a true full-union rank up, never below the lower bound.
        rank_hi: estimated_rank + eps_m + excluded,
        degraded: excluded > 0,
        quarantined: scope.quarantined,
    }))
}

/// A source of rigorous rank bounds for the value-space bisection
/// ([`bisect_summed_rank`]): `probe(z)` returns `(lo, hi)` with
/// `lo ≤ rank(z, union) ≤ hi` (summed weights under weighted ingestion)
/// over whatever union the source fronts.
///
/// The trait is the seam between *where the data lives* and *how the
/// query runs*: [`PartitionProbes`] reads one device's partitions, a
/// [`FanIn`] sums several of them, and a networked coordinator batches
/// one probe round per call across remote nodes — bounds from disjoint
/// sources add, so all drive the *same* bisection and inherit the same
/// `ε·m` guarantee. Any `FnMut(T) -> io::Result<(u64, u64)>` closure
/// implements the trait.
pub trait RankProbeSource<T: Item> {
    /// Rigorous `(lo, hi)` bounds on `rank(z)` over the fronted union.
    fn probe(&mut self, z: T) -> io::Result<(u64, u64)>;
}

impl<T: Item, F: FnMut(T) -> io::Result<(u64, u64)>> RankProbeSource<T> for F {
    fn probe(&mut self, z: T) -> io::Result<(u64, u64)> {
        self(z)
    }
}

/// Algorithm 8: value-space bisection over *summed* rank bounds.
///
/// `probe` returns rigorous `(lo, hi)` bounds on `rank(z)` — summed
/// weights under weighted ingestion — over the queried union; the
/// midpoint estimate carries up to `hi − mid`
/// uncertainty, so a probe is accepted when `|ρ − r| ≤ eps_m − unc` and
/// the search otherwise bisects `[u, v]` to value collapse (Definition
/// 1's boundary answer). Returns `(value, estimated_rank,
/// bisection_steps)`.
pub fn bisect_summed_rank<T: Item>(
    r: u64,
    eps_m: u64,
    mut u: T,
    mut v: T,
    probe: &mut dyn RankProbeSource<T>,
) -> io::Result<(T, u64, u32)> {
    let mut steps = 0u32;
    // v ≤ u: both filters pin rank r exactly and no search is needed.
    if u < v {
        loop {
            steps += 1;
            let z = T::midpoint(u, v);
            if steps > T::UNIVERSE_BITS + 2 || (z == u && z == v) {
                break; // value space exhausted
            }
            let (lo, hi) = probe.probe(z)?;
            let rho = lo + (hi - lo) / 2;
            let unc = hi - rho;
            let tol = eps_m.saturating_sub(unc);
            if r < rho && rho - r > tol {
                v = z; // too high: recurse left (Alg. 8 line 13)
            } else if rho < r && r - rho > tol {
                if z == u {
                    break; // interval degenerated to {u, v = u+ulp}
                }
                u = z; // too low: recurse right (Alg. 8 line 15)
            } else {
                return Ok((z, rho, steps));
            }
        }
    }
    // The bracket collapsed onto v, the smallest value whose estimated
    // rank reaches r: Definition 1's answer. `v` is usually a value
    // already probed (the last "too high" midpoint), so this re-probe
    // reads nothing in-process (`ProbeState`) and sends nothing on the
    // served path (the session's probe memo).
    let (lo, hi) = probe.probe(v)?;
    Ok((v, lo + (hi - lo) / 2, steps))
}

/// What a [`PartitionProbes`] keeps between probes: each partition's
/// [`PartitionSearch`] and the exact ranks of the last few probed values.
/// Owns no borrow, so a serving connection can hold one per pinned epoch
/// across requests; `Default` is the empty state, shaped on first use.
pub struct ProbeState<T: Item> {
    /// The run files of the partitions this state is shaped for:
    /// `searches` and every `probed` rank vector are indexed like it.
    files: Vec<FileId>,
    /// One search state per partition.
    searches: Vec<PartitionSearch<T>>,
    /// Up to three probed values, ascending, each with its exact rank in
    /// every partition: the latest probe and the nearest earlier probe on
    /// either side of it — all a bisection ever looks at again.
    probed: Vec<(T, Vec<u64>)>,
}

impl<T: Item> Default for ProbeState<T> {
    fn default() -> Self {
        ProbeState {
            files: Vec::new(),
            searches: Vec::new(),
            probed: Vec::new(),
        }
    }
}

/// One partition's share of a [`ProbeState`]: its decoded-block cache and
/// whether its searches still interpolate. The first interpolated read
/// that misses the boundary block clears the flag, so a partition with
/// clumped keys pays at most two missed guesses and is bisected from then
/// on.
pub struct PartitionSearch<T: Item> {
    cache: BlockCache<T>,
    interpolate: bool,
}

impl<T: Item> PartitionSearch<T> {
    /// A fresh search state caching up to `cache_blocks` blocks.
    pub fn new(cache_blocks: usize) -> Self {
        PartitionSearch {
            cache: BlockCache::new(cache_blocks),
            interpolate: true,
        }
    }

    /// Exact `rank(z, P)` (summed weight of elements ≤ z — archived runs
    /// materialize weight as replicated copies, so the count *is* the
    /// weight), searched inside `window` by [`SortedRun::rank_in`].
    ///
    /// [`SortedRun::rank_in`]: hsq_storage::SortedRun::rank_in
    pub fn rank<D: BlockDevice>(
        &mut self,
        dev: &D,
        p: &StoredPartition<T>,
        z: T,
        window: RankWindow<T>,
    ) -> io::Result<u64> {
        p.run
            .rank_in(dev, z, window, &mut self.cache, &mut self.interpolate)
    }
}

/// The probe source over one device: rigorous bounds on `rank(z)` over
/// `partitions ∪ stream` — the exact disk-side rank plus the stream
/// summary's tracked interval.
///
/// Each partition is searched only between the exact ranks already known
/// for the nearest probed values below and above `z`, intersected with
/// its summary's `narrow(z)` — positions and value bounds alike;
/// re-probing a remembered value reads nothing. Windows therefore tighten
/// monotonically under any bisection without the driver knowing
/// partitions exist.
pub struct PartitionProbes<'a, T: Item, D: BlockDevice> {
    dev: &'a D,
    partitions: Vec<&'a StoredPartition<T>>,
    stream: &'a StreamSummary<T>,
    state: &'a mut ProbeState<T>,
}

impl<'a, T: Item, D: BlockDevice> PartitionProbes<'a, T, D> {
    /// Probe `partitions ∪ stream` on `dev`, keeping search states and
    /// probed ranks in `state`. A `state` last used over other partitions
    /// (or fresh) is reset, splitting `cache_blocks` across the
    /// partitions.
    pub fn new(
        dev: &'a D,
        partitions: Vec<&'a StoredPartition<T>>,
        stream: &'a StreamSummary<T>,
        cache_blocks: usize,
        state: &'a mut ProbeState<T>,
    ) -> Self {
        let files = || partitions.iter().map(|p| p.run.file());
        if !state.files.iter().copied().eq(files()) {
            let per_cache = (cache_blocks / partitions.len().max(1)).max(2);
            state.files = files().collect();
            state.searches = files().map(|_| PartitionSearch::new(per_cache)).collect();
            state.probed.clear();
        }
        PartitionProbes {
            dev,
            partitions,
            stream,
            state,
        }
    }

    /// Exact rank of `z` summed over the partitions.
    fn disk_rank(&mut self, z: T) -> io::Result<u64> {
        let probed = &mut self.state.probed;
        let at = probed.partition_point(|&(v, _)| v < z);
        if let Some((_, ranks)) = probed.get(at).filter(|&&(v, _)| v == z) {
            return Ok(ranks.iter().sum());
        }
        let above = probed.drain(at..).next();
        let below = probed.pop();
        probed.clear();

        // Alg. 8 line 5, tightened by lines 13/15: ranks are monotone in
        // the value, so rank(below) ≤ rank(z) ≤ rank(above), and the
        // items between them lie in [below, above].
        let windows: Vec<RankWindow<T>> = self
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut w = p.summary.narrow(z);
                if let Some((b, ranks)) = &below {
                    w.lo = w.lo.max(ranks[i]);
                    w.lo_value = w.lo_value.max(*b);
                }
                if let Some((a, ranks)) = &above {
                    w.hi = w.hi.min(ranks[i]);
                    w.hi_value = w.hi_value.min(*a);
                }
                w
            })
            .collect();
        let each = self.partitions.iter().zip(&windows);
        let ranks = each
            .zip(&mut self.state.searches)
            .map(|((p, &w), search)| search.rank(self.dev, p, z, w))
            .collect::<io::Result<Vec<u64>>>()?;
        let rho1 = ranks.iter().sum();
        probed.extend(below);
        probed.push((z, ranks));
        probed.extend(above);
        Ok(rho1)
    }
}

impl<T: Item, D: BlockDevice> RankProbeSource<T> for PartitionProbes<'_, T, D> {
    fn probe(&mut self, z: T) -> io::Result<(u64, u64)> {
        let rho1 = self.disk_rank(z)?;
        let (lo, hi) = self.stream.rank_bounds(z);
        Ok((rho1 + lo, rho1 + hi))
    }
}

/// The in-process fan-in: [`PartitionProbes`] over disjoint data (one per
/// engine shard; a single engine is a fan-in of one), bounds summed.
pub struct FanIn<'a, T: Item, D: BlockDevice> {
    shards: Vec<PartitionProbes<'a, T, D>>,
    /// The shard whose probe last failed: file ids repeat across shard
    /// devices, so only this says where a corrupt block lives.
    pub(crate) failed: Option<usize>,
}

impl<'a, T: Item, D: BlockDevice> FanIn<'a, T, D> {
    /// Sum `shards`, probing them one after another.
    pub fn new(shards: Vec<PartitionProbes<'a, T, D>>) -> Self {
        FanIn {
            shards,
            failed: None,
        }
    }

    /// Run the driver over this fan-in and stamp what its probes cost:
    /// the I/O on every distinct device.
    pub fn rank_query(
        &mut self,
        scope: &QueryScope<T>,
        r: u64,
    ) -> io::Result<Option<QueryOutcome<T>>> {
        // Shards may share a device: count each once.
        let mut marks: Vec<(&D, IoSnapshot)> = Vec::new();
        for s in &self.shards {
            if !marks.iter().any(|&(d, _)| std::ptr::eq(d, s.dev)) {
                marks.push((s.dev, s.dev.stats().snapshot()));
            }
        }
        Ok(accurate_response(scope, r, self)?.map(|mut o| {
            o.io = marks
                .iter()
                .fold(IoSnapshot::default(), |acc, &(d, before)| {
                    acc + (d.stats().snapshot() - before)
                });
            o
        }))
    }

    /// Accurate φ-quantile over `scope`: the value answering `⌈φ·N⌉`.
    pub fn quantile(&mut self, scope: &QueryScope<T>, phi: f64) -> io::Result<Option<T>> {
        Ok(self.rank_query(scope, scope.rank_of(phi))?.map(|o| o.value))
    }

    /// Batch of accurate φ-quantiles sharing `scope` and this fan-in's
    /// caches.
    pub fn quantiles(&mut self, scope: &QueryScope<T>, phis: &[f64]) -> io::Result<Vec<Option<T>>> {
        phis.iter().map(|&phi| self.quantile(scope, phi)).collect()
    }
}

impl<T: Item, D: BlockDevice> RankProbeSource<T> for FanIn<'_, T, D> {
    fn probe(&mut self, z: T) -> io::Result<(u64, u64)> {
        let mut each = self.shards.iter_mut().enumerate();
        each.try_fold((0, 0), |(lo, hi), (i, s)| {
            let (l, h) = s.probe(z).inspect_err(|_| self.failed = Some(i))?;
            Ok((lo + l, hi + h))
        })
    }
}

/// The borrowed-partitions constructor: a [`QueryScope`] and a
/// [`PartitionProbes`] over one device's partitions (all of them, or a
/// window's worth) and an extracted stream summary.
pub struct QueryContext<'a, T: Item, D: BlockDevice> {
    scope: QueryScope<T>,
    dev: &'a D,
    partitions: Vec<&'a StoredPartition<T>>,
    stream: &'a StreamSummary<T>,
    cache_blocks: usize,
}

impl<'a, T: Item, D: BlockDevice> QueryContext<'a, T, D> {
    /// Build the scope (combined summary `TS` included) over
    /// `partitions` ∪ stream.
    pub fn new(
        dev: &'a D,
        partitions: Vec<&'a StoredPartition<T>>,
        stream: &'a StreamSummary<T>,
        epsilon: f64,
        cache_blocks: usize,
    ) -> Self {
        let sources = source_views(&partitions, stream);
        let total = sources.iter().map(SourceView::total).sum();
        QueryContext {
            scope: QueryScope::new(&sources, total, stream.stream_len(), epsilon),
            dev,
            partitions,
            stream,
            cache_blocks,
        }
    }

    /// The scope queries on this context answer over.
    pub fn scope(&self) -> &QueryScope<T> {
        &self.scope
    }

    /// The probe source over this context's partitions, as a fan-in of
    /// one, keeping caches and probed ranks in `state`.
    pub fn fan_in<'s>(&'s self, state: &'s mut ProbeState<T>) -> FanIn<'s, T, D> {
        let probes = PartitionProbes::new(
            self.dev,
            self.partitions.clone(),
            self.stream,
            self.cache_blocks,
            state,
        );
        FanIn::new(vec![probes])
    }

    /// Algorithm 6: accurate response for 1-based rank `r`, with cost
    /// reporting (see [`accurate_response`]).
    pub fn accurate_rank(&self, r: u64) -> io::Result<Option<QueryOutcome<T>>> {
        self.fan_in(&mut ProbeState::default())
            .rank_query(&self.scope, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HsqConfig;
    use crate::stream::StreamProcessor;
    use crate::warehouse::Warehouse;
    use hsq_storage::MemDevice;
    use std::sync::Arc;

    fn build_scene(
        kappa: usize,
        steps: u64,
        step_size: u64,
        eps: f64,
    ) -> (
        Warehouse<u64, MemDevice>,
        StreamProcessor<u64>,
        Vec<u64>,
        HsqConfig,
    ) {
        let mut cfg = HsqConfig::with_epsilon(eps);
        cfg.kappa = kappa;
        let mut w = Warehouse::new(MemDevice::new(256), cfg.clone());
        let mut all = Vec::new();
        let mut x = 12345u64;
        let mut gen = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for _ in 0..steps {
            let batch: Vec<u64> = (0..step_size).map(|_| gen()).collect();
            all.extend(&batch);
            w.add_batch(batch).unwrap();
        }
        let mut sp = StreamProcessor::new(cfg.epsilon2, cfg.beta2);
        for _ in 0..step_size {
            let v = gen();
            all.push(v);
            sp.update(v);
        }
        (w, sp, all, cfg)
    }

    fn rank_distance(data: &[u64], v: u64, r: u64) -> u64 {
        let hi = data.iter().filter(|&&x| x <= v).count() as u64;
        let lo = data.iter().filter(|&&x| x < v).count() as u64 + 1;
        if r < lo {
            lo - r
        } else {
            r.saturating_sub(hi)
        }
    }

    /// A stored partition over `data` (sorted) on `dev`.
    fn stored(dev: &MemDevice, data: &[u64], eps1: f64, beta1: usize) -> StoredPartition<u64> {
        StoredPartition {
            run: hsq_storage::write_run(dev, data).unwrap(),
            summary: crate::summary::summarize_sorted(data, eps1, beta1, dev.block_size()),
            first_step: 1,
            last_step: 1,
        }
    }

    /// `[lo, hi)` of `data` as a window with loose value bounds.
    fn loose(lo: u64, hi: u64) -> RankWindow<u64> {
        RankWindow {
            lo,
            hi,
            lo_value: u64::MIN,
            hi_value: u64::MAX,
        }
    }

    #[test]
    fn partition_search_exact() {
        let dev = MemDevice::new(64); // 7 u64/block
        let data: Vec<u64> = (0..500).map(|i| i * 2).collect();
        let p = stored(&dev, &data, 0.1, 11);
        let mut search = PartitionSearch::new(8);
        for z in [0u64, 1, 2, 499, 500, 998, 999, 5000] {
            let expect = data.iter().filter(|&&x| x <= z).count() as u64;
            for window in [loose(0, 500), p.summary.narrow(z)] {
                let got = search.rank(&*dev, &p, z, window).unwrap();
                assert_eq!(got, expect, "z = {z}, {window:?}");
            }
        }
    }

    #[test]
    fn partition_search_respects_window() {
        let dev = MemDevice::new(64);
        let data: Vec<u64> = (0..100).collect();
        let p = stored(&dev, &data, 0.25, 5);
        let mut search = PartitionSearch::new(8);
        // True rank of 50 is 51; window [40, 60] contains it.
        let got = search.rank(&*dev, &p, 50, loose(40, 60)).unwrap();
        assert_eq!(got, 51);
        // Degenerate window answers with no I/O.
        let before = dev.stats().snapshot();
        let got = search.rank(&*dev, &p, 123, loose(77, 77)).unwrap();
        assert_eq!(got, 77);
        assert_eq!((dev.stats().snapshot() - before).total_reads(), 0);
    }

    #[test]
    fn a_miss_turns_interpolation_off_for_the_partition() {
        // Zipf-like clumping: one heavy value fills most of the run, so
        // key interpolation between the extremes lands far from z's rank.
        let dev = MemDevice::new(64); // 7 u64/block
        let mut data: Vec<u64> = (0..40).collect();
        data.extend(vec![1_000u64; 600]);
        data.extend((0..40).map(|i| 1_000_000_000 + i));
        let p = stored(&dev, &data, 0.5, 3);
        let mut search = PartitionSearch::new(64);
        let z = 20;
        let got = search.rank(&*dev, &p, z, p.summary.narrow(z)).unwrap();
        assert_eq!(got, 21);
        assert!(!search.interpolate, "the guess missed: bisect from now on");
        // A smooth partition's guesses keep landing.
        let smooth: Vec<u64> = (0..680).map(|i| i * 3).collect();
        let q = stored(&dev, &smooth, 0.5, 3);
        let mut search = PartitionSearch::new(64);
        for z in [100u64, 700, 1500, 2000] {
            let got = search.rank(&*dev, &q, z, q.summary.narrow(z)).unwrap();
            assert_eq!(got, z / 3 + 1);
        }
        assert!(search.interpolate, "every guess held the boundary");
    }

    #[test]
    fn accurate_query_error_bound() {
        let (w, sp, mut all, cfg) = build_scene(3, 12, 400, 0.05);
        let ss = sp.summary();
        let ctx = QueryContext::new(
            &**w.device(),
            w.partitions_newest_first(),
            &ss,
            cfg.epsilon(),
            cfg.cache_blocks,
        );
        all.sort_unstable();
        let n = all.len() as u64;
        let m = 400u64;
        let allowed = (cfg.epsilon() * m as f64).ceil() as u64 + 1;
        for r in [1, n / 10, n / 4, n / 2, 3 * n / 4, n] {
            let out = ctx.accurate_rank(r).unwrap().unwrap();
            let dist = rank_distance(&all, out.value, r.max(1));
            assert!(
                dist <= allowed,
                "r={r}: value {} off by {dist} ranks (allowed {allowed})",
                out.value
            );
        }
    }

    #[test]
    fn quick_query_error_bound() {
        let (w, sp, mut all, cfg) = build_scene(3, 12, 400, 0.05);
        let ss = sp.summary();
        let ctx = QueryContext::new(
            &**w.device(),
            w.partitions_newest_first(),
            &ss,
            cfg.epsilon(),
            cfg.cache_blocks,
        );
        all.sort_unstable();
        let n = all.len() as u64;
        // Lemma 3: error <= 1.5 * eps * N.
        let allowed = (1.5 * cfg.epsilon() * n as f64).ceil() as u64 + 1;
        for r in [1, n / 4, n / 2, n] {
            let v = ctx.scope().quick_rank(r).unwrap();
            let dist = rank_distance(&all, v, r.max(1));
            assert!(dist <= allowed, "r={r}: quick off by {dist} > {allowed}");
        }
    }

    #[test]
    fn accurate_query_uses_no_io_when_summaries_suffice() {
        // With a single tiny partition that fits entirely in summary
        // resolution, queries should cost few (possibly zero) reads after
        // the first block is cached.
        let (w, sp, _, cfg) = build_scene(2, 1, 64, 0.25);
        let ss = sp.summary();
        let ctx = QueryContext::new(
            &**w.device(),
            w.partitions_newest_first(),
            &ss,
            cfg.epsilon(),
            cfg.cache_blocks,
        );
        let out = ctx.accurate_rank(64).unwrap().unwrap();
        assert!(
            out.io.total_reads() <= 12,
            "tiny dataset needed {} reads",
            out.io.total_reads()
        );
    }

    #[test]
    fn duplicate_mass_definition_one() {
        // Half the data is one repeated value; the quantile at its rank
        // range must return that value (Definition 1's smallest-element).
        let mut cfg = HsqConfig::with_epsilon(0.02);
        cfg.kappa = 3;
        let dev = MemDevice::new(256);
        let mut w = Warehouse::new(Arc::clone(&dev), cfg.clone());
        let mut all = Vec::new();
        for _ in 0..4 {
            let mut batch = vec![500_000u64; 500];
            batch.extend((0..500u64).map(|i| i * 10));
            all.extend(&batch);
            w.add_batch(batch).unwrap();
        }
        let mut sp = StreamProcessor::new(cfg.epsilon2, cfg.beta2);
        for v in 0..100u64 {
            sp.update(v * 7 + 1_000_000);
            all.push(v * 7 + 1_000_000);
        }
        let ss = sp.summary();
        let ctx = QueryContext::new(
            &*dev,
            w.partitions_newest_first(),
            &ss,
            cfg.epsilon(),
            cfg.cache_blocks,
        );
        // Rank in the middle of the duplicate plateau.
        let r = 3000;
        let out = ctx.accurate_rank(r).unwrap().unwrap();
        let dist = rank_distance(&all, out.value, r);
        let allowed = (cfg.epsilon() * 100.0).ceil() as u64 + 1;
        assert!(dist <= allowed, "plateau query off by {dist}");
    }

    #[test]
    fn probe_windows_tighten_and_remembered_values_cost_nothing() {
        // Coarse summaries over many-block partitions and two cached
        // blocks per partition, so the search windows decide the reads.
        let (w, sp, _, cfg) = build_scene(3, 12, 2000, 0.2);
        let ss = sp.summary();
        let dev = &**w.device();
        let parts = w.partitions_newest_first();
        let ctx = QueryContext::new(dev, parts.clone(), &ss, cfg.epsilon(), 2 * parts.len());
        let reads = || dev.stats().snapshot().total_reads();
        // A tighter window moves the search's midpoints, so one bisection
        // may touch a block more or less; the sweep as a whole must not
        // read more than with the summary windows alone.
        let (mut narrow_reads, mut tightened_reads) = (0, 0);
        for r in (1..=26_000u64).step_by(997) {
            // The pre-unification fan-in probe: every partition searched
            // inside its summary's narrow(z) alone, on every probe.
            let mut searches: Vec<PartitionSearch<u64>> =
                parts.iter().map(|_| PartitionSearch::new(2)).collect();
            let mut narrow_only = |z: u64| -> io::Result<(u64, u64)> {
                let mut rho1 = 0;
                for (p, search) in parts.iter().zip(searches.iter_mut()) {
                    rho1 += search.rank(dev, p, z, p.summary.narrow(z))?;
                }
                let (lo, hi) = ss.rank_bounds(z);
                Ok((rho1 + lo, rho1 + hi))
            };
            let before = reads();
            let a = accurate_response(ctx.scope(), r, &mut narrow_only)
                .unwrap()
                .unwrap();
            narrow_reads += reads() - before;

            let mut state = ProbeState::default();
            let mut fan = ctx.fan_in(&mut state);
            let b = fan.rank_query(ctx.scope(), r).unwrap().unwrap();
            assert_eq!(
                (a.value, a.estimated_rank, a.bisection_steps),
                (b.value, b.estimated_rank, b.bisection_steps),
                "r={r}: windows may only change I/O"
            );
            tightened_reads += b.io.total_reads();

            let before = reads();
            fan.probe(b.value).unwrap();
            assert_eq!(reads(), before, "r={r}: re-probing a probed value read");
        }
        assert!(
            tightened_reads < narrow_reads,
            "{tightened_reads} reads tightened vs {narrow_reads} with summary windows alone"
        );
    }

    #[test]
    fn summary_seeding_never_bisects_more_than_domain() {
        let (w, sp, _, cfg) = build_scene(3, 10, 300, 0.05);
        let ss = sp.summary();
        let ctx = QueryContext::new(
            &**w.device(),
            w.partitions_newest_first(),
            &ss,
            cfg.epsilon(),
            cfg.cache_blocks,
        );
        let eps_m = (cfg.epsilon() * ss.stream_len() as f64).floor() as u64;
        let n = 33 * 100; // just query across the range
        let mut strictly_fewer = false;
        for r in [1u64, n / 10, n / 4, n / 2, 3 * n / 4, n] {
            let s = ctx.accurate_rank(r).unwrap().unwrap().bisection_steps;
            // The same bisection seeded from the whole universe.
            let mut state = ProbeState::default();
            let mut fan = ctx.fan_in(&mut state);
            let (_, _, d) = bisect_summed_rank(r, eps_m, u64::MIN, u64::MAX, &mut fan).unwrap();
            assert!(s <= d, "r={r}: summary {s} > domain {d} steps");
            strictly_fewer |= s < d;
        }
        assert!(strictly_fewer, "summary seeding never saved a step");
    }

    #[test]
    fn seed_bracket_falls_back_to_summary_extremes() {
        // Duplicate-heavy minimum: no TS entry has U <= 1, so the u
        // filter is undefined — the bracket must fall back to the exact
        // minimum, not the universe minimum.
        let dev = MemDevice::new(256);
        let mut w = Warehouse::new(Arc::clone(&dev), HsqConfig::with_epsilon(0.1));
        w.add_batch(vec![500u64; 100]).unwrap();
        let mut sp = StreamProcessor::new(0.05, 21);
        for _ in 0..50 {
            sp.update(500u64);
        }
        let ss = sp.summary();
        let ctx = QueryContext::new(&*dev, w.partitions_newest_first(), &ss, 0.1, 8);
        let (u, v) = ctx.scope().combined_summary().seed_bracket(1);
        assert_eq!(u, 500, "u must fall back to the data minimum");
        assert_eq!(v, 500);
        let out = ctx.accurate_rank(1).unwrap().unwrap();
        assert_eq!(out.value, 500);
        assert_eq!(out.bisection_steps, 0, "degenerate bracket needs no search");
    }

    #[test]
    fn empty_context() {
        let dev = MemDevice::new(256);
        let ss = StreamSummary::<u64>::default();
        let ctx = QueryContext::new(&*dev, Vec::new(), &ss, 0.1, 4);
        assert!(ctx.accurate_rank(1).unwrap().is_none());
        assert!(ctx.scope().quick_rank(1).is_none());
    }

    #[test]
    fn stream_only_context() {
        let dev = MemDevice::new(256);
        let mut sp = StreamProcessor::new(0.025, 41);
        let data: Vec<u64> = (0..2000).map(|i| (i * 37) % 5000).collect();
        for &v in &data {
            sp.update(v);
        }
        let ss = sp.summary();
        let ctx = QueryContext::new(&*dev, Vec::new(), &ss, 0.1, 4);
        let out = ctx.accurate_rank(1000).unwrap().unwrap();
        let dist = rank_distance(&data, out.value, 1000);
        assert!(dist <= (0.1 * 2000.0) as u64 + 1, "off by {dist}");
        assert_eq!(
            out.io.total_reads(),
            0,
            "stream-only query must not hit disk"
        );
    }
}
