//! Sharded multi-tenant engine: hash-partitioned [`HistStreamQuantiles`]
//! shards with mergeable cross-shard queries.
//!
//! **Extension beyond the paper**, which serves one stream against one
//! warehouse. A production deployment (TidalRace-style, §1) serves many
//! independent streams at once; the standard lever for scaling sketch
//! systems is *mergeability*. Here it needs no sketch merge, because
//! ranks over a disjoint union add:
//!
//! `rank(z, T) = Σ_s rank(z, T_s)`  for any partitioning of `T` into
//! shards `T_s`.
//!
//! [`ShardedEngine`] hash-partitions items across `k` independent engine
//! shards (each with its own stream sketch and warehouse), fans
//! ingestion out per shard (parallel, via the bounded pool in
//! [`crate::parallel`]), and answers quantile/rank queries by *fan-in*: a
//! global value-space bisection over the summed per-shard
//! `(rank_lo, rank_hi)` bounds. Each shard contributes uncertainty at
//! most `ε·m_s`, so the summed bounds carry uncertainty at most
//! `ε·Σm_s = ε·m` — the combined answer keeps the exact same Theorem-2
//! guarantee as a single engine fed the union.
//!
//! Queries run against a [`ShardedSnapshot`] (one pinned
//! [`EngineSnapshot`] per shard), so readers proceed concurrently with
//! ingestion: take the snapshot under the writer's lock, query it
//! lock-free while `end_time_step` archives and merges underneath. A
//! single engine's snapshot is a `ShardedSnapshot` over its one shard.

use std::io;
use std::sync::{Arc, Mutex, PoisonError};

use hsq_storage::{BlockDevice, FileId, Item};

use crate::bounds::{CombinedSummary, SourceView};
use crate::config::HsqConfig;
use crate::engine::{EngineSnapshot, HistStreamQuantiles};
use crate::query::{FanIn, Plan, Plans, ProbeState, QueryOutcome, QueryScope, RankProbeSource};
use crate::warehouse::UpdateReport;

/// Shard index of item `e` among `shards`: a multiplicative hash of the
/// order-preserving key. Deterministic across runs and processes, so a
/// persisted sharded engine routes identically after recovery.
#[inline]
pub fn shard_index<T: Item>(e: T, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    // Fibonacci multiplicative hashing: cheap (one multiply) and mixes
    // sequential keys well; the top bits carry the entropy.
    let h = e.to_ordered_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}

/// A weighted fan-out unit: one shard paired with its routed chunk of
/// `(item, weight)` pairs.
type WeightedShardTask<'a, T, D> = (&'a mut HistStreamQuantiles<T, D>, &'a [(T, u64)]);

/// `k` independent engine shards behind one ingestion/query facade.
///
/// See the module docs for the design; see the crate-level quickstart for
/// an end-to-end example.
pub struct ShardedEngine<T: Item, D: BlockDevice> {
    shards: Vec<HistStreamQuantiles<T, D>>,
    config: HsqConfig,
    /// Reusable per-shard split buffers for [`ShardedEngine::stream_extend`].
    scratch: Vec<Vec<T>>,
    /// The last snapshot handed out, reused while every shard still
    /// answers through the views it holds (see [`Self::snapshot`]).
    view: Mutex<Option<ShardedSnapshot<T, D>>>,
}

impl<T: Item, D: BlockDevice> ShardedEngine<T, D> {
    /// One shard per device in `devices` (typically one device — disk,
    /// directory, or memory arena — per shard so their I/O is
    /// independent). All shards share `config`. Panics if `devices` is
    /// empty.
    pub fn new(devices: Vec<Arc<D>>, config: HsqConfig) -> Self {
        assert!(!devices.is_empty(), "at least one shard device required");
        let shards: Vec<_> = devices
            .into_iter()
            .map(|d| HistStreamQuantiles::new(d, config.clone()))
            .collect();
        let scratch = shards.iter().map(|_| Vec::new()).collect();
        ShardedEngine {
            shards,
            config,
            scratch,
            view: Mutex::new(None),
        }
    }

    /// Convenience: `n` shards on devices produced by `mk(shard_index)`.
    pub fn with_shards(n: usize, config: HsqConfig, mut mk: impl FnMut(usize) -> Arc<D>) -> Self {
        assert!(n > 0, "at least one shard required");
        Self::new((0..n).map(&mut mk).collect(), config)
    }

    /// The configuration shared by every shard.
    pub fn config(&self) -> &HsqConfig {
        &self.config
    }

    /// Number of shards `k`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to shard `i`.
    pub fn shard(&self, i: usize) -> &HistStreamQuantiles<T, D> {
        &self.shards[i]
    }

    /// Read access to all shards.
    pub fn shards(&self) -> &[HistStreamQuantiles<T, D>] {
        &self.shards
    }

    /// Total size `N` across shards.
    pub fn total_len(&self) -> u64 {
        self.shards.iter().map(|s| s.total_len()).sum()
    }

    /// Live stream size `m` across shards.
    pub fn stream_len(&self) -> u64 {
        self.shards.iter().map(|s| s.stream_len()).sum()
    }

    /// Historical size `n` across shards.
    pub fn historical_len(&self) -> u64 {
        self.shards.iter().map(|s| s.historical_len()).sum()
    }

    /// Summed summary/sketch memory across shards.
    pub fn memory_words(&self) -> usize {
        self.shards.iter().map(|s| s.memory_words()).sum()
    }

    /// Per-shard total sizes (balance inspection).
    pub fn shard_lens(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.total_len()).collect()
    }

    /// The shard that owns item `e`.
    pub fn shard_of(&self, e: T) -> usize {
        shard_index(e, self.shards.len())
    }

    /// `StreamUpdate(e)`: route one element to its shard.
    #[inline]
    pub fn stream_update(&mut self, e: T) {
        self.invalidate();
        let i = self.shard_of(e);
        self.shards[i].stream_update(e);
    }

    /// Batched `StreamUpdate`: split `batch` by shard hash, then run each
    /// shard's [`HistStreamQuantiles::stream_extend`] — up to
    /// [`crate::parallel::worker_count`] shards concurrently. Equivalent
    /// to routing every element through [`ShardedEngine::stream_update`],
    /// several times faster for batches of a few hundred and up.
    pub fn stream_extend(&mut self, batch: &[T]) {
        if batch.is_empty() {
            return;
        }
        self.invalidate();
        if self.shards.len() == 1 {
            self.shards[0].stream_extend(batch);
            return;
        }
        let k = self.shards.len();
        for bucket in &mut self.scratch {
            bucket.clear();
            bucket.reserve(batch.len() / k + 16);
        }
        for &e in batch {
            self.scratch[shard_index(e, k)].push(e);
        }
        let mut tasks: Vec<(&mut HistStreamQuantiles<T, D>, &[T])> = self
            .shards
            .iter_mut()
            .zip(self.scratch.iter().map(Vec::as_slice))
            .collect();
        crate::parallel::par_map_mut(&mut tasks, |_, (shard, chunk)| {
            if !chunk.is_empty() {
                shard.stream_extend(chunk);
            }
        });
        for bucket in &mut self.scratch {
            bucket.clear();
        }
    }

    /// Weighted `StreamUpdate(e, w)`: route one `(item, weight)` pair to
    /// its shard. Equivalent to `w` calls to
    /// [`ShardedEngine::stream_update`]; the shard's sketch ingests the
    /// weight natively (see [`HistStreamQuantiles::stream_update_weighted`]).
    #[inline]
    pub fn stream_update_weighted(&mut self, e: T, w: u64) {
        self.invalidate();
        let i = self.shard_of(e);
        self.shards[i].stream_update_weighted(e, w);
    }

    /// Batched weighted `StreamUpdate`: split `batch` by shard hash (the
    /// hash depends only on the item, so weighted routing agrees with
    /// unweighted), then fan out each shard's
    /// [`HistStreamQuantiles::stream_extend_weighted`] over the bounded
    /// pool. Rank bounds still sum across shards with `m` now the total
    /// *weight*, so cross-shard queries keep the `ε·W` guarantee.
    pub fn stream_extend_weighted(&mut self, batch: &[(T, u64)]) {
        if batch.is_empty() {
            return;
        }
        self.invalidate();
        if self.shards.len() == 1 {
            self.shards[0].stream_extend_weighted(batch);
            return;
        }
        let k = self.shards.len();
        let mut buckets: Vec<Vec<(T, u64)>> = (0..k)
            .map(|_| Vec::with_capacity(batch.len() / k + 16))
            .collect();
        for &(e, w) in batch {
            buckets[shard_index(e, k)].push((e, w));
        }
        let mut tasks: Vec<WeightedShardTask<'_, T, D>> = self
            .shards
            .iter_mut()
            .zip(buckets.iter().map(Vec::as_slice))
            .collect();
        crate::parallel::par_map_mut(&mut tasks, |_, (shard, chunk)| {
            if !chunk.is_empty() {
                shard.stream_extend_weighted(chunk);
            }
        });
    }

    /// End the time step on **every** shard (shards advance in lockstep,
    /// so per-shard partition layouts — and hence window alignment — stay
    /// identical). Archival runs up to [`crate::parallel::worker_count`]
    /// shards concurrently, each through
    /// [`HistStreamQuantiles::end_time_step`]; the first shard error is
    /// returned after every shard has finished its step. Returns one
    /// report per shard.
    pub fn end_time_step(&mut self) -> io::Result<Vec<UpdateReport>> {
        self.invalidate();
        crate::parallel::par_map_mut(&mut self.shards, |_, s| s.end_time_step())
            .into_iter()
            .collect()
    }

    /// Convenience: stream a whole batch, then end the time step.
    pub fn ingest_step(&mut self, batch: &[T]) -> io::Result<Vec<UpdateReport>> {
        self.stream_extend(batch);
        self.end_time_step()
    }

    /// Immutable cross-shard view for concurrent readers: one pinned
    /// [`EngineSnapshot`] per shard, taken from each shard's own view
    /// ([`HistStreamQuantiles::snapshot`]). It caches its cross-shard
    /// [`QueryScope`] per window on first use, and until the data changes
    /// every `snapshot()` is a handle to it, so the engine's own queries
    /// share those scopes: it is reused while every shard still hands out
    /// the view it was built from — a quarantine on one shard retires it.
    pub fn snapshot(&self) -> ShardedSnapshot<T, D> {
        let shards = self.shards.iter().map(|s| s.snapshot().shard(0).clone());
        let shards: Vec<_> = shards.collect();
        let mut view = self.view.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = view.as_ref().filter(|v| v.is_over(&shards)) {
            return v.clone();
        }
        view.insert(ShardedSnapshot::new(shards, &self.config))
            .clone()
    }

    /// Drop the cached snapshot before a mutation, so its pins never defer
    /// a delete the step makes.
    fn invalidate(&mut self) {
        *self.view.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Run `query` over `window` through the engines' one self-healing
    /// loop ([`HistStreamQuantiles::answer`]).
    fn run<R>(
        &self,
        window: Option<u64>,
        query: impl Fn(&QueryScope<T>, &mut FanIn<'_, T, D>) -> io::Result<Option<R>>,
    ) -> io::Result<Option<R>> {
        HistStreamQuantiles::answer(&self.shards, || self.snapshot(), window, query)
    }

    /// Accurate φ-quantile over the union of all shards (same `εm`
    /// guarantee as a single engine over the same data; see module docs).
    pub fn quantile(&self, phi: f64) -> io::Result<Option<T>> {
        self.run(None, |scope, fan| fan.quantile(scope, phi))
    }

    /// Accurate rank query over the union of all shards.
    pub fn rank_query(&self, r: u64) -> io::Result<Option<QueryOutcome<T>>> {
        self.run(None, |scope, fan| fan.rank_query(scope, r))
    }

    /// Batch of φ-quantiles over one shared snapshot.
    pub fn quantiles(&self, phis: &[f64]) -> io::Result<Vec<Option<T>>> {
        let all = self.run(None, |scope, fan| fan.quantiles(scope, phis).map(Some))?;
        Ok(all.expect("the full union always aligns"))
    }

    /// Quick φ-quantile (in-memory, error ≤ 1.5εN) over all shards.
    pub fn quantile_quick(&self, phi: f64) -> Option<T> {
        self.snapshot().quantile_quick(phi)
    }

    /// Window sizes answerable exactly across every shard, ascending.
    /// Shards advance in lockstep (shared step clock and retention
    /// policy), so this normally equals any single shard's windows.
    pub fn available_windows(&self) -> Vec<u64> {
        self.snapshot().available_windows()
    }

    /// Accurate φ-quantile over the union of every shard's live stream
    /// and newest `window_steps` retained steps (see
    /// [`ShardedSnapshot::quantile_in_window`]).
    pub fn quantile_in_window(&self, window_steps: u64, phi: f64) -> io::Result<Option<T>> {
        self.run(Some(window_steps), |scope, fan| fan.quantile(scope, phi))
    }

    /// Accurate cross-shard windowed rank query (see
    /// [`ShardedSnapshot::rank_in_window`]).
    pub fn rank_in_window(&self, window_steps: u64, r: u64) -> io::Result<Option<QueryOutcome<T>>> {
        self.run(Some(window_steps), |scope, fan| fan.rank_query(scope, r))
    }

    /// Persist every shard's warehouse metadata; returns one manifest
    /// [`FileId`] per shard (on that shard's device). Recover with
    /// [`ShardedEngine::recover`], passing the devices and manifests in
    /// the same shard order — routing is deterministic, so recovered
    /// shards keep receiving the same key ranges.
    pub fn persist(&self) -> io::Result<Vec<FileId>> {
        self.shards.iter().map(|s| s.persist()).collect()
    }

    /// Reopen a sharded engine persisted by [`ShardedEngine::persist`].
    pub fn recover(
        devices: Vec<Arc<D>>,
        config: HsqConfig,
        manifests: &[FileId],
    ) -> io::Result<Self> {
        assert_eq!(
            devices.len(),
            manifests.len(),
            "one manifest per shard device"
        );
        assert!(!devices.is_empty(), "at least one shard required");
        let shards = devices
            .into_iter()
            .zip(manifests)
            .map(|(d, &m)| HistStreamQuantiles::recover(d, config.clone(), m))
            .collect::<io::Result<Vec<_>>>()?;
        let scratch = shards.iter().map(|_| Vec::new()).collect();
        Ok(ShardedEngine {
            shards,
            config,
            scratch,
            view: Mutex::new(None),
        })
    }
}

/// An immutable cross-shard view (see [`ShardedEngine::snapshot`]):
/// per-shard pinned data plus the fan-in query machinery — the one
/// queryable pinned view, also [`HistStreamQuantiles::snapshot`]'s.
///
/// The snapshot is also the **query-plan cache**: the cross-shard plan
/// of each window (the scope — every in-window partition summary plus
/// every shard's stream summary, sorted and bounded, the expensive
/// per-query setup — and the partitions to probe) is built once on first
/// use. Repeated quantile/rank/window queries against one snapshot
/// therefore skip straight to the bisection. Clones are cheap handles to
/// the same view.
pub struct ShardedSnapshot<T: Item, D: BlockDevice> {
    view: Arc<ShardedView<T, D>>,
}

impl<T: Item, D: BlockDevice> Clone for ShardedSnapshot<T, D> {
    fn clone(&self) -> Self {
        ShardedSnapshot {
            view: Arc::clone(&self.view),
        }
    }
}

/// What a [`ShardedSnapshot`] shares among its handles.
struct ShardedView<T: Item, D: BlockDevice> {
    shards: Vec<EngineSnapshot<T, D>>,
    epsilon: f64,
    /// [`HsqConfig::strict`] at snapshot time.
    strict: bool,
    /// Per window, what [`EngineSnapshot::select`] chose to probe on each
    /// shard, and the cross-shard scope.
    plans: Plans<T>,
}

impl<T: Item, D: BlockDevice> ShardedSnapshot<T, D> {
    /// A view over the pinned `shards`, answering under `config`'s query
    /// `ε` and strictness.
    pub(crate) fn new(shards: Vec<EngineSnapshot<T, D>>, config: &HsqConfig) -> Self {
        ShardedSnapshot {
            view: Arc::new(ShardedView {
                shards,
                epsilon: config.query_epsilon(),
                strict: config.strict,
                plans: Plans::default(),
            }),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.view.shards.len()
    }

    /// The pinned data of shard `i`.
    pub fn shard(&self, i: usize) -> &EngineSnapshot<T, D> {
        &self.view.shards[i]
    }

    /// Total size `N` at snapshot time.
    pub fn total_len(&self) -> u64 {
        self.view.shards.iter().map(|s| s.total_len()).sum()
    }

    /// Stream size `m` at snapshot time.
    pub fn stream_len(&self) -> u64 {
        self.view.shards.iter().map(|s| s.stream_len()).sum()
    }

    /// Historical size `n` at snapshot time.
    pub fn historical_len(&self) -> u64 {
        self.view.shards.iter().map(|s| s.historical_len()).sum()
    }

    /// Items excluded by quarantine across every shard — the `rank_hi`
    /// widening cross-shard outcomes carry.
    pub fn quarantined_total(&self) -> u64 {
        self.view.shards.iter().map(|s| s.quarantined_mass()).sum()
    }

    /// The strict-mode gate over this snapshot (see
    /// [`crate::query::strict_gate`]).
    pub fn strict_gate(&self) -> io::Result<()> {
        crate::query::strict_gate(self.view.strict, self.quarantined_total())
    }

    /// The error parameter governing this snapshot's accurate responses
    /// (`4ε₂`, from [`crate::HsqConfig::query_epsilon`]): outcomes are
    /// rank-correct within `ε·m`, `m` = stream weight at snapshot time.
    /// A serving node hands this to its coordinator so remote and
    /// in-process acceptance windows are bit-identical.
    pub fn query_epsilon(&self) -> f64 {
        self.view.epsilon
    }

    /// Window sizes (in snapshot-time steps) answerable exactly across
    /// **every** shard, ascending. Shards normally advance in lockstep so
    /// their partition layouts align; byte-driven retention can retire
    /// different step ranges per shard, in which case only windows aligned
    /// on all shards are offered.
    pub fn available_windows(&self) -> Vec<u64> {
        let mut iter = self.view.shards.iter();
        let Some(first) = iter.next() else {
            return Vec::new();
        };
        let mut common: Vec<u64> = first.available_windows();
        for s in iter {
            let w = s.available_windows();
            common.retain(|x| w.contains(x));
        }
        common
    }

    /// Whether this snapshot is built over exactly the shard views `shards`.
    fn is_over(&self, shards: &[EngineSnapshot<T, D>]) -> bool {
        let each = self.view.shards.iter().zip(shards);
        self.view.shards.len() == shards.len() && each.into_iter().all(|(a, b)| a.same_view(b))
    }

    /// The cached plan of `window`, selected once per (snapshot, window).
    /// `None` — also cached — when any shard misaligns with the boundary.
    fn plan(&self, window: Option<u64>) -> Option<Arc<Plan<T>>> {
        self.view.plans.get(window, || {
            let each = self.view.shards.iter().map(|s| s.select(window));
            let (totals, parts): (Vec<u64>, _) =
                each.collect::<Option<Vec<_>>>()?.into_iter().unzip();
            Some((totals.iter().sum(), parts))
        })
    }

    /// The source views of the per-shard selections `parts`, shard order.
    fn sources(&self, parts: &[Vec<usize>]) -> Vec<SourceView<T>> {
        let each = self.view.shards.iter().zip(parts);
        each.flat_map(|(s, selected)| s.source_views(selected))
            .collect()
    }

    /// Every per-source view the scope of `window` is built from — each
    /// shard's in-window, non-quarantined partition summaries plus its
    /// stream summary, in shard order — and the scope's total size.
    /// `None` when the window misaligns with partition boundaries on any
    /// shard. This is the *summary extract* a serving node ships to a
    /// coordinator: rebuilding [`CombinedSummary::build`] over the
    /// concatenated extracts of disjoint nodes reproduces the union's
    /// summary exactly, whatever order the sources arrive in. Its values
    /// are a sorted multiset; its bounds are sums of per-source steps,
    /// which do not depend on the order they are added in; and the sweep
    /// gives every member of a run of equal values the sum after the whole
    /// run, so how the sort orders ties cannot show. Remotely seeded
    /// bisection brackets therefore match the in-process ones bit for bit.
    pub fn source_views(&self, window: Option<u64>) -> Option<(Vec<SourceView<T>>, u64)> {
        let plan = self.plan(window)?;
        Some((self.sources(&plan.parts), plan.total))
    }

    /// The plan's scope, built on first use.
    fn plan_scope<'p>(&self, plan: &'p Plan<T>) -> &'p QueryScope<T> {
        plan.scope(|plan| {
            QueryScope::new(
                &self.sources(&plan.parts),
                plan.total,
                self.stream_len(),
                self.view.epsilon,
            )
            .with_excluded(self.quarantined_total(), 0)
            .with_strict(self.view.strict)
        })
    }

    /// The cross-shard scope of `window` (`None` = the full union), built
    /// once per (snapshot, window); `None` when the window misaligns.
    pub fn scope(&self, window: Option<u64>) -> Option<QueryScope<T>> {
        self.plan(window).map(|p| self.plan_scope(&p).clone())
    }

    /// The combined summary `TS` over **all** shards' sources — every
    /// partition summary plus every shard's stream summary. Bounds add
    /// across disjoint sources, so this is exactly the single-engine `TS`
    /// of the union (paper §2.3.1) and powers quick responses and filter
    /// generation. Built once per snapshot, on first use.
    pub fn combined_summary(&self) -> Arc<CombinedSummary<T>> {
        let scope = self.scope(None).expect("the full union always aligns");
        Arc::clone(scope.combined_summary())
    }

    /// One probe state per shard, for [`ShardedSnapshot::probes`].
    /// Callers probing concurrently (e.g. one serving connection per
    /// tenant) hold their own set; the snapshot itself stays shared.
    pub fn new_cache_set(&self) -> Vec<ProbeState<T>> {
        self.view
            .shards
            .iter()
            .map(|_| ProbeState::default())
            .collect()
    }

    fn fan_in<'a>(&'a self, plan: &Plan<T>, states: &'a mut [ProbeState<T>]) -> FanIn<'a, T, D> {
        assert_eq!(
            states.len(),
            self.view.shards.len(),
            "one probe state per shard"
        );
        let each = self.view.shards.iter().zip(&plan.parts).zip(states);
        let shards = each.map(|((s, selected), state)| s.probes(selected, state));
        FanIn::new(shards.collect())
    }

    /// The fan-in probe source over `window`: one
    /// [`crate::query::PartitionProbes`] per shard, keeping caches and
    /// probed ranks in `states` (one per shard, from
    /// [`ShardedSnapshot::new_cache_set`]). `None` when the window
    /// misaligns.
    ///
    /// Public because it is the per-node probe of the networked fan-in:
    /// a serving node answers each probe round with exactly this sum,
    /// and bounds from disjoint nodes add, so a coordinator bisecting
    /// over node-summed bounds inherits the in-process guarantee.
    pub fn probes<'a>(
        &'a self,
        window: Option<u64>,
        states: &'a mut [ProbeState<T>],
    ) -> Option<FanIn<'a, T, D>> {
        Some(self.fan_in(&*self.plan(window)?, states))
    }

    /// Summed `rank(z)` bounds across shards over the full union (one
    /// probe of [`ShardedSnapshot::probes`]).
    pub fn probe_bounds(&self, z: T, caches: &mut [ProbeState<T>]) -> io::Result<(u64, u64)> {
        let probes = self.probes(None, caches);
        probes.expect("the full union always aligns").probe(z)
    }

    /// Run `query` with the scope of `window` and a fresh fan-in over it
    /// (cold caches); `Ok(None)` when the window misaligns.
    pub(crate) fn answer<R>(
        &self,
        window: Option<u64>,
        query: impl FnOnce(&QueryScope<T>, &mut FanIn<'_, T, D>) -> io::Result<Option<R>>,
    ) -> io::Result<Option<R>> {
        let Some(plan) = self.plan(window) else {
            return Ok(None);
        };
        let mut states = self.new_cache_set();
        query(self.plan_scope(&plan), &mut self.fan_in(&plan, &mut states))
    }

    /// Quick φ-quantile over all shards (Algorithm 5 over the cross-shard
    /// `TS`): in-memory only, error ≤ 1.5·ε·N.
    pub fn quantile_quick(&self, phi: f64) -> Option<T> {
        self.scope(None)?.quick_quantile(phi)
    }

    /// Accurate φ-quantile over the union of all shards.
    pub fn quantile(&self, phi: f64) -> io::Result<Option<T>> {
        Ok(self.quantiles(&[phi])?[0])
    }

    /// Batch of φ-quantiles over this snapshot, sharing one cross-shard
    /// scope and one set of block caches across the whole batch: cheaper
    /// than separate [`Self::quantile`] calls (which already share the
    /// scope) when reporting e.g. p50/p95/p99 together.
    pub fn quantiles(&self, phis: &[f64]) -> io::Result<Vec<Option<T>>> {
        let all = self.answer(None, |scope, fan| fan.quantiles(scope, phis).map(Some))?;
        Ok(all.expect("the full union always aligns"))
    }

    /// Accurate cross-shard rank query (the fan-in described in the
    /// module docs): value-space bisection over summed per-shard rank
    /// bounds, filters seeded from the cross-shard combined summary.
    /// Error ≤ ε·m over the union, `m` = total stream size at snapshot
    /// time.
    pub fn rank_query(&self, r: u64) -> io::Result<Option<QueryOutcome<T>>> {
        self.answer(None, |scope, fan| fan.rank_query(scope, r))
    }

    /// Accurate φ-quantile over the union of every shard's live stream
    /// and newest `window_steps` retained steps. `Ok(None)` when the
    /// window misaligns with partition boundaries on any shard. Same
    /// `ε·m` guarantee as [`ShardedSnapshot::quantile`], over the
    /// windowed union.
    pub fn quantile_in_window(&self, window_steps: u64, phi: f64) -> io::Result<Option<T>> {
        self.answer(Some(window_steps), |scope, fan| fan.quantile(scope, phi))
    }

    /// Accurate cross-shard rank query over a window: the same fan-in
    /// bisection as [`ShardedSnapshot::rank_query`], with per-shard
    /// bounds summed over each shard's window partitions plus its stream
    /// summary.
    pub fn rank_in_window(&self, window_steps: u64, r: u64) -> io::Result<Option<QueryOutcome<T>>> {
        self.answer(Some(window_steps), |scope, fan| fan.rank_query(scope, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsq_storage::MemDevice;

    fn sharded(n: usize, eps: f64, kappa: usize) -> ShardedEngine<u64, MemDevice> {
        let cfg = HsqConfig::builder()
            .epsilon(eps)
            .merge_threshold(kappa)
            .build();
        ShardedEngine::with_shards(n, cfg, |_| MemDevice::new(256))
    }

    fn gen_stream(seed: u64, len: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 33
            })
            .collect()
    }

    fn rank_distance(sorted: &[u64], v: u64, r: u64) -> u64 {
        let hi = sorted.partition_point(|&x| x <= v) as u64;
        let lo = sorted.partition_point(|&x| x < v) as u64 + 1;
        if lo > hi {
            return r.abs_diff(hi);
        }
        if r < lo {
            lo - r
        } else {
            r.saturating_sub(hi)
        }
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let e = sharded(4, 0.1, 3);
        for v in gen_stream(9, 500) {
            let i = e.shard_of(v);
            assert!(i < 4);
            assert_eq!(i, e.shard_of(v));
            assert_eq!(i, shard_index(v, 4));
        }
        assert_eq!(shard_index(12345u64, 1), 0);
    }

    #[test]
    fn hash_split_is_roughly_balanced() {
        let mut e = sharded(4, 0.1, 4);
        e.stream_extend(&gen_stream(77, 8000));
        let lens: Vec<u64> = e.shards().iter().map(|s| s.stream_len()).collect();
        assert_eq!(lens.iter().sum::<u64>(), 8000);
        for &l in &lens {
            assert!(
                (1000..3000).contains(&l),
                "imbalanced shard sizes: {lens:?}"
            );
        }
    }

    #[test]
    fn sharded_matches_exact_within_guarantee() {
        for n in [1usize, 2, 4] {
            let eps = 0.05;
            let mut e = sharded(n, eps, 3);
            let mut all: Vec<u64> = Vec::new();
            for step in 0..6u64 {
                let batch = gen_stream(step + 1, 400);
                all.extend(&batch);
                e.ingest_step(&batch).unwrap();
            }
            let stream = gen_stream(99, 400);
            all.extend(&stream);
            e.stream_extend(&stream);
            assert_eq!(e.total_len(), all.len() as u64);
            all.sort_unstable();
            let m = 400u64;
            let allowed = (eps * m as f64).ceil() as u64 + 1;
            for phi in [0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
                let v = e.quantile(phi).unwrap().unwrap();
                let r = ((phi * all.len() as f64).ceil() as u64).clamp(1, all.len() as u64);
                let dist = rank_distance(&all, v, r);
                assert!(
                    dist <= allowed,
                    "n={n} phi={phi}: off by {dist} (allowed {allowed})"
                );
            }
        }
    }

    #[test]
    fn scalar_and_batched_routes_agree() {
        let data = gen_stream(5, 600);
        let mut a = sharded(3, 0.1, 3);
        let mut b = sharded(3, 0.1, 3);
        for &v in &data {
            a.stream_update(v);
        }
        b.stream_extend(&data);
        assert_eq!(a.shard_lens(), b.shard_lens());
        assert_eq!(a.total_len(), 600);
    }

    #[test]
    fn weighted_sharded_matches_replicated() {
        // Weighted ingest across shards ≡ replicated unweighted ingest:
        // same routing (the hash ignores the weight), quantiles within
        // ε·W of the replicated exact answer, for 1, 2 and 8 shards.
        for n in [1usize, 2, 8] {
            let eps = 0.05;
            let mut e = sharded(n, eps, 3);
            let items = gen_stream(41, 1200);
            let pairs: Vec<(u64, u64)> = items
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, (i as u64 % 5) + 1))
                .collect();
            // Interleave batched and scalar weighted routes.
            e.stream_extend_weighted(&pairs[..800]);
            for &(v, w) in &pairs[800..] {
                e.stream_update_weighted(v, w);
            }
            let mut replicated: Vec<u64> = Vec::new();
            for &(v, w) in &pairs {
                replicated.extend(std::iter::repeat_n(v, w as usize));
            }
            let total_w: u64 = pairs.iter().map(|&(_, w)| w).sum();
            assert_eq!(e.stream_len(), total_w, "n={n}: m must be summed weight");
            replicated.sort_unstable();
            let allowed = (eps * total_w as f64).ceil() as u64 + 1;
            for phi in [0.1, 0.5, 0.9, 1.0] {
                let v = e.quantile(phi).unwrap().unwrap();
                let r = ((phi * total_w as f64).ceil() as u64).clamp(1, total_w);
                let dist = rank_distance(&replicated, v, r);
                assert!(
                    dist <= allowed,
                    "n={n} phi={phi}: off by {dist} (allowed {allowed})"
                );
            }
            // Zero-weight pairs are dropped everywhere.
            e.stream_extend_weighted(&[(7, 0), (9, 0)]);
            e.stream_update_weighted(11, 0);
            assert_eq!(e.stream_len(), total_w);
        }
    }

    #[test]
    fn quick_queries_touch_no_disk() {
        let mut e = sharded(4, 0.05, 3);
        for step in 0..4u64 {
            e.ingest_step(&gen_stream(step + 1, 500)).unwrap();
        }
        let before: u64 = e
            .shards()
            .iter()
            .map(|s| s.warehouse().device().stats().snapshot().total_reads())
            .sum();
        let snap = e.snapshot();
        let _ = snap.quantile_quick(0.5);
        let _ = snap.quantile_quick(0.95);
        let after: u64 = e
            .shards()
            .iter()
            .map(|s| s.warehouse().device().stats().snapshot().total_reads())
            .sum();
        assert_eq!(after, before, "quick responses must stay in memory");
    }

    #[test]
    fn snapshot_outlives_merges() {
        let mut e = sharded(2, 0.1, 2);
        for step in 0..3u64 {
            let batch: Vec<u64> = (0..300).map(|i| step * 300 + i).collect();
            e.ingest_step(&batch).unwrap();
        }
        let snap = e.snapshot();
        let before = snap.quantile(0.5).unwrap().unwrap();
        // Trigger cascade merges on both shards.
        for step in 3..9u64 {
            let batch: Vec<u64> = (0..300).map(|i| step * 300 + i).collect();
            e.ingest_step(&batch).unwrap();
        }
        assert_eq!(snap.total_len(), 900);
        assert_eq!(snap.quantile(0.5).unwrap().unwrap(), before);
        assert!((before as i64 - 450).abs() <= 5, "median {before}");
    }

    #[test]
    fn persist_recover_roundtrip() {
        let mut e = sharded(3, 0.1, 3);
        let mut all: Vec<u64> = Vec::new();
        for step in 0..5u64 {
            let batch = gen_stream(step + 11, 300);
            all.extend(&batch);
            e.ingest_step(&batch).unwrap();
        }
        let manifests = e.persist().unwrap();
        let devices: Vec<_> = e
            .shards()
            .iter()
            .map(|s| Arc::clone(s.warehouse().device()))
            .collect();
        let cfg = e.config().clone();
        let recovered = ShardedEngine::<u64, _>::recover(devices, cfg, &manifests).unwrap();
        assert_eq!(recovered.total_len(), e.total_len());
        assert_eq!(recovered.num_shards(), 3);
        all.sort_unstable();
        // History-only: recovered queries are near exact (m = 0).
        let med = recovered.quantile(0.5).unwrap().unwrap();
        let r = (all.len() as u64).div_ceil(2);
        assert!(rank_distance(&all, med, r) <= 1, "median {med}");
    }

    #[test]
    fn empty_and_degenerate() {
        let e = sharded(4, 0.1, 3);
        assert!(e.quantile(0.5).unwrap().is_none());
        assert!(e.quantile_quick(0.5).is_none());
        assert_eq!(e.total_len(), 0);
        let mut e = e;
        e.stream_extend(&[]);
        let reports = e.end_time_step().unwrap();
        assert_eq!(reports.len(), 4);
        // One value total: every quantile answers it.
        e.stream_update(42);
        assert_eq!(e.quantile(0.5).unwrap(), Some(42));
        assert_eq!(e.quantile(1.0).unwrap(), Some(42));
    }

    #[test]
    fn windowed_cross_shard_queries_match_window_data() {
        for n in [1usize, 2, 4] {
            let mut e = sharded(n, 0.05, 2);
            let mut steps: Vec<Vec<u64>> = Vec::new();
            for step in 0..13u64 {
                let batch: Vec<u64> = (0..120).map(|i| step * 120 + i).collect();
                steps.push(batch.clone());
                e.ingest_step(&batch).unwrap();
            }
            let windows = e.available_windows();
            assert_eq!(windows, vec![1, 4, 13], "n={n}");
            for &w in &windows {
                let mut win: Vec<u64> = steps[steps.len() - w as usize..]
                    .iter()
                    .flatten()
                    .copied()
                    .collect();
                win.sort_unstable();
                // Empty stream: answers over the window are exact.
                let med = e.quantile_in_window(w, 0.5).unwrap().unwrap();
                let r = (win.len() as u64).div_ceil(2);
                assert_eq!(med, win[r as usize - 1], "n={n} w={w}");
                let out = e.rank_in_window(w, 1).unwrap().unwrap();
                assert_eq!(out.value, win[0], "n={n} w={w} min");
            }
            // Misaligned window refused, matching the single-engine API.
            assert!(e.quantile_in_window(2, 0.5).unwrap().is_none());
        }
    }

    #[test]
    fn windowed_cross_shard_includes_live_stream() {
        let mut e = sharded(3, 0.05, 3);
        for step in 0..3u64 {
            let batch: Vec<u64> = (0..200).map(|i| step * 200 + i).collect();
            e.ingest_step(&batch).unwrap();
        }
        let live: Vec<u64> = (600..800).collect();
        e.stream_extend(&live);
        // Window 1 = step 3 (400..600) + stream (600..800): median ~600.
        let med = e.quantile_in_window(1, 0.5).unwrap().unwrap();
        assert!((580..630).contains(&med), "median {med}");
    }

    #[test]
    fn sharded_retention_applies_per_shard() {
        let cfg = HsqConfig::builder()
            .epsilon(0.1)
            .merge_threshold(3)
            .retention(crate::retention::RetentionPolicy::unbounded().with_max_age_steps(4))
            .build();
        let mut e = ShardedEngine::<u64, _>::with_shards(4, cfg, |_| MemDevice::new(256));
        for step in 0..16u64 {
            e.ingest_step(&gen_stream(step + 1, 400)).unwrap();
        }
        for s in e.shards() {
            let horizon = s.warehouse().steps().saturating_sub(4);
            for p in s.warehouse().partitions_newest_first() {
                assert!(p.last_step > horizon, "shard retained expired data");
            }
        }
        // Shards advance in lockstep: windows still align across shards.
        let windows = e.available_windows();
        assert!(!windows.is_empty());
        assert!(*windows.last().unwrap() <= 4);
        let med = e.quantile_in_window(*windows.last().unwrap(), 0.5).unwrap();
        assert!(med.is_some());
    }

    #[test]
    fn cached_snapshot_queries_are_identical_to_fresh() {
        // The snapshot's cached combined summary and window plans must
        // change nothing: repeated queries on one snapshot answer exactly
        // like first queries on fresh snapshots, for 1, 2 and 8 shards.
        for n in [1usize, 2, 8] {
            let build = || {
                let mut e = sharded(n, 0.05, 2);
                for step in 0..13u64 {
                    e.ingest_step(&gen_stream(step + 3, 250)).unwrap();
                }
                e.stream_extend(&gen_stream(500, 200));
                e
            };
            // An engine hands out one view until its data changes, so a
            // fresh snapshot comes from a twin engine fed the same data.
            let fresh = || build().snapshot();
            let reused = build().snapshot();
            for round in 0..3 {
                for r in [1u64, 300, 1500, 3000] {
                    let fresh = fresh().rank_query(r).unwrap().unwrap();
                    let cached = reused.rank_query(r).unwrap().unwrap();
                    assert_eq!(fresh.value, cached.value, "n={n} round={round} r={r}");
                    assert_eq!(fresh.estimated_rank, cached.estimated_rank);
                    assert_eq!(fresh.bisection_steps, cached.bisection_steps);
                }
                for w in reused.available_windows() {
                    let fresh = fresh().rank_in_window(w, 100).unwrap().unwrap();
                    let cached = reused.rank_in_window(w, 100).unwrap().unwrap();
                    assert_eq!(fresh.value, cached.value, "n={n} w={w}");
                    assert_eq!(fresh.estimated_rank, cached.estimated_rank);
                }
                // Misaligned windows stay refused (and cache as None).
                assert!(reused.rank_in_window(2, 10).unwrap().is_none());
            }
        }
    }

    #[test]
    fn snapshot_summary_is_built_once_and_shared() {
        let mut e = sharded(4, 0.1, 3);
        for step in 0..6u64 {
            e.ingest_step(&gen_stream(step + 1, 300)).unwrap();
        }
        let snap = e.snapshot();
        let a = snap.combined_summary();
        let _ = snap.quantile(0.5).unwrap();
        let _ = snap.quantile(0.9).unwrap();
        let b = snap.combined_summary();
        assert!(
            Arc::ptr_eq(&a, &b),
            "combined summary must be cached, not rebuilt"
        );
        // Window scopes likewise.
        let w = *snap.available_windows().first().unwrap();
        assert!(Arc::ptr_eq(
            snap.scope(Some(w)).unwrap().combined_summary(),
            snap.scope(Some(w)).unwrap().combined_summary()
        ));
    }

    #[test]
    fn snapshots_share_one_view_until_the_data_changes() {
        let mut e = sharded(2, 0.1, 3);
        for step in 0..4u64 {
            e.ingest_step(&gen_stream(step + 1, 300)).unwrap();
        }
        let ts = |e: &ShardedEngine<u64, MemDevice>| e.snapshot().combined_summary();
        let first = ts(&e);
        e.quantile(0.5).unwrap();
        e.rank_in_window(1, 10).unwrap();
        assert!(Arc::ptr_eq(&first, &ts(&e)), "queries keep the view");
        e.stream_extend(&gen_stream(9, 50));
        let second = ts(&e);
        assert!(!Arc::ptr_eq(&first, &second), "an ingest retires it");
        // A quarantine on one shard lands through `&self`, and retires it.
        let part = e.shard(1).warehouse().partitions_newest_first()[0].run;
        assert!(e.shard(1).warehouse().quarantine(part.file()));
        assert!(!Arc::ptr_eq(&second, &ts(&e)), "a quarantine retires it");
        assert_eq!(e.snapshot().quarantined_total(), part.len());
    }

    #[test]
    fn probe_state_reused_over_other_partitions_is_reset() {
        // κ = 3: two level-0 partitions after step 2, one merged level-1
        // partition plus one level-0 after step 5 — same count, other
        // files. Ranks remembered from the first must not bound the second.
        let mut e = sharded(1, 0.1, 3);
        let mut all = Vec::new();
        let step = |e: &mut ShardedEngine<u64, MemDevice>, all: &mut Vec<u64>, i: u64| {
            let batch = gen_stream(i + 1, 400);
            all.extend(&batch);
            e.ingest_step(&batch).unwrap();
        };
        (0..2).for_each(|i| step(&mut e, &mut all, i));
        let early = e.snapshot();
        let mut states = early.new_cache_set();
        let zs = [1u64 << 29, 1 << 31, 1 << 30];
        for z in zs {
            early.probe_bounds(z, &mut states).unwrap();
        }
        (2..5).for_each(|i| step(&mut e, &mut all, i));
        let late = e.snapshot();
        let parts = |s: &ShardedSnapshot<u64, MemDevice>| s.shard(0).leveled_partitions().len();
        assert_eq!(parts(&early), parts(&late));
        for z in zs {
            let truth = all.iter().filter(|&&x| x <= z).count() as u64;
            let reused = late.probe_bounds(z, &mut states).unwrap();
            assert_eq!(reused, (truth, truth), "z={z}: no stream, so exact");
        }
    }

    #[test]
    fn rank_query_reports_estimated_rank() {
        let mut e = sharded(2, 0.05, 3);
        for step in 0..4u64 {
            let batch: Vec<u64> = (0..500).map(|i| step * 500 + i).collect();
            e.ingest_step(&batch).unwrap();
        }
        // No stream: estimates are exact.
        let out = e.rank_query(1000).unwrap().unwrap();
        assert_eq!(out.estimated_rank, 1000);
        assert_eq!(out.value, 999);
    }
}
