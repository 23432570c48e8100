//! The top-level engine: integrated quantile processing over historical
//! plus streaming data (the paper's full system, Figure 1).
//!
//! [`HistStreamQuantiles`] owns:
//! * a [`Warehouse`] (`HD` + `HS`) on a caller-supplied block device;
//! * a [`StreamProcessor`] (pluggable GK or KLL sketch, selected by
//!   [`HsqConfig`]'s `sketch` knob) absorbing the live stream;
//! * the staging buffer holding the current time step's raw data, which is
//!   archived into the warehouse when [`HistStreamQuantiles::end_time_step`]
//!   is called (and the stream sketch reset — Algorithm 4's `StreamReset`).
//!
//! Queries (Theorem 2's guarantee: rank error ≤ `εm`) are answered over
//! `T = H ∪ R` by [`HistStreamQuantiles::quantile`] /
//! [`HistStreamQuantiles::rank_query`]; cheap in-memory answers with error
//! `O(εN)` by the `*_quick` variants; partition-aligned window queries by
//! the `*_in_window` variants. All of them run the one path in
//! [`crate::query`] over the engine's view, a [`ShardedSnapshot`] over
//! its one shard ([`EngineSnapshot`]: pinned data only), inside the
//! self-healing loop both engines share (`HistStreamQuantiles::answer`).

use std::io;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use hsq_storage::{corruption_in, is_transient, BlockDevice, FileId, Item};

use crate::bounds::SourceView;
use crate::config::HsqConfig;
use crate::query::{source_views, FanIn, PartitionProbes, ProbeState, QueryOutcome, QueryScope};
use crate::sharded::ShardedSnapshot;
use crate::stream::{StreamProcessor, StreamSummary};
use crate::warehouse::{PinGuard, StoredPartition, UpdateReport, Warehouse};

/// Integrated quantile engine over the union of historical and streaming
/// data.
///
/// See the crate-level docs for a full example.
pub struct HistStreamQuantiles<T: Item, D: BlockDevice> {
    warehouse: Warehouse<T, D>,
    stream: StreamProcessor<T>,
    staging: Vec<T>,
    /// End offsets of sorted segments inside `staging`; everything past
    /// the last offset is the unsorted tail fed by scalar
    /// [`HistStreamQuantiles::stream_update`] calls. Batched ingestion
    /// appends pre-sorted segments so [`HistStreamQuantiles::end_time_step`]
    /// archives with one segment merge instead of a full re-sort.
    staging_segments: Vec<usize>,
    /// Time spent sorting staging segments during the current step,
    /// folded into the next `UpdateReport::sort_time`.
    staging_sort_time: std::time::Duration,
    config: HsqConfig,
    /// The view queries and [`Self::snapshot`] share until the data
    /// changes; `None` until first asked for.
    view: Mutex<Option<ShardedSnapshot<T, D>>>,
}

impl<T: Item, D: BlockDevice> HistStreamQuantiles<T, D> {
    /// Create an engine on `dev` with the given configuration
    /// (Algorithm 1's initialization).
    pub fn new(dev: Arc<D>, config: HsqConfig) -> Self {
        let stream = StreamProcessor::with_kind(config.sketch, config.epsilon2, config.beta2);
        HistStreamQuantiles {
            warehouse: Warehouse::new(dev, config.clone()),
            stream,
            staging: Vec::new(),
            staging_segments: Vec::new(),
            staging_sort_time: std::time::Duration::ZERO,
            config,
            view: Mutex::new(None),
        }
    }

    /// φ-heavy hitters (extension beyond the paper's figures; see
    /// [`crate::heavy`]): every value occurring at least `⌈φN⌉` times
    /// (and at least once) in `T = H ∪ R`, most frequent first, with
    /// exact counts — historical ones from the sorted partitions, stream
    /// ones from the staged items. Needs no setup, and answers alike
    /// after [`Self::persist`] and [`Self::recover`], which carry the
    /// staged items. Quarantined partitions are skipped, as the quantile
    /// queries skip them: the counts exclude their mass (the threshold
    /// does not). Under [`HsqConfig::strict`] any quarantined mass
    /// refuses the query instead.
    pub fn heavy_hitters(&self, phi: f64) -> io::Result<Vec<crate::heavy::HeavyHitter<T>>> {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        crate::query::strict_gate(self.config.strict, self.warehouse.quarantined_mass())?;
        let threshold = ((phi * self.total_len() as f64).ceil() as u64).max(1);
        let cache_blocks = self.config.cache_blocks;
        crate::heavy::heavy_hitters(&self.warehouse, &self.staging, threshold, cache_blocks)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HsqConfig {
        &self.config
    }

    /// The historical warehouse (read access for inspection).
    pub fn warehouse(&self) -> &Warehouse<T, D> {
        &self.warehouse
    }

    /// The live stream processor (read access for inspection).
    pub fn stream(&self) -> &StreamProcessor<T> {
        &self.stream
    }

    /// Current stream size `m`.
    pub fn stream_len(&self) -> u64 {
        self.stream.len()
    }

    /// Historical size `n`.
    pub fn historical_len(&self) -> u64 {
        self.warehouse.total_len()
    }

    /// Total size `N = n + m`.
    pub fn total_len(&self) -> u64 {
        self.historical_len() + self.stream_len()
    }

    /// Words of main memory held by the algorithm's summaries
    /// (`HS` + stream sketch; Observation 1's quantity).
    pub fn memory_words(&self) -> usize {
        self.warehouse.summary_memory_words() + self.stream.memory_words()
    }

    /// `StreamUpdate(e)`: one streaming element arrives. Under GK each
    /// call is a whole merge pass over the sketch's tuples (O(tuples));
    /// callers with many items should batch them through
    /// [`HistStreamQuantiles::stream_extend`].
    #[inline]
    pub fn stream_update(&mut self, e: T) {
        self.invalidate();
        self.stream.update(e);
        self.staging.push(e);
    }

    /// Batched `StreamUpdate`: absorb a whole slice of streaming elements
    /// at once. The batch is sorted once; the sorted copy feeds the stream
    /// sketch in one sorted-batch absorption (a linear merge for GK, a
    /// buffered append for KLL — see [`hsq_sketch::AnySketch`])
    /// and is kept as a sorted staging segment, so the following
    /// [`HistStreamQuantiles::end_time_step`] archives without re-sorting
    /// it. Equivalent (same multiset, same `ε` guarantees) to calling
    /// [`HistStreamQuantiles::stream_update`] per element, several times
    /// faster for batches of a few hundred elements and up.
    pub fn stream_extend(&mut self, batch: &[T]) {
        if batch.is_empty() {
            return;
        }
        self.invalidate();
        self.seal_staging_tail();
        let start = self.staging.len();
        self.staging.extend_from_slice(batch);
        let t0 = Instant::now();
        hsq_storage::sort_items(&mut self.staging[start..]);
        self.staging_sort_time += t0.elapsed();
        self.stream.ingest_sorted_batch(&self.staging[start..]);
        self.staging_segments.push(self.staging.len());
    }

    /// `StreamUpdate(e, w)`: one streaming element with multiplicity `w`
    /// (sampled or pre-aggregated telemetry). Counts `w` toward the
    /// stream size `m` and stages `w` raw copies for archival, so every
    /// guarantee stays `ε·m` with `m` the summed weight and the archived
    /// multiset is exactly what the sketch absorbed. KLL places the
    /// weight in O(log w); GK merges it as one run in a pass over its
    /// tuples (O(tuples)).
    pub fn stream_update_weighted(&mut self, e: T, w: u64) {
        if w == 0 {
            return;
        }
        self.invalidate();
        self.stream.update_weighted(e, w);
        self.staging.extend(std::iter::repeat_n(e, w as usize));
    }

    /// Batched weighted `StreamUpdate`: absorb `(value, weight)` pairs at
    /// once. The sketch ingests the weights natively — KLL decomposes each
    /// onto its levels in O(log w), GK merges the pairs as runs in one
    /// linear pass — while staging expands them into replicated raw copies (sorted,
    /// recorded as one segment) so archival and recovery see the exact
    /// multiset. Equivalent to `w`-fold [`HistStreamQuantiles::stream_update`]
    /// per pair, without paying `Σw` sketch updates.
    pub fn stream_extend_weighted(&mut self, batch: &[(T, u64)]) {
        let total: u64 = batch.iter().map(|&(_, w)| w).sum();
        if total == 0 {
            return;
        }
        self.invalidate();
        self.seal_staging_tail();
        let mut pairs: Vec<(T, u64)> = batch.iter().copied().filter(|&(_, w)| w > 0).collect();
        let t0 = Instant::now();
        pairs.sort_unstable_by_key(|a| a.0);
        self.staging.reserve(total as usize);
        for &(v, w) in &pairs {
            self.staging.extend(std::iter::repeat_n(v, w as usize));
        }
        self.staging_sort_time += t0.elapsed();
        self.stream.ingest_weighted_sorted_batch(&pairs);
        self.staging_segments.push(self.staging.len());
    }

    /// Sort the unsorted staging tail (scalar updates since the last
    /// batch) and record it as a sorted segment.
    fn seal_staging_tail(&mut self) {
        let sealed = self.staging_segments.last().copied().unwrap_or(0);
        if self.staging.len() > sealed {
            let t0 = Instant::now();
            hsq_storage::sort_items(&mut self.staging[sealed..]);
            self.staging_sort_time += t0.elapsed();
            self.staging_segments.push(self.staging.len());
        }
    }

    /// End the current time step: archive the staged batch into the
    /// warehouse (Algorithm 3 `HistUpdate`) and reset the stream summary
    /// (Algorithm 4 `StreamReset`). Returns the update's cost breakdown.
    ///
    /// Staging is kept as sorted segments, so archival costs one merge of
    /// the segments — zero-copy when the stream arrived in nondecreasing
    /// segment order, otherwise through the same block-at-a-time kernel
    /// that merges partitions ([`hsq_storage::merge_sources`]) — plus the
    /// sorted store; a full re-sort only ever touches the scalar tail.
    /// The reported `sort_time` includes the staging sorts paid during
    /// streaming, so per-step cost accounting matches the scalar era.
    ///
    /// A step larger than the configured `sort_budget_items` takes the
    /// warehouse's external-sort path instead, honoring the working-set
    /// bound and keeping spill I/O in the report.
    ///
    /// Every device call is synchronous: when this returns, every block
    /// the step wrote is on the device (durability is the manifest log's
    /// job — see [`crate::manifest::ManifestLog::append`]).
    ///
    /// An error before the step's run is written leaves the step open:
    /// the staged items come back (as one sorted segment) and the stream
    /// is untouched, so a retry archives them. Once the run is written
    /// the step counts and the stream resets, even if a later merge or
    /// retention call fails.
    pub fn end_time_step(&mut self) -> io::Result<UpdateReport> {
        self.invalidate();
        self.seal_staging_tail();
        let steps = self.warehouse.steps();
        let archived = if self.staging.len() > self.config.sort_budget_items {
            self.warehouse.add_unsorted_batch(&mut self.staging)
        } else {
            let t0 = Instant::now();
            let data = std::mem::take(&mut self.staging);
            self.staging = merge_sorted_segments(data, &self.staging_segments);
            self.staging_sort_time += t0.elapsed();
            self.warehouse.add_sorted_batch(&mut self.staging)
        };
        if self.warehouse.steps() == steps {
            // Not archived: keep the items staged as one sorted segment
            // (the external sort may have sorted them chunk by chunk).
            hsq_storage::sort_items(&mut self.staging);
            self.staging_segments = vec![self.staging.len()];
            return archived;
        }
        self.staging_segments.clear();
        self.stream.reset();
        let staging_sort = std::mem::take(&mut self.staging_sort_time);
        let mut report = archived?;
        report.sort_time += staging_sort;
        Ok(report)
    }

    /// Convenience: stream a whole batch, then end the time step. Runs on
    /// the batched fast path end to end.
    pub fn ingest_step(&mut self, batch: &[T]) -> io::Result<UpdateReport> {
        self.stream_extend(batch);
        self.end_time_step()
    }

    /// Drop the cached view. Every mutation calls this before touching
    /// anything, so the view's pins never defer a delete that a merge,
    /// retention or repair makes.
    fn invalidate(&mut self) {
        *self.view.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// The self-healing loop behind both engines' queries: run `query`
    /// over the scope of `window` in `snapshot()`, a view over `shards`.
    /// A confirmed-corrupt block quarantines its partition on the shard
    /// whose probe read it — file ids repeat across shard devices, so
    /// only the fan-in knows which — and re-runs the query over a fresh
    /// view of the remaining healthy set (degraded, bounds widened — or
    /// refused by the driver under `strict`); a transient failure that
    /// survived the device-level retries re-runs it under the configured
    /// attempt cap. Anything else propagates. `Ok(None)` when the window
    /// misaligns.
    pub(crate) fn answer<R>(
        shards: &[Self],
        snapshot: impl Fn() -> ShardedSnapshot<T, D>,
        window: Option<u64>,
        query: impl Fn(&QueryScope<T>, &mut FanIn<'_, T, D>) -> io::Result<Option<R>>,
    ) -> io::Result<Option<R>> {
        let mut transient_left = shards[0].config.retry.max_retries;
        loop {
            let failed = std::cell::Cell::new(None);
            let e = match snapshot().answer(window, |scope, fan| {
                query(scope, fan).inspect_err(|_| failed.set(fan.failed))
            }) {
                Ok(r) => return Ok(r),
                Err(e) => e,
            };
            if let Some((file, _)) = corruption_in(&e) {
                // Quarantined by this query or by a concurrent reader that
                // hit the block first: either way the epoch has moved, and
                // a fresh view excludes the file.
                let warehouse = failed.get().map(|i: usize| &shards[i].warehouse);
                if warehouse.is_some_and(|w| w.quarantine(file) || w.is_quarantined(file)) {
                    continue;
                }
            } else if is_transient(&e) && transient_left > 0 {
                transient_left -= 1;
                continue;
            }
            return Err(e);
        }
    }

    /// Run `query` over `window` through [`Self::answer`].
    fn run<R>(
        &self,
        window: Option<u64>,
        query: impl Fn(&QueryScope<T>, &mut FanIn<'_, T, D>) -> io::Result<Option<R>>,
    ) -> io::Result<Option<R>> {
        let shards = std::slice::from_ref(self);
        Self::answer(shards, || self.snapshot(), window, query)
    }

    /// Accurate φ-quantile over `T = H ∪ R` (Theorem 2): the returned
    /// element's rank is within `εm` of `⌈φN⌉`.
    pub fn quantile(&self, phi: f64) -> io::Result<Option<T>> {
        self.run(None, |scope, fan| fan.quantile(scope, phi))
    }

    /// Accurate rank query with cost reporting.
    pub fn rank_query(&self, r: u64) -> io::Result<Option<QueryOutcome<T>>> {
        self.run(None, |scope, fan| fan.rank_query(scope, r))
    }

    /// Batch of φ-quantiles sharing one probe source, so its block caches
    /// and remembered probes carry from one φ to the next: cheaper than
    /// separate [`Self::quantile`] calls (which already share the view's
    /// scope) when reporting e.g. p50/p95/p99 together.
    pub fn quantiles(&self, phis: &[f64]) -> io::Result<Vec<Option<T>>> {
        let all = self.run(None, |scope, fan| fan.quantiles(scope, phis).map(Some))?;
        Ok(all.expect("the full union always aligns"))
    }

    /// An immutable, self-contained view of everything ingested so far:
    /// the stream summary is extracted (cloned) from the GK sketch and the
    /// partition list is cloned with its backing files *pinned*, so the
    /// snapshot keeps answering queries — with the same `εm` guarantee,
    /// where `m` is the stream size at snapshot time — while this engine
    /// continues to ingest, archive, and merge partitions underneath.
    /// (The summary is extracted from whichever sketch backend the stream
    /// runs on — snapshots are backend-oblivious.)
    ///
    /// This is the concurrent-reader primitive: hold the engine's lock
    /// just long enough to take the snapshot, then query it lock-free.
    ///
    /// It is a [`ShardedSnapshot`] over this engine as its one shard
    /// (`shard(0)` is its pinned data) and the view the engine's own
    /// queries answer over, so until the data changes every `snapshot()`
    /// is a handle to one view: its scopes — `TS` included — are built
    /// once, by whichever query needs them first, live or pinned.
    ///
    /// Every mutation (ingest, step close, scrub) drops the view first; a
    /// quarantine, which can land through `&self`, moves the warehouse's
    /// quarantine epoch past it, and the next call takes a new one.
    pub fn snapshot(&self) -> ShardedSnapshot<T, D> {
        let mut view = self.view.lock().unwrap_or_else(PoisonError::into_inner);
        // Read before the view copies the quarantined set: a quarantine
        // racing in between only costs one needless rebuild.
        let epoch = self.warehouse.quarantine_epoch();
        if let Some(v) = view
            .as_ref()
            .filter(|v| v.shard(0).view.quarantine_epoch == epoch)
        {
            return v.clone();
        }
        let (parts, _pins) = self.warehouse.pinned_partitions();
        let pinned = View {
            dev: Arc::clone(self.warehouse.device()),
            parts,
            stream: self.stream.summary(),
            steps: self.warehouse.steps(),
            historical_len: self.warehouse.total_len(),
            cache_blocks: self.config.cache_blocks,
            lost: self.warehouse.lost_items(),
            quarantined_files: self.warehouse.quarantined_files(),
            quarantine_epoch: epoch,
            _pins,
        };
        let shard = EngineSnapshot {
            view: Arc::new(pinned),
        };
        view.insert(ShardedSnapshot::new(vec![shard], &self.config))
            .clone()
    }

    /// Persist the full engine state (see [`crate::manifest`]): the
    /// warehouse's metadata plus the live stream — sketch and staging
    /// buffer — so [`Self::recover`] resumes *mid-step* with identical
    /// query answers, under either sketch backend.
    pub fn persist(&self) -> io::Result<hsq_storage::FileId> {
        crate::manifest::persist_engine(
            &self.warehouse,
            &self.stream,
            &self.staging,
            &self.staging_segments,
        )
    }

    /// Reopen an engine from a manifest log (see [`crate::manifest`]).
    /// A log written by [`Self::persist`] carries the stream, so the
    /// engine resumes mid-step; every other log recovers with an empty
    /// stream. A stream written under one sketch backend recovers under
    /// either build; the configured backend takes over at the next step
    /// boundary.
    pub fn recover(
        dev: Arc<D>,
        config: HsqConfig,
        manifest: hsq_storage::FileId,
    ) -> io::Result<Self> {
        let (warehouse, recovered) = crate::manifest::replay_log(dev, config.clone(), manifest)?;
        let (stream, staging, staging_segments) = match recovered {
            Some(s) => (s.proc, s.staging, s.segments),
            None => (
                StreamProcessor::with_kind(config.sketch, config.epsilon2, config.beta2),
                Vec::new(),
                Vec::new(),
            ),
        };
        Ok(HistStreamQuantiles {
            warehouse,
            stream,
            staging,
            staging_segments,
            staging_sort_time: std::time::Duration::ZERO,
            config,
            view: Mutex::new(None),
        })
    }

    /// Quick φ-quantile (Algorithm 5): in-memory only, error ≤ 1.5εN.
    pub fn quantile_quick(&self, phi: f64) -> Option<T> {
        self.snapshot().quantile_quick(phi)
    }

    /// Quick rank query (Algorithm 5).
    pub fn rank_query_quick(&self, r: u64) -> Option<T> {
        self.snapshot().scope(None)?.quick_rank(r)
    }

    /// Window sizes (archived time steps) available for exact window
    /// queries right now; the live stream is always included on top.
    pub fn available_windows(&self) -> Vec<u64> {
        self.warehouse.available_windows()
    }

    /// Accurate φ-quantile over the union of the live stream and the
    /// newest `window_steps` *retained* steps; `Ok(None)` if the window
    /// does not align with partition boundaries. With retention enabled
    /// (see [`crate::retention`]) this is the "p99 over the last 24h"
    /// query shape — the window can cover at most the retained horizon.
    pub fn quantile_in_window(&self, window_steps: u64, phi: f64) -> io::Result<Option<T>> {
        self.run(Some(window_steps), |scope, fan| fan.quantile(scope, phi))
    }

    /// Rank query over a window, with cost reporting (see
    /// [`HistStreamQuantiles::quantile_in_window`]).
    pub fn rank_in_window(&self, window_steps: u64, r: u64) -> io::Result<Option<QueryOutcome<T>>> {
        self.run(Some(window_steps), |scope, fan| fan.rank_query(scope, r))
    }

    /// One rate-limited self-healing pass over the warehouse: repair
    /// quarantined partitions by salvaging their checksum-valid blocks,
    /// then verify healthy partitions round-robin (see
    /// [`Warehouse::scrub`]). Call periodically from an operations loop;
    /// `budget_blocks` bounds the pass's read I/O.
    pub fn scrub(&mut self, budget_blocks: u64) -> io::Result<crate::warehouse::ScrubReport> {
        self.invalidate();
        self.warehouse.scrub(budget_blocks)
    }
}

/// One engine's pinned data at a point in time: the shard a
/// [`ShardedSnapshot`] queries (see [`HistStreamQuantiles::snapshot`]).
///
/// Owns a cloned [`StreamSummary`] and a pinned copy of the partition
/// list, so the view that holds it answers without touching — or
/// blocking — the live engine. It has no query methods: scopes, plans and
/// answers live once, in [`ShardedSnapshot`]. Clones are cheap handles
/// to the same data; dropping the last one releases the pins (deferred
/// partition files are then deleted).
pub struct EngineSnapshot<T: Item, D: BlockDevice> {
    view: Arc<View<T, D>>,
}

impl<T: Item, D: BlockDevice> Clone for EngineSnapshot<T, D> {
    fn clone(&self) -> Self {
        EngineSnapshot {
            view: Arc::clone(&self.view),
        }
    }
}

/// What an [`EngineSnapshot`] shares among its handles.
struct View<T: Item, D: BlockDevice> {
    dev: Arc<D>,
    /// `(level, partition)` pairs, level-major, oldest first within a
    /// level — the same order the manifest serializes.
    parts: Vec<(usize, StoredPartition<T>)>,
    stream: StreamSummary<T>,
    steps: u64,
    historical_len: u64,
    cache_blocks: usize,
    /// Confirmed-lost item count at snapshot time (see
    /// [`Warehouse::lost_items`]).
    lost: u64,
    /// Quarantined partition files at snapshot time, sorted — snapshot
    /// queries exclude them and widen their bounds like the live engine.
    quarantined_files: Vec<FileId>,
    /// [`Warehouse::quarantine_epoch`] when the view was taken: the live
    /// engine stops answering through a view the epoch has moved past.
    quarantine_epoch: u64,
    _pins: PinGuard<D>,
}

impl<T: Item, D: BlockDevice> EngineSnapshot<T, D> {
    /// The block device the pinned partitions live on.
    pub fn device(&self) -> &Arc<D> {
        &self.view.dev
    }

    /// Time steps archived when the snapshot was taken.
    pub fn steps(&self) -> u64 {
        self.view.steps
    }

    /// Historical size `n` at snapshot time.
    pub fn historical_len(&self) -> u64 {
        self.view.historical_len
    }

    /// Stream size `m` at snapshot time.
    pub fn stream_len(&self) -> u64 {
        self.view.stream.stream_len()
    }

    /// Total size `N = n + m` at snapshot time.
    pub fn total_len(&self) -> u64 {
        self.view.historical_len + self.stream_len()
    }

    /// The pinned partitions with their levels (manifest order).
    pub fn leveled_partitions(&self) -> &[(usize, StoredPartition<T>)] {
        &self.view.parts
    }

    /// Items confirmed lost to corruption at snapshot time.
    pub fn lost_items(&self) -> u64 {
        self.view.lost
    }

    /// Quarantined partition files at snapshot time, sorted.
    pub fn quarantined_files(&self) -> &[FileId] {
        &self.view.quarantined_files
    }

    pub(crate) fn is_quarantined(&self, file: FileId) -> bool {
        self.view.quarantined_files.binary_search(&file).is_ok()
    }

    /// Whether `self` and `other` are handles to one view.
    pub(crate) fn same_view(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.view, &other.view)
    }

    /// Items this snapshot's queries exclude (quarantined partitions'
    /// mass + confirmed-lost items): the exact `rank_hi` widening every
    /// outcome carries.
    pub fn quarantined_mass(&self) -> u64 {
        self.view
            .parts
            .iter()
            .filter(|(_, p)| self.is_quarantined(p.run.file()))
            .map(|(_, p)| p.run.len())
            .sum::<u64>()
            + self.view.lost
    }

    /// The extracted stream summary.
    pub fn stream_summary(&self) -> &StreamSummary<T> {
        &self.view.stream
    }

    /// What a query over `window` covers (`None` = every pinned
    /// partition, `Some(w)` = the newest `w` steps; the stream is always
    /// included): the scope's size `N` and the positions in
    /// [`Self::leveled_partitions`] of the partitions to read, quarantined
    /// ones dropped. `None` when the window misaligns.
    pub(crate) fn select(&self, window: Option<u64>) -> Option<(u64, Vec<usize>)> {
        let all: Vec<_> = self.view.parts.iter().map(|(_, p)| p).collect();
        let (history, selected) =
            crate::warehouse::scope_partitions(&all, window, |file| self.is_quarantined(file))?;
        Some((history + self.stream_len(), selected))
    }

    fn selected(&self, selected: &[usize]) -> Vec<&StoredPartition<T>> {
        selected.iter().map(|&i| &self.view.parts[i].1).collect()
    }

    /// The views a scope over the `selected` partitions (from
    /// [`Self::select`]) plus the stream is built from.
    pub(crate) fn source_views(&self, selected: &[usize]) -> Vec<SourceView<T>> {
        source_views(&self.selected(selected), &self.view.stream)
    }

    /// The probe source over the `selected` partitions plus the stream,
    /// keeping caches and probed ranks in `state`.
    pub(crate) fn probes<'a>(
        &'a self,
        selected: &[usize],
        state: &'a mut ProbeState<T>,
    ) -> PartitionProbes<'a, T, D> {
        PartitionProbes::new(
            &*self.view.dev,
            self.selected(selected),
            &self.view.stream,
            self.view.cache_blocks,
            state,
        )
    }

    /// Window sizes (in snapshot-time steps) answerable exactly from the
    /// pinned partitions, ascending.
    pub fn available_windows(&self) -> Vec<u64> {
        crate::warehouse::window_sizes(self.view.parts.iter().map(|(_, p)| p))
    }
}

/// Head length of the staging merge, in items (one 4 KiB block of
/// `u64`s). The merge kernel radix-sorts at most one head per segment at a
/// time, and the radix kernel's thread-local buffers never shrink, so
/// this — not the step size — is what bounds the memory a step close pins
/// per thread.
const STAGING_HEAD_ITEMS: usize = 512;

/// Merge the sorted segments of `data` (`seg_ends` = exclusive end offset
/// of each segment, ascending, last == `data.len()`) into one sorted
/// vector.
///
/// Boundaries that are already in order are coalesced first, so a stream
/// that arrived as nondecreasing batches (or one big batch) returns `data`
/// unchanged — zero copies, zero comparisons beyond the boundary checks.
/// Otherwise the `k` true segments go through the storage layer's
/// block-at-a-time merge kernel ([`hsq_storage::merge_sources`]) as
/// in-memory sources: the same loop that merges partitions on disk.
fn merge_sorted_segments<T: Item>(data: Vec<T>, seg_ends: &[usize]) -> Vec<T> {
    // Collapse empty segments and boundaries already in sorted order.
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(seg_ends.len());
    let mut start = 0;
    for &end in seg_ends {
        debug_assert!(end >= start && end <= data.len());
        if end == start {
            continue;
        }
        match ranges.last_mut() {
            Some((_, prev_end)) if data[*prev_end - 1] <= data[start] => *prev_end = end,
            _ => ranges.push((start, end)),
        }
        start = end;
    }
    if ranges.len() <= 1 {
        return data;
    }
    let mut segments: Vec<&[T]> = ranges.iter().map(|&(s, e)| &data[s..e]).collect();
    let mut out = Vec::with_capacity(data.len());
    hsq_storage::merge_sources(&mut segments, STAGING_HEAD_ITEMS, |chunk| {
        out.extend_from_slice(chunk);
        Ok(())
    })
    .expect("in-memory segments and an in-memory sink cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::CombinedSummary;
    use crate::query::RankProbeSource;
    use hsq_storage::MemDevice;
    use std::sync::mpsc;

    fn engine(eps: f64, kappa: usize) -> HistStreamQuantiles<u64, MemDevice> {
        let cfg = HsqConfig::builder()
            .epsilon(eps)
            .merge_threshold(kappa)
            .build();
        HistStreamQuantiles::new(MemDevice::new(256), cfg)
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

    #[test]
    fn end_to_end_accuracy() {
        let mut h = engine(0.05, 3);
        let mut all = Vec::new();
        let mut x = 7u64;
        let mut gen = || {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            x >> 32
        };
        for _ in 0..10 {
            for _ in 0..300 {
                let v = gen();
                all.push(v);
                h.stream_update(v);
            }
            h.end_time_step().unwrap();
        }
        for _ in 0..300 {
            let v = gen();
            all.push(v);
            h.stream_update(v);
        }
        assert_eq!(h.total_len(), 3300);
        assert_eq!(h.stream_len(), 300);

        let m = 300u64;
        let allowed = (0.05 * m as f64).ceil() as u64 + 1;
        for phi in [0.01, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(phi).unwrap().unwrap();
            let r = (phi * 3300.0).ceil() as u64;
            let dist = rank_distance(&all, v, r);
            assert!(
                dist <= allowed,
                "phi={phi}: off by {dist} (allowed {allowed})"
            );
        }
    }

    #[test]
    fn quick_and_accurate_agree_roughly() {
        let mut h = engine(0.1, 4);
        for step in 0..5u64 {
            let batch: Vec<u64> = (0..500).map(|i| step * 500 + i).collect();
            h.ingest_step(&batch).unwrap();
        }
        for v in 2500..2600u64 {
            h.stream_update(v);
        }
        let quick = h.quantile_quick(0.5).unwrap();
        let accurate = h.quantile(0.5).unwrap().unwrap();
        // Values 0..2600: median ~1300. Quick within 1.5*eps*N = 390,
        // accurate within eps*m = 10.
        assert!((accurate as i64 - 1300).abs() <= 12, "accurate {accurate}");
        assert!((quick as i64 - 1300).abs() <= 400, "quick {quick}");
    }

    #[test]
    fn empty_engine() {
        let h = engine(0.1, 3);
        assert!(h.quantile(0.5).unwrap().is_none());
        assert!(h.quantile_quick(0.5).is_none());
        assert_eq!(h.total_len(), 0);
    }

    #[test]
    fn stream_only_no_history() {
        let mut h = engine(0.05, 3);
        for v in 0..1000u64 {
            h.stream_update(v);
        }
        let med = h.quantile(0.5).unwrap().unwrap();
        assert!((med as i64 - 500).abs() <= 51, "median {med}");
    }

    #[test]
    fn history_only_no_stream() {
        let mut h = engine(0.05, 3);
        for step in 0..4u64 {
            let batch: Vec<u64> = (0..250).map(|i| step * 250 + i).collect();
            h.ingest_step(&batch).unwrap();
        }
        assert_eq!(h.stream_len(), 0);
        // With m = 0 the guarantee is exact (Definition 1 semantics).
        let med = h.quantile(0.5).unwrap().unwrap();
        assert_eq!(med, 499);
        let q1 = h.quantile(0.25).unwrap().unwrap();
        assert_eq!(q1, 249);
    }

    #[test]
    fn window_queries() {
        let mut h = engine(0.1, 2);
        // 13 steps of disjoint ranges (Figure 2's partition layout).
        for step in 0..13u64 {
            let batch: Vec<u64> = (0..100).map(|i| step * 100 + i).collect();
            h.ingest_step(&batch).unwrap();
        }
        assert_eq!(h.available_windows(), vec![1, 4, 13]);
        // Window of 1 step = values 1200..1300 (step 13), plus empty stream.
        let med = h.quantile_in_window(1, 0.5).unwrap().unwrap();
        assert!((1200..1300).contains(&med), "window median {med}");
        // Non-aligned window.
        assert!(h.quantile_in_window(2, 0.5).unwrap().is_none());
        // Window of 4: steps 10..13 -> values 900..1300.
        let med4 = h.quantile_in_window(4, 0.5).unwrap().unwrap();
        assert!((1050..1150).contains(&med4), "window-4 median {med4}");
    }

    #[test]
    fn window_includes_live_stream() {
        // kappa = 3 keeps three level-0 partitions, so a 1-step window
        // aligns with the newest partition.
        let mut h = engine(0.1, 3);
        for step in 0..3u64 {
            let batch: Vec<u64> = (0..100).map(|i| step * 100 + i).collect();
            h.ingest_step(&batch).unwrap();
        }
        for v in 300..400u64 {
            h.stream_update(v);
        }
        // Window 1 = step 3 (200..300) + stream (300..400): median ~300.
        let med = h.quantile_in_window(1, 0.5).unwrap().unwrap();
        assert!((280..330).contains(&med), "median {med}");
    }

    #[test]
    fn retention_bounds_engine_history() {
        let cfg = HsqConfig::builder()
            .epsilon(0.1)
            .merge_threshold(3)
            .retention(crate::retention::RetentionPolicy::unbounded().with_max_age_steps(4))
            .build();
        let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
        let mut retired = 0u64;
        for step in 0..20u64 {
            let batch: Vec<u64> = (0..50).map(|i| step * 50 + i).collect();
            let report = h.ingest_step(&batch).unwrap();
            retired += report.retention.retired_items;
        }
        assert!(h.historical_len() <= 4 * 50, "n = {}", h.historical_len());
        assert_eq!(h.historical_len() + retired, 20 * 50);
        // Queries answer over the retained union only: the minimum is the
        // oldest retained value, not 0.
        let min = h.rank_query(1).unwrap().unwrap().value;
        let oldest_step = h.warehouse().first_retained_step().unwrap() - 1;
        assert_eq!(min, oldest_step * 50);
        // Windowed p99-style query over the retained horizon.
        let max_window = *h.available_windows().last().unwrap();
        let p99 = h.quantile_in_window(max_window, 0.99).unwrap().unwrap();
        assert!(p99 >= 19 * 50, "p99 {p99} not in the newest data");
    }

    #[test]
    fn snapshot_windows_stable_under_expiry() {
        let cfg = HsqConfig::builder()
            .epsilon(0.1)
            .merge_threshold(3)
            .retention(crate::retention::RetentionPolicy::unbounded().with_max_age_steps(3))
            .build();
        let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
        for step in 0..6u64 {
            let batch: Vec<u64> = (0..80).map(|i| step * 80 + i).collect();
            h.ingest_step(&batch).unwrap();
        }
        let snap = h.snapshot();
        let windows = snap.available_windows();
        assert_eq!(windows, h.available_windows());
        let w = *windows.first().unwrap();
        let before = snap.quantile_in_window(w, 0.5).unwrap().unwrap();
        let rank_before = snap.rank_in_window(w, 10).unwrap().unwrap().value;
        // Expire everything the snapshot pins.
        for step in 6..14u64 {
            let batch: Vec<u64> = (0..80).map(|i| step * 80 + i).collect();
            h.ingest_step(&batch).unwrap();
        }
        assert_eq!(snap.quantile_in_window(w, 0.5).unwrap().unwrap(), before);
        assert_eq!(
            snap.rank_in_window(w, 10).unwrap().unwrap().value,
            rank_before
        );
        assert_eq!(snap.available_windows(), windows);
    }

    #[test]
    fn memory_words_reported() {
        let mut h = engine(0.05, 3);
        for step in 0..6u64 {
            let batch: Vec<u64> = (0..200).map(|i| step * 200 + i).collect();
            h.ingest_step(&batch).unwrap();
        }
        for v in 0..100u64 {
            h.stream_update(v);
        }
        let words = h.memory_words();
        assert!(words > 0);
        // Far below the data size (sketches, not storage).
        assert!(words < 1300, "memory {words} words too large");
    }

    #[test]
    fn theorem2_rank_window() {
        // Returned rank estimate within eps*m of request.
        let mut h = engine(0.1, 3);
        let mut all = Vec::new();
        for step in 0..8u64 {
            let batch: Vec<u64> = (0..200).map(|i| (i * 13 + step * 7) % 10_000).collect();
            all.extend(&batch);
            h.ingest_step(&batch).unwrap();
        }
        for i in 0..200u64 {
            let v = (i * 31) % 10_000;
            all.push(v);
            h.stream_update(v);
        }
        let m = 200u64;
        let allowed = (0.1 * m as f64).ceil() as u64 + 1;
        for r in [1u64, 400, 850, 1200, 1700] {
            let out = h.rank_query(r).unwrap().unwrap();
            let dist = rank_distance(&all, out.value, r);
            assert!(dist <= allowed, "r={r}: off by {dist}");
        }
    }

    #[test]
    fn quick_queries_never_touch_disk() {
        let mut h = engine(0.05, 3);
        for step in 0..6u64 {
            let batch: Vec<u64> = (0..300).map(|i| step * 300 + i).collect();
            h.ingest_step(&batch).unwrap();
        }
        let before = h.warehouse().device().stats().snapshot();
        for phi in [0.1, 0.5, 0.9] {
            let _ = h.quantile_quick(phi);
        }
        let after = h.warehouse().device().stats().snapshot();
        assert_eq!((after - before).total_reads(), 0);
    }

    #[test]
    fn rank_queries_clamp_out_of_range() {
        let mut h = engine(0.1, 3);
        h.ingest_step(&(0..100u64).collect::<Vec<_>>()).unwrap();
        // r = 0 clamps to 1 (minimum), huge r clamps to N (maximum).
        let lo = h.rank_query(0).unwrap().unwrap();
        assert!(lo.value <= 5, "rank 0 should clamp to the minimum region");
        let hi = h.rank_query(u64::MAX).unwrap().unwrap();
        assert!(
            hi.value >= 95,
            "rank MAX should clamp to the maximum region"
        );
    }

    #[test]
    fn batch_quantiles_are_monotone() {
        let mut h = engine(0.05, 4);
        for step in 0..5u64 {
            let batch: Vec<u64> = (0..400).map(|i| (i * 7919 + step) % 100_000).collect();
            h.ingest_step(&batch).unwrap();
        }
        for v in 0..200u64 {
            h.stream_update(v * 500);
        }
        let phis = [0.05, 0.25, 0.5, 0.75, 0.95, 1.0];
        let qs = h.quantiles(&phis).unwrap();
        for w in qs.windows(2) {
            assert!(
                w[0].unwrap() <= w[1].unwrap(),
                "quantiles not monotone: {qs:?}"
            );
        }
    }

    #[test]
    fn ingesting_between_queries_is_consistent() {
        // Interleave archiving and querying; each answer must reflect all
        // data seen so far.
        let mut h = engine(0.1, 2);
        let mut count = 0u64;
        for step in 0..7u64 {
            let batch: Vec<u64> = (0..100).map(|i| step * 100 + i).collect();
            count += batch.len() as u64;
            h.ingest_step(&batch).unwrap();
            assert_eq!(h.total_len(), count);
            let max = h.quantile(1.0).unwrap().unwrap();
            assert_eq!(max, step * 100 + 99, "max after step {step}");
            let min = h.rank_query(1).unwrap().unwrap().value;
            assert_eq!(min, 0, "min after step {step}");
        }
    }

    #[test]
    fn merge_sorted_segments_zero_copy_when_ordered() {
        // Segments already in global order coalesce without any merge.
        let data: Vec<u64> = (0..100).collect();
        let out = merge_sorted_segments(data.clone(), &[30, 60, 100]);
        assert_eq!(out, data);
        // Single segment: returned unchanged.
        let out = merge_sorted_segments(data.clone(), &[100]);
        assert_eq!(out, data);
        // Empty segments are skipped.
        let out = merge_sorted_segments(data.clone(), &[0, 30, 30, 100]);
        assert_eq!(out, data);
    }

    #[test]
    fn merge_sorted_segments_interleaved() {
        // Two interleaved sorted segments.
        let mut data: Vec<u64> = (0..50).map(|i| i * 2).collect();
        data.extend((0..50).map(|i| i * 2 + 1));
        let out = merge_sorted_segments(data, &[50, 100]);
        assert_eq!(out, (0..100).collect::<Vec<u64>>());
        // Three segments with duplicates.
        let out = merge_sorted_segments(vec![1, 5, 5, 2, 5, 9, 1, 3], &[3, 6, 8]);
        assert_eq!(out, vec![1, 1, 2, 3, 5, 5, 5, 9]);
    }

    #[test]
    fn stream_extend_interleaves_with_scalar_updates() {
        let mut h = engine(0.05, 3);
        let mut all: Vec<u64> = Vec::new();
        // Mixed arrival: scalar, batch, scalar, batch.
        for v in [900u64, 100, 500] {
            all.push(v);
            h.stream_update(v);
        }
        let batch: Vec<u64> = (0..200).map(|i| (i * 37) % 1000).collect();
        all.extend(&batch);
        h.stream_extend(&batch);
        for v in [7u64, 993] {
            all.push(v);
            h.stream_update(v);
        }
        h.stream_extend(&[42, 4, 998]);
        all.extend([42, 4, 998]);
        assert_eq!(h.stream_len(), all.len() as u64);

        // Mid-step queries see everything streamed so far.
        all.sort_unstable();
        let med = h.quantile(0.5).unwrap().unwrap();
        let r = all.partition_point(|&x| x <= med) as i64;
        assert!((r - all.len() as i64 / 2).abs() <= 12, "median rank {r}");

        // Archival stores the exact multiset.
        h.end_time_step().unwrap();
        let stored = h.warehouse().partitions_newest_first()[0]
            .run
            .read_all(&**h.warehouse().device())
            .unwrap();
        assert_eq!(stored, all);
    }

    #[test]
    fn interleaved_batches_and_weighted_segment_archive_sorted_multiset() {
        // The benchmark's step shape: 16 batches of 4096 drawn from one
        // range, so every segment overlaps every other and the staging
        // merge runs many multi-contributor rounds; plus a weighted
        // segment whose replicated copies straddle head boundaries.
        let mut h = engine(0.05, 3);
        let mut all: Vec<u64> = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..16 {
            let batch: Vec<u64> = (0..4096)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    100_000_000 + (x >> 33) % 900_000_000
                })
                .collect();
            all.extend(&batch);
            h.stream_extend(&batch);
        }
        let pairs: Vec<(u64, u64)> = (0..300u64)
            .map(|i| (100_000_000 + i * 2_999_999, 1 + i % 7 * 200))
            .collect();
        for &(v, w) in &pairs {
            all.extend(std::iter::repeat_n(v, w as usize));
        }
        h.stream_extend_weighted(&pairs);
        assert_eq!(h.stream_len(), all.len() as u64);

        h.end_time_step().unwrap();
        all.sort_unstable();
        let stored = h.warehouse().partitions_newest_first()[0]
            .run
            .read_all(&**h.warehouse().device())
            .unwrap();
        assert_eq!(stored, all);
    }

    #[test]
    fn oversized_step_takes_external_sort_path() {
        // A step bigger than sort_budget_items must go through the
        // warehouse's external sort: spill I/O shows up in the report.
        let cfg = HsqConfig::builder()
            .epsilon(0.1)
            .merge_threshold(3)
            .sort_budget_items(64)
            .build();
        let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
        let batch: Vec<u64> = (0..500u64).rev().collect();
        h.stream_extend(&batch);
        let report = h.end_time_step().unwrap();
        assert!(report.sort_io.writes > 0, "expected spill writes");
        let stored = h.warehouse().partitions_newest_first()[0]
            .run
            .read_all(&**h.warehouse().device())
            .unwrap();
        assert_eq!(stored, (0..500).collect::<Vec<u64>>());
    }

    #[test]
    fn sort_time_attributed_to_report() {
        // The staging sorts paid during streaming must surface in the
        // step's report, not vanish from the cost breakdown.
        let mut h = engine(0.05, 3);
        let batch: Vec<u64> = (0..50_000u64).rev().collect();
        h.stream_extend(&batch);
        let report = h.end_time_step().unwrap();
        assert!(
            report.sort_time > std::time::Duration::ZERO,
            "sort_time must include staging sorts"
        );
    }

    #[test]
    fn stream_extend_empty_batch_is_noop() {
        let mut h = engine(0.1, 3);
        h.stream_extend(&[]);
        assert_eq!(h.stream_len(), 0);
        let report = h.end_time_step().unwrap();
        assert_eq!(report.total_accesses(), 0);
        assert_eq!(h.warehouse().steps(), 1);
    }

    #[test]
    fn snapshot_is_immutable_under_ingestion() {
        let mut h = engine(0.05, 2);
        for step in 0..4u64 {
            let batch: Vec<u64> = (0..250).map(|i| step * 250 + i).collect();
            h.ingest_step(&batch).unwrap();
        }
        for v in 1000..1100u64 {
            h.stream_update(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.total_len(), 1100);
        assert_eq!(snap.stream_len(), 100);
        let med_before = snap.quantile(0.5).unwrap().unwrap();

        // Keep ingesting: kappa = 2 forces merges that retire the pinned
        // runs; the snapshot must keep answering over the OLD data.
        for step in 4..12u64 {
            let batch: Vec<u64> = (0..250).map(|i| step * 250 + i).collect();
            h.ingest_step(&batch).unwrap();
        }
        assert_eq!(snap.total_len(), 1100);
        let med_after = snap.quantile(0.5).unwrap().unwrap();
        assert_eq!(med_before, med_after);
        assert!((med_after as i64 - 550).abs() <= 10, "median {med_after}");
        // The live engine reflects the new data: 3000 archived values
        // 0..3000 plus the 100 streamed duplicates of 1000..1100 put the
        // median near 1450.
        let live = h.quantile(0.5).unwrap().unwrap();
        assert!((live as i64 - 1450).abs() <= 20, "live median {live}");
    }

    #[test]
    fn snapshot_quick_and_batch_queries() {
        let mut h = engine(0.1, 3);
        for step in 0..5u64 {
            let batch: Vec<u64> = (0..200).map(|i| step * 200 + i).collect();
            h.ingest_step(&batch).unwrap();
        }
        let snap = h.snapshot();
        let qs = snap.quantiles(&[0.25, 0.5, 0.75]).unwrap();
        for w in qs.windows(2) {
            assert!(w[0].unwrap() <= w[1].unwrap());
        }
        let quick = snap.quantile_quick(0.5).unwrap();
        assert!((quick as i64 - 500).abs() <= 160, "quick {quick}");
    }

    #[test]
    fn snapshot_rank_bounds_are_sound() {
        let mut h = engine(0.1, 3);
        let mut all: Vec<u64> = Vec::new();
        for step in 0..6u64 {
            let batch: Vec<u64> = (0..150).map(|i| (i * 31 + step * 7) % 2000).collect();
            all.extend(&batch);
            h.ingest_step(&batch).unwrap();
        }
        for i in 0..150u64 {
            let v = (i * 17) % 2000;
            all.push(v);
            h.stream_update(v);
        }
        let view = h.snapshot();
        let snap = view.shard(0);
        let mut state = ProbeState::default();
        let (_, selected) = snap.select(None).unwrap();
        let mut probes = snap.probes(&selected, &mut state);
        for z in [0u64, 123, 999, 1500, 1999, 5000] {
            let truth = all.iter().filter(|&&x| x <= z).count() as u64;
            let (lo, hi) = probes.probe(z).unwrap();
            assert!(
                lo <= truth && truth <= hi,
                "z={z}: {truth} outside [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn empty_snapshot() {
        let h = engine(0.1, 3);
        let snap = h.snapshot();
        assert_eq!(snap.total_len(), 0);
        assert!(snap.quantile(0.5).unwrap().is_none());
        assert!(snap.quantile_quick(0.5).is_none());
    }

    #[test]
    fn weighted_stream_matches_replicated() {
        // Weighted ingest must be indistinguishable (same multiset, same
        // ε·m guarantee, same archived bytes) from replicated scalar
        // ingest — across a step boundary and mid-step.
        let mut h = engine(0.05, 3);
        let mut all: Vec<u64> = Vec::new();
        let pairs: Vec<(u64, u64)> = (0..500u64)
            .map(|i| {
                let v = i.wrapping_mul(2654435761) % 10_000;
                (v, (v % 5) + 1)
            })
            .collect();
        for &(v, w) in &pairs {
            all.extend(std::iter::repeat_n(v, w as usize));
        }
        h.stream_extend_weighted(&pairs[..250]);
        h.end_time_step().unwrap();
        h.stream_extend_weighted(&pairs[250..400]);
        for &(v, w) in &pairs[400..] {
            h.stream_update_weighted(v, w);
        }
        let total: u64 = pairs.iter().map(|&(_, w)| w).sum();
        assert_eq!(h.total_len(), total);
        let m = h.stream_len();
        let allowed = (0.05 * m as f64).ceil() as u64 + 1;
        for phi in [0.1, 0.5, 0.9, 1.0] {
            let v = h.quantile(phi).unwrap().unwrap();
            let r = (phi * total as f64).ceil() as u64;
            let dist = rank_distance(&all, v, r);
            assert!(dist <= allowed, "phi={phi}: off by {dist}");
        }
        // The archived partition holds the replicated multiset.
        let stored = h.warehouse().partitions_newest_first()[0]
            .run
            .read_all(&**h.warehouse().device())
            .unwrap();
        let mut expect: Vec<u64> = Vec::new();
        for &(v, w) in &pairs[..250] {
            expect.extend(std::iter::repeat_n(v, w as usize));
        }
        expect.sort_unstable();
        assert_eq!(stored, expect);
        // Zero-weight pairs are dropped, not staged.
        let before = h.stream_len();
        h.stream_extend_weighted(&[(1, 0), (2, 0)]);
        h.stream_update_weighted(3, 0);
        assert_eq!(h.stream_len(), before);
    }

    #[test]
    fn heavy_hitters_see_batched_updates() {
        let mut h = engine(0.1, 3);
        let mut batch = vec![7u64; 300];
        batch.extend(0..700u64);
        h.stream_extend(&batch);
        let hits = h.heavy_hitters(0.2).unwrap();
        let top = hits.first().expect("7 must be reported");
        assert_eq!((top.value, top.hist_count, top.stream_count), (7, 0, 301));
    }

    #[test]
    fn heavy_hitters_count_archived_steps_once() {
        let mut h = engine(0.1, 3);
        // Heavy value spread across archived steps AND the live stream:
        // a closed step's copies move from the stream count to history.
        for _ in 0..3 {
            let mut batch = vec![99u64; 300];
            batch.extend(0..700u64);
            h.ingest_step(&batch).unwrap();
        }
        for _ in 0..100 {
            h.stream_update(99u64);
        }
        let hits = h.heavy_hitters(0.1).unwrap();
        let top = hits.first().expect("99 must be reported");
        assert_eq!(top.value, 99);
        // 300 planted copies + one natural 99 from 0..700, per batch.
        assert_eq!((top.hist_count, top.stream_count), (903, 100));
        assert_eq!(top.count(), 1003);
    }

    /// `TS` of the engine's current full-union scope.
    fn full_ts(h: &HistStreamQuantiles<u64, impl BlockDevice>) -> Arc<CombinedSummary<u64>> {
        Arc::clone(h.snapshot().scope(None).unwrap().combined_summary())
    }

    /// The outcome with `io` cut to its read count: whether a read counts
    /// as sequential depends on the device's previous read.
    fn answer_of(o: QueryOutcome<u64>) -> (QueryOutcome<u64>, u64) {
        let io = hsq_storage::IoSnapshot::default();
        (QueryOutcome { io, ..o }, o.io.total_reads())
    }

    /// Five archived steps and a live stream.
    fn populated() -> HistStreamQuantiles<u64, MemDevice> {
        let mut h = engine(0.05, 3);
        for step in 0..5u64 {
            let batch: Vec<u64> = (0..300).map(|i| (i * 7 + step * 13) % 2000).collect();
            h.ingest_step(&batch).unwrap();
        }
        h.stream_extend(&(0..200).map(|i| i * 9).collect::<Vec<u64>>());
        h
    }

    #[test]
    fn live_queries_and_snapshots_share_one_view_until_the_data_changes() {
        let mut h = populated();
        let first = full_ts(&h);
        let w = h.available_windows()[0];
        let window = h.snapshot().scope(Some(w)).unwrap();
        // Queries of every kind, live and pinned, answer through one view.
        h.rank_query(700).unwrap();
        h.quantile(0.5).unwrap();
        h.quantiles(&[0.1, 0.9]).unwrap();
        h.quantile_quick(0.5).unwrap();
        h.rank_query_quick(5).unwrap();
        h.rank_in_window(w, 10).unwrap();
        let pinned = h.snapshot();
        pinned.rank_query(300).unwrap();
        pinned.rank_in_window(w, 10).unwrap();
        assert!(Arc::ptr_eq(&first, &full_ts(&h)));
        let again = pinned.scope(Some(w)).unwrap();
        assert!(Arc::ptr_eq(
            window.combined_summary(),
            again.combined_summary()
        ));
        // Ingesting nothing changes nothing.
        h.stream_extend(&[]);
        h.stream_extend_weighted(&[(5, 0)]);
        h.stream_update_weighted(5, 0);
        assert!(Arc::ptr_eq(&first, &full_ts(&h)));
        // Every mutation retires the view; the snapshot keeps its own.
        type Mutation = fn(&mut HistStreamQuantiles<u64, MemDevice>);
        let mutations: [(&str, Mutation); 6] = [
            ("stream_update", |h| h.stream_update(1)),
            ("stream_extend", |h| h.stream_extend(&[2, 3])),
            ("stream_update_weighted", |h| h.stream_update_weighted(4, 2)),
            ("stream_extend_weighted", |h| {
                h.stream_extend_weighted(&[(5, 3)])
            }),
            ("end_time_step", |h| {
                h.end_time_step().unwrap();
            }),
            ("scrub", |h| {
                h.scrub(8).unwrap();
            }),
        ];
        let mut last = Arc::clone(&first);
        for (name, mutate) in mutations {
            mutate(&mut h);
            let next = full_ts(&h);
            assert!(!Arc::ptr_eq(&last, &next), "{name} kept a stale view");
            assert_eq!(next.total(), h.total_len(), "{name}");
            last = next;
        }
        let kept = pinned.scope(None).unwrap();
        assert!(Arc::ptr_eq(kept.combined_summary(), &first));
        assert_eq!(pinned.total_len(), first.total());
    }

    #[test]
    fn the_cached_view_answers_like_a_scope_built_per_query() {
        let h = populated();
        let n = h.total_len();
        let ranks: Vec<u64> = (0..12).map(|i| 1 + i * n / 12).collect();
        // Twice over: the second sweep runs entirely on the cached view.
        for _ in 0..2 {
            for &r in &ranks {
                let cached = h.rank_query(r).unwrap().unwrap();
                let ss = h.stream().summary();
                let fresh = crate::query::QueryContext::new(
                    &**h.warehouse().device(),
                    h.warehouse().partitions_newest_first(),
                    &ss,
                    h.config().query_epsilon(),
                    h.config().cache_blocks,
                )
                .accurate_rank(r)
                .unwrap()
                .unwrap();
                assert_eq!(answer_of(cached), answer_of(fresh), "r = {r}");
            }
        }
    }

    #[test]
    fn a_quarantine_through_the_warehouse_retires_the_live_view() {
        let h = populated();
        let before = h.rank_query(800).unwrap().unwrap();
        assert!(!before.degraded);
        let pinned = h.snapshot();
        let parts = h.warehouse().partitions_newest_first();
        let oldest = parts.last().unwrap().run;
        assert!(h.warehouse().quarantine(oldest.file()));
        let after = h.rank_query(800).unwrap().unwrap();
        assert!(after.degraded);
        assert_eq!(after.quarantined, oldest.len());
        assert!(!h.snapshot().shard(0).same_view(pinned.shard(0)));
        // Pinned before the quarantine, the snapshot answers as before.
        let old = pinned.rank_query(800).unwrap().unwrap();
        assert_eq!(answer_of(old), answer_of(before));
    }

    /// A [`MemDevice`] that pauses the first read of one file: it signals
    /// the first channel and waits on the second, so another thread can
    /// act while a query is mid-read.
    struct PausingDevice {
        inner: Arc<MemDevice>,
        pause: Mutex<Option<Pause>>,
    }

    /// The file to pause on, the "paused" signal and the "resume" wait.
    type Pause = (FileId, mpsc::Sender<()>, mpsc::Receiver<()>);

    impl BlockDevice for PausingDevice {
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn create(&self) -> io::Result<FileId> {
            self.inner.create()
        }
        fn write_block(&self, file: FileId, idx: u64, data: &[u8]) -> io::Result<()> {
            self.inner.write_block(file, idx, data)
        }
        fn read_block(&self, file: FileId, idx: u64, buf: &mut [u8]) -> io::Result<usize> {
            let mut pause = self.pause.lock().unwrap();
            if pause.as_ref().is_some_and(|(f, _, _)| *f == file) {
                let (_, paused, resume) = pause.take().unwrap();
                drop(pause);
                paused.send(()).unwrap();
                resume.recv().unwrap();
            }
            self.inner.read_block(file, idx, buf)
        }
        fn num_blocks(&self, file: FileId) -> io::Result<u64> {
            self.inner.num_blocks(file)
        }
        fn file_len(&self, file: FileId) -> io::Result<u64> {
            self.inner.file_len(file)
        }
        fn delete(&self, file: FileId) -> io::Result<()> {
            self.inner.delete(file)
        }
        fn stats(&self) -> &hsq_storage::IoStats {
            self.inner.stats()
        }
    }

    #[test]
    fn a_reader_that_loses_the_quarantine_race_reruns() {
        // Regression: a query that hit a corrupt block quarantined it and
        // re-ran only if *its own* quarantine call took effect. When a
        // concurrent reader quarantined the file first, the call returned
        // false and the query failed with the corruption error, although
        // a re-run over the healthy set answers (degraded).
        let mem = MemDevice::new(256);
        let dev = Arc::new(PausingDevice {
            inner: Arc::clone(&mem),
            pause: Mutex::new(None),
        });
        let cfg = HsqConfig::builder().epsilon(0.1).merge_threshold(4).build();
        let mut h = HistStreamQuantiles::<u64, _>::new(dev.clone(), cfg);
        for step in 0..3u64 {
            let batch: Vec<u64> = (0..300).map(|i| step * 300 + i).collect();
            h.ingest_step(&batch).unwrap();
        }
        // Rot every block of the oldest partition (values 0..300).
        let oldest = h.warehouse().partitions_newest_first()[2].run;
        let mut buf = vec![0u8; 256];
        for block in 0..mem.num_blocks(oldest.file()).unwrap() {
            let n = mem.read_block(oldest.file(), block, &mut buf).unwrap();
            buf[n / 2] ^= 1;
            mem.write_block(oldest.file(), block, &buf[..n]).unwrap();
        }
        let (paused_tx, paused) = mpsc::channel();
        let (resume, resume_rx) = mpsc::channel();
        *dev.pause.lock().unwrap() = Some((oldest.file(), paused_tx, resume_rx));
        let warehouse = h.warehouse();
        let out = std::thread::scope(|s| {
            // The other reader: quarantines the file while the query reads it.
            let other = s.spawn(move || {
                paused.recv().ok()?;
                let won = warehouse.quarantine(oldest.file());
                resume.send(()).unwrap();
                Some(won)
            });
            let out = h.rank_query(150);
            dev.pause.lock().unwrap().take(); // never paused: release `other`
            assert_eq!(other.join().unwrap(), Some(true), "the race never ran");
            out
        });
        let out = out
            .expect("the query re-runs over the healthy set")
            .unwrap();
        assert!(out.degraded);
        assert_eq!(out.quarantined, 300);
    }

    #[test]
    fn the_live_view_never_defers_a_step_delete() {
        // κ = 2 merges every other step: the view the queries pinned must
        // be gone before the merge retires its runs, so each step deletes
        // them at once and the device holds exactly the live partitions.
        let dev = MemDevice::new(256);
        let cfg = HsqConfig::builder()
            .epsilon(0.1)
            .merge_threshold(2)
            .retention(crate::retention::RetentionPolicy::unbounded().with_max_age_steps(6))
            .build();
        let mut h = HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg);
        for step in 0..12u64 {
            let batch: Vec<u64> = (0..120).map(|i| step * 120 + i).collect();
            h.ingest_step(&batch).unwrap();
            assert_eq!(
                dev.num_files(),
                h.warehouse().num_partitions(),
                "step {step}"
            );
            h.quantile(0.5).unwrap();
            let _ = h.snapshot().rank_in_window(1, 1).unwrap();
        }
    }
}
