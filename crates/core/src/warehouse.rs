//! The on-disk historical structure `HD` and its in-memory summary `HS`
//! (paper §2.1, Algorithm 3).
//!
//! Each time step's batch becomes a sorted partition at level 0. Whenever a
//! level exceeds `κ` partitions, *all* partitions at that level are
//! multi-way merged into a single partition at the next level (the
//! recursive cascade of Figure 2), keeping:
//!
//! * at most `κ` partitions per level, hence at most
//!   `κ·(⌈log_κ T⌉ + 1)` partitions total;
//! * each element involved in at most `log_κ T` merges, giving Lemma 6's
//!   amortized update cost `O((n/(B·T))·log_κ T)` sequential I/Os.
//!
//! Every partition carries its [`PartitionSummary`] (built while the
//! partition's blocks are being written — zero additional reads) and its
//! time-step interval, which powers window queries (§2.4).

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hsq_storage::{corruption_in, BlockDevice, FileId, IoSnapshot, Item, RunWriter, SortedRun};

use crate::config::HsqConfig;
use crate::retention::RetentionReport;
use crate::summary::{summarize_sorted, PartitionSummary, SummaryBuilder};

/// A partition of `HD`: a sorted run plus its summary and provenance.
#[derive(Debug, Clone)]
pub struct StoredPartition<T: Item> {
    /// The on-disk sorted data.
    pub run: SortedRun<T>,
    /// In-memory summary (the `HS` entry for this partition).
    pub summary: PartitionSummary<T>,
    /// First time step whose data this partition contains (1-based).
    pub first_step: u64,
    /// Last time step whose data this partition contains (inclusive).
    pub last_step: u64,
}

impl<T: Item> StoredPartition<T> {
    /// Number of time steps spanned.
    pub fn span(&self) -> u64 {
        self.last_step - self.first_step + 1
    }
}

/// Cost breakdown of one warehouse update (one time step), matching the
/// paper's Figure 6/7 decomposition into Load / Sort / Merge / Summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateReport {
    /// I/O to write the new sorted partition ("Load").
    pub load_io: IoSnapshot,
    /// I/O of external-sort spill runs ("Sort"; zero for in-memory sorts).
    pub sort_io: IoSnapshot,
    /// I/O of partition merging ("Merge").
    pub merge_io: IoSnapshot,
    /// Wall time of the load phase.
    pub load_time: Duration,
    /// Wall time of the sort phase.
    pub sort_time: Duration,
    /// Wall time of the merge phase.
    pub merge_time: Duration,
    /// Wall time spent building summaries.
    pub summary_time: Duration,
    /// Number of level merges triggered by this update.
    pub merges: usize,
    /// What the step-boundary retention pass retired (all-zero when the
    /// policy is unbounded or nothing expired).
    pub retention: RetentionReport,
}

impl UpdateReport {
    /// All block accesses for the step (the paper's per-step disk count).
    pub fn total_accesses(&self) -> u64 {
        (self.load_io + self.sort_io + self.merge_io).total_accesses()
    }

    /// Total wall time of the update.
    pub fn total_time(&self) -> Duration {
        self.load_time + self.sort_time + self.merge_time + self.summary_time
    }
}

/// Reference counts for partition files pinned by live snapshots
/// (see [`crate::engine::EngineSnapshot`]).
///
/// The warehouse *retires* a run when a cascade merge replaces it; a
/// retired run's file is deleted immediately if unpinned, otherwise the
/// deletion is deferred until the last [`PinGuard`] holding it drops. This
/// is what lets snapshot readers keep probing partitions while
/// `end_time_step` restructures the warehouse underneath them.
#[derive(Debug, Default)]
pub(crate) struct PinRegistry {
    inner: Mutex<HashMap<FileId, PinEntry>>,
}

#[derive(Debug, Default, Clone, Copy)]
struct PinEntry {
    pins: usize,
    retired: bool,
}

impl PinRegistry {
    /// Pin `files`: their deletion is deferred while the pin is held.
    fn pin(&self, files: &[FileId]) {
        let mut inner = self.inner.lock().unwrap();
        for &f in files {
            inner.entry(f).or_default().pins += 1;
        }
    }

    /// A merged-away run should disappear. Returns `true` when the caller
    /// must delete the file now; `false` when pinned readers defer it.
    fn retire(&self, file: FileId) -> bool {
        let mut inner = self.inner.lock().unwrap();
        match inner.get_mut(&file) {
            Some(e) => {
                e.retired = true;
                false
            }
            None => true,
        }
    }

    /// Drop one pin from each of `files`; returns the files that are now
    /// both retired and unpinned — the caller deletes them.
    fn unpin(&self, files: &[FileId]) -> Vec<FileId> {
        let mut inner = self.inner.lock().unwrap();
        let mut deletable = Vec::new();
        for &f in files {
            if let Some(e) = inner.get_mut(&f) {
                e.pins = e.pins.saturating_sub(1);
                if e.pins == 0 {
                    let retired = e.retired;
                    inner.remove(&f);
                    if retired {
                        deletable.push(f);
                    }
                }
            }
        }
        deletable
    }
}

/// RAII pin over a snapshot's partition files: while alive, the warehouse
/// defers deleting those files even if cascade merges replace them; on
/// drop, any deferred deletions are carried out (best effort).
pub struct PinGuard<D: BlockDevice> {
    registry: Arc<PinRegistry>,
    dev: Arc<D>,
    files: Vec<FileId>,
}

impl<D: BlockDevice> std::fmt::Debug for PinGuard<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinGuard")
            .field("files", &self.files)
            .finish()
    }
}

impl<D: BlockDevice> Drop for PinGuard<D> {
    fn drop(&mut self) {
        for f in self.registry.unpin(&self.files) {
            // The run was merged away while we were reading it; nobody
            // else can reference the file, so a failed delete only leaks
            // space, never correctness.
            let _ = self.dev.delete(f);
        }
    }
}

/// Corruption-quarantine bookkeeping: the files whose runs failed a
/// checksum (still on disk, excluded from queries and merges until
/// [`Warehouse::scrub`] repairs them) and the item mass already confirmed
/// unrecoverable by past repairs.
#[derive(Debug, Default)]
struct QuarantineState {
    files: HashSet<FileId>,
    lost: u64,
    /// Bumped by every change to `files` or `lost` (see
    /// [`Warehouse::quarantine_epoch`]).
    epoch: u64,
}

/// What one [`Warehouse::scrub`] pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// Checksummed blocks read and verified (healthy partitions).
    pub blocks_verified: u64,
    /// Blocks that failed verification during this pass.
    pub corrupt_blocks: u64,
    /// Quarantined partitions rebuilt from their readable blocks.
    pub partitions_repaired: u64,
    /// Items salvaged into fresh runs by those repairs.
    pub items_salvaged: u64,
    /// Items confirmed unrecoverable by those repairs.
    pub items_lost: u64,
    /// Files still quarantined when the pass ended.
    pub quarantined_after: u64,
}

/// `HD` + `HS`: the historical store (Algorithm 3).
pub struct Warehouse<T: Item, D: BlockDevice> {
    dev: Arc<D>,
    config: HsqConfig,
    /// `levels[l]` = partitions at level `l`, oldest first.
    levels: Vec<Vec<StoredPartition<T>>>,
    total_len: u64,
    steps: u64,
    /// Snapshot pins over partition files (deferred deletion).
    pins: Arc<PinRegistry>,
    /// Interior-mutable because corruption is *discovered* on read paths
    /// that take `&self` (the engine's query loop quarantines and
    /// retries without a write lock on the warehouse).
    quarantine: Mutex<QuarantineState>,
    /// Where the next [`Warehouse::scrub`] verify pass resumes, as an
    /// index into the level-major partition list (wraps; approximate
    /// under concurrent restructuring, which is fine for a rate-limited
    /// background pass).
    scrub_cursor: usize,
}

impl<T: Item, D: BlockDevice> std::fmt::Debug for Warehouse<T, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warehouse")
            .field("steps", &self.steps)
            .field("total_len", &self.total_len)
            .field(
                "levels",
                &self.levels.iter().map(Vec::len).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl<T: Item, D: BlockDevice> Warehouse<T, D> {
    /// `HistInit(ε₁, β₁)`: an empty warehouse on `dev`.
    pub fn new(dev: Arc<D>, config: HsqConfig) -> Self {
        Warehouse {
            dev,
            config,
            levels: Vec::new(),
            total_len: 0,
            steps: 0,
            pins: Arc::new(PinRegistry::default()),
            quarantine: Mutex::new(QuarantineState::default()),
            scrub_cursor: 0,
        }
    }

    /// The block device.
    pub fn device(&self) -> &Arc<D> {
        &self.dev
    }

    /// Reassemble a warehouse from recovered parts (manifest recovery;
    /// see [`crate::manifest`]). `partitions` carries `(level, partition)`
    /// pairs; levels may arrive in any order.
    pub fn from_recovered_parts(
        dev: Arc<D>,
        config: HsqConfig,
        partitions: Vec<(usize, StoredPartition<T>)>,
        steps: u64,
        total_len: u64,
    ) -> Self {
        let max_level = partitions.iter().map(|(l, _)| *l + 1).max().unwrap_or(0);
        let mut levels: Vec<Vec<StoredPartition<T>>> = (0..max_level).map(|_| Vec::new()).collect();
        for (level, p) in partitions {
            levels[level].push(p);
        }
        // Within a level, arrival order = oldest first.
        for level in &mut levels {
            level.sort_by_key(|p| p.first_step);
        }
        Warehouse {
            dev,
            config,
            levels,
            total_len,
            steps,
            pins: Arc::new(PinRegistry::default()),
            quarantine: Mutex::new(QuarantineState::default()),
            scrub_cursor: 0,
        }
    }

    /// Install recovered quarantine state (manifest recovery): the lost
    /// item count and the files quarantined when the state was persisted.
    /// Files no longer backing a live partition are dropped.
    pub(crate) fn set_quarantine(&self, lost: u64, files: Vec<FileId>) {
        let live: HashSet<FileId> = self.levels.iter().flatten().map(|p| p.run.file()).collect();
        let mut q = self.quarantine.lock().unwrap();
        q.lost = lost;
        q.files = files.into_iter().filter(|f| live.contains(f)).collect();
        q.epoch += 1;
    }

    /// Historical data size `n`.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Time steps archived so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of levels currently in use.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of live partitions.
    pub fn num_partitions(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Partitions at `level`, oldest first.
    pub fn level(&self, level: usize) -> &[StoredPartition<T>] {
        self.levels.get(level).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All partitions, newest data first (level 0 backwards, then level 1
    /// backwards, ...). The order window queries consume.
    pub fn partitions_newest_first(&self) -> Vec<&StoredPartition<T>> {
        let mut out = Vec::with_capacity(self.num_partitions());
        for level in &self.levels {
            for p in level.iter().rev() {
                out.push(p);
            }
        }
        out
    }

    /// Quarantine the partition backed by `file` after a confirmed
    /// checksum failure: it is excluded from queries (which widen their
    /// rank bounds by its item count instead — see
    /// [`crate::query::QueryOutcome`]) and from cascade merges until
    /// [`Warehouse::scrub`] repairs it. Returns `true` if `file` backs a
    /// live partition and was not already quarantined.
    pub fn quarantine(&self, file: FileId) -> bool {
        if !self.levels.iter().flatten().any(|p| p.run.file() == file) {
            return false;
        }
        let mut q = self.quarantine.lock().unwrap();
        let added = q.files.insert(file);
        q.epoch += u64::from(added);
        added
    }

    /// A counter that moves whenever the quarantine state — the files
    /// [`Warehouse::quarantined_files`] lists or the mass
    /// [`Warehouse::lost_items`] reports — changes. A query view taken at
    /// one epoch is current until the next, even though
    /// [`Warehouse::quarantine`] changes the state through `&self`.
    pub fn quarantine_epoch(&self) -> u64 {
        self.quarantine.lock().unwrap().epoch
    }

    /// Release `file` from quarantine (its partition is gone).
    fn unquarantine(&self, file: FileId) {
        let mut q = self.quarantine.lock().unwrap();
        q.epoch += u64::from(q.files.remove(&file));
    }

    /// Is `file` currently quarantined?
    pub fn is_quarantined(&self, file: FileId) -> bool {
        self.quarantine.lock().unwrap().files.contains(&file)
    }

    /// Files currently quarantined, sorted (deterministic order).
    pub fn quarantined_files(&self) -> Vec<FileId> {
        let mut files: Vec<FileId> = self
            .quarantine
            .lock()
            .unwrap()
            .files
            .iter()
            .copied()
            .collect();
        files.sort_unstable();
        files
    }

    /// Items confirmed unrecoverable by past [`Warehouse::scrub`] repairs
    /// (the permanent part of the degraded-query widening).
    pub fn lost_items(&self) -> u64 {
        self.quarantine.lock().unwrap().lost
    }

    /// Total item mass queries cannot currently see: items in quarantined
    /// partitions plus items already confirmed lost. Degraded queries
    /// widen their rank bounds by **exactly** this amount.
    pub fn quarantined_mass(&self) -> u64 {
        let q = self.quarantine.lock().unwrap();
        let suspect: u64 = self
            .levels
            .iter()
            .flatten()
            .filter(|p| q.files.contains(&p.run.file()))
            .map(|p| p.run.len())
            .sum();
        suspect + q.lost
    }

    /// [`Warehouse::partitions_newest_first`] minus quarantined
    /// partitions — the set degraded queries answer over.
    pub fn healthy_partitions_newest_first(&self) -> Vec<&StoredPartition<T>> {
        let q = self.quarantine.lock().unwrap();
        self.partitions_newest_first()
            .into_iter()
            .filter(|p| !q.files.contains(&p.run.file()))
            .collect()
    }

    /// Pin an explicit file set (no partition cloning): the returned
    /// [`PinGuard`] defers deletion of those files until it drops. Used
    /// by [`crate::manifest::ManifestLog`] to keep every file its last
    /// durable record references alive — write-ahead discipline — so a
    /// crash between a step boundary and the next log append never
    /// leaves the log pointing at deleted files.
    pub(crate) fn pin_files(&self, files: Vec<FileId>) -> PinGuard<D> {
        self.pins.pin(&files);
        PinGuard {
            registry: Arc::clone(&self.pins),
            dev: Arc::clone(&self.dev),
            files,
        }
    }

    /// Clone the current partition list (with levels) and pin its backing
    /// files: the returned [`PinGuard`] keeps every file readable even if
    /// later updates merge the partitions away. The building block of
    /// [`crate::engine::HistStreamQuantiles::snapshot`].
    pub fn pinned_partitions(&self) -> (Vec<(usize, StoredPartition<T>)>, PinGuard<D>) {
        let mut parts = Vec::with_capacity(self.num_partitions());
        for (level, ps) in self.levels.iter().enumerate() {
            for p in ps {
                parts.push((level, p.clone()));
            }
        }
        let files: Vec<FileId> = parts.iter().map(|(_, p)| p.run.file()).collect();
        self.pins.pin(&files);
        let guard = PinGuard {
            registry: Arc::clone(&self.pins),
            dev: Arc::clone(&self.dev),
            files,
        };
        (parts, guard)
    }

    /// Words of main memory used by `HS` (Lemma 8's quantity).
    pub fn summary_memory_words(&self) -> usize {
        self.levels
            .iter()
            .flatten()
            .map(|p| p.summary.memory_words())
            .sum()
    }

    /// `HistUpdate(D)` (Algorithm 3): archive one time step's batch.
    ///
    /// Sorts the batch (externally if it exceeds the configured budget),
    /// writes it as a level-0 partition with its summary built in-stream,
    /// then cascades merges while any level holds more than `κ` partitions.
    pub fn add_batch(&mut self, mut batch: Vec<T>) -> io::Result<UpdateReport> {
        self.add_unsorted_batch(&mut batch)
    }

    /// [`Warehouse::add_batch`] over a borrowed batch, sorted in place
    /// (chunk by chunk past the sort budget) and taken once its run is
    /// written: if the step fails before that, the caller keeps the items.
    /// The step counts — `steps` and `n` advance — only with the run.
    pub(crate) fn add_unsorted_batch(&mut self, batch: &mut Vec<T>) -> io::Result<UpdateReport> {
        if batch.len() <= self.config.sort_budget_items {
            // In-memory sort (radix for radix-keyed items), then the
            // shared sorted-store path.
            let t0 = Instant::now();
            hsq_storage::sort_items(batch);
            let sort_time = t0.elapsed();
            let mut report = self.add_sorted_batch(batch)?;
            report.sort_time += sort_time;
            return Ok(report);
        }
        let mut report = UpdateReport::default();

        // External sort: spill budget-sized sorted runs, then stream one
        // multi-way merge into the final partition, tapping it for the
        // summary (no extra reads).
        let t0 = Instant::now();
        let before_sort = self.dev.stats().snapshot();
        let mut spills = Vec::new();
        let spilled = batch
            .chunks_mut(self.config.sort_budget_items)
            .try_for_each(|chunk| {
                hsq_storage::sort_items(chunk);
                spills.push(hsq_storage::write_run(&*self.dev, chunk)?);
                Ok(())
            });
        report.sort_time = t0.elapsed();

        let t1 = Instant::now();
        let before_load = self.dev.stats().snapshot();
        report.sort_io = before_load - before_sort;
        let merged = spilled.and_then(|()| merge_to_partition(&*self.dev, &spills, &self.config));
        // The spills are scratch: reclaim every one of them whether or not
        // the merge went through.
        let mut deleted = Ok(());
        for s in spills {
            deleted = deleted.and(s.delete(&*self.dev));
        }
        let (run, summary) = merged?;
        deleted?;
        report.load_io = self.dev.stats().snapshot() - before_load;
        report.load_time = t1.elapsed();

        self.steps += 1;
        self.total_len += batch.len() as u64;
        drop(std::mem::take(batch));
        self.push_level0(StoredPartition {
            run,
            summary,
            first_step: self.steps,
            last_step: self.steps,
        });

        // Cascade merges (Algorithm 3, lines 8-13).
        let t3 = Instant::now();
        let before_merge = self.dev.stats().snapshot();
        report.merges = self.cascade_merges()?;
        report.merge_io = self.dev.stats().snapshot() - before_merge;
        report.merge_time = t3.elapsed();
        report.retention = self.apply_retention()?;
        Ok(report)
    }

    /// [`Warehouse::add_batch`] for a batch that is **already sorted**
    /// (nondecreasing), skipping the sort entirely. This is the fast path
    /// the engine's batched ingestion uses: staged stream batches are kept
    /// as sorted segments, so archiving costs one merge of the segments
    /// plus this sorted store — no `O(η log η)` re-sort. The batch is
    /// taken, and the step counts, only once its run is written; after an
    /// earlier error the items are still in `batch`.
    pub fn add_sorted_batch(&mut self, batch: &mut Vec<T>) -> io::Result<UpdateReport> {
        debug_assert!(batch.windows(2).all(|w| w[0] <= w[1]), "batch not sorted");
        let mut report = UpdateReport::default();
        if batch.is_empty() {
            // A step with no data stores nothing, but the step clock still
            // advances, so age-based retention may expire partitions.
            self.steps += 1;
            report.retention = self.apply_retention()?;
            return Ok(report);
        }

        // Load = writing the sorted blocks.
        let t1 = Instant::now();
        let before = self.dev.stats().snapshot();
        let run = hsq_storage::write_run(&*self.dev, batch)?;
        report.load_io = self.dev.stats().snapshot() - before;
        report.load_time = t1.elapsed();
        self.steps += 1;
        self.total_len += batch.len() as u64;

        let t2 = Instant::now();
        let summary = summarize_sorted(
            batch,
            self.config.epsilon1,
            self.config.beta1,
            self.dev.block_size(),
        );
        report.summary_time = t2.elapsed();
        drop(std::mem::take(batch));

        self.push_level0(StoredPartition {
            run,
            summary,
            first_step: self.steps,
            last_step: self.steps,
        });

        // Cascade merges (Algorithm 3, lines 8-13).
        let t3 = Instant::now();
        let before_merge = self.dev.stats().snapshot();
        report.merges = self.cascade_merges()?;
        report.merge_io = self.dev.stats().snapshot() - before_merge;
        report.merge_time = t3.elapsed();
        report.retention = self.apply_retention()?;
        Ok(report)
    }

    fn push_level0(&mut self, p: StoredPartition<T>) {
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(p);
    }

    /// While any level holds more than `κ` partitions, merge the whole
    /// level into one partition at the next level. Returns the number of
    /// level merges performed.
    fn cascade_merges(&mut self) -> io::Result<usize> {
        let mut merges = 0;
        let mut level = 0;
        while level < self.levels.len() {
            if self.levels[level].len() <= self.config.kappa {
                level += 1;
                continue;
            }
            // A level holding a quarantined partition stays unmerged (the
            // merge would have to read the corrupt blocks); it may exceed
            // kappa until scrub repairs the partition.
            if self.levels[level]
                .iter()
                .any(|p| self.is_quarantined(p.run.file()))
            {
                level += 1;
                continue;
            }
            let olds: Vec<StoredPartition<T>> = std::mem::take(&mut self.levels[level]);
            let merged = match self.merge_partitions(&olds) {
                Ok(m) => m,
                Err(e) => {
                    // Put the sources back; on confirmed corruption,
                    // quarantine the bad run and carry on — the step
                    // still succeeds, queries degrade, scrub repairs.
                    self.levels[level] = olds;
                    if let Some((file, _)) = corruption_in(&e) {
                        self.quarantine(file);
                        level += 1;
                        continue;
                    }
                    return Err(e);
                }
            };
            for p in olds {
                // Snapshot readers may still hold the run: deletion is
                // deferred to the last pin if so.
                if self.pins.retire(p.run.file()) {
                    p.run.delete(&*self.dev)?;
                }
            }
            if self.levels.len() <= level + 1 {
                self.levels.push(Vec::new());
            }
            self.levels[level + 1].push(merged);
            merges += 1;
            level += 1;
        }
        Ok(merges)
    }

    /// Multi-way merge `parts` into one partition, building its summary
    /// from the merge stream (Algorithm 3 line 10-11).
    fn merge_partitions(&self, parts: &[StoredPartition<T>]) -> io::Result<StoredPartition<T>> {
        let runs: Vec<SortedRun<T>> = parts.iter().map(|p| p.run).collect();
        let (run, summary) = merge_to_partition(&*self.dev, &runs, &self.config)?;
        Ok(StoredPartition {
            run,
            summary,
            first_step: parts.iter().map(|p| p.first_step).min().unwrap_or(0),
            last_step: parts.iter().map(|p| p.last_step).max().unwrap_or(0),
        })
    }

    /// Total on-device bytes of all live partitions (the quantity the
    /// [`crate::retention::RetentionPolicy::max_bytes`] cap governs).
    pub fn partition_bytes(&self) -> io::Result<u64> {
        let mut total = 0u64;
        for p in self.levels.iter().flatten() {
            total += self.dev.file_len(p.run.file())?;
        }
        Ok(total)
    }

    /// First (oldest) retained time step, `None` when no partitions are
    /// live. With retention enabled this is the start of the horizon
    /// queries can still see.
    pub fn first_retained_step(&self) -> Option<u64> {
        self.levels.iter().flatten().map(|p| p.first_step).min()
    }

    /// Enforce the configured [`crate::retention::RetentionPolicy`]:
    /// retire whole partitions oldest-first until every limit holds.
    /// Called on every step boundary by [`Warehouse::add_batch`] /
    /// [`Warehouse::add_sorted_batch`]; callable directly after changing
    /// the policy out of band.
    ///
    /// Retired files pinned by live snapshots are *not* deleted here —
    /// deletion defers to the last [`PinGuard`] drop, exactly as with
    /// cascade merges, so concurrent readers never observe a missing
    /// file.
    pub fn apply_retention(&mut self) -> io::Result<RetentionReport> {
        let mut report = RetentionReport::default();
        let policy = self.config.retention.clone();
        if policy.is_unbounded() {
            return Ok(report);
        }
        // Age: every partition wholly older than the horizon expires.
        if let Some(max_age) = policy.max_age_steps {
            let horizon = self.steps.saturating_sub(max_age); // keep last_step > horizon
            loop {
                let expired = self
                    .oldest_partition()
                    .is_some_and(|(_, _, last)| last <= horizon);
                if !expired {
                    break;
                }
                self.retire_oldest(&mut report)?;
            }
        }

        // Count: oldest-first until at most `max_partitions` remain.
        if let Some(max_parts) = policy.max_partitions {
            while self.num_partitions() > max_parts {
                self.retire_oldest(&mut report)?;
            }
        }

        // Bytes: oldest-first while over the cap. The newest partition is
        // never retired (dropping the data just written would make the
        // engine lie about the current step), so a single oversized
        // partition can transiently exceed the cap.
        if let Some(max_bytes) = policy.max_bytes {
            let mut total = self.partition_bytes()?;
            while total > max_bytes && self.num_partitions() > 1 {
                let before = report.retired_bytes;
                self.retire_oldest(&mut report)?;
                total -= report.retired_bytes - before;
            }
        }
        Ok(report)
    }

    /// Locate the globally oldest live partition: `(level, index within
    /// level, last_step)`.
    fn oldest_partition(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64, u64)> = None; // + first_step
        for (l, level) in self.levels.iter().enumerate() {
            for (i, p) in level.iter().enumerate() {
                if best.is_none() || p.first_step < best.unwrap().3 {
                    best = Some((l, i, p.last_step, p.first_step));
                }
            }
        }
        best.map(|(l, i, last, _)| (l, i, last))
    }

    /// Remove the oldest partition and retire its file through the pin
    /// registry (immediate delete when unpinned, deferred otherwise).
    fn retire_oldest(&mut self, report: &mut RetentionReport) -> io::Result<()> {
        let Some((level, idx, _)) = self.oldest_partition() else {
            return Ok(());
        };
        // Size it before touching anything: a failed read leaves the
        // warehouse as it was instead of under-counting the report.
        let bytes = self.dev.file_len(self.levels[level][idx].run.file())?;
        let p = self.levels[level].remove(idx);
        // A retained-out partition leaves quarantine: its data is gone by
        // policy, not by corruption, so it no longer widens queries.
        self.unquarantine(p.run.file());
        report.retired_partitions += 1;
        report.retired_items += p.run.len();
        report.retired_bytes += bytes;
        report.retired_steps += p.span();
        self.total_len -= p.run.len();
        if self.pins.retire(p.run.file()) {
            p.run.delete(&*self.dev)?;
        }
        Ok(())
    }

    /// Background self-healing pass, rate-limited to about
    /// `budget_blocks` block reads.
    ///
    /// Two phases:
    /// 1. **Repair**: every quarantined partition (budget permitting) is
    ///    rebuilt by salvaging each block that still passes its checksum
    ///    into a fresh checksummed run with a rebuilt summary; the mass
    ///    of unreadable blocks moves from "suspect" to "confirmed lost",
    ///    shrinking the degraded-query widening to truly lost items. A
    ///    started repair always completes, so the budget is a soft cap.
    /// 2. **Verify**: healthy partitions' blocks are read and
    ///    checksum-verified, resuming where the previous pass stopped; a
    ///    failing block quarantines its partition for the next pass's
    ///    repair phase.
    ///
    /// Returns what the pass did; `quarantined_after > 0` means another
    /// pass has repair work left.
    pub fn scrub(&mut self, budget_blocks: u64) -> io::Result<ScrubReport> {
        let mut report = ScrubReport::default();
        let mut budget = budget_blocks;

        for file in self.quarantined_files() {
            if budget == 0 {
                break;
            }
            self.repair_partition(file, &mut budget, &mut report)?;
        }

        let total = self.num_partitions();
        let start = if total == 0 {
            0
        } else {
            self.scrub_cursor % total
        };
        'verify: for off in 0..total {
            let pos = (start + off) % total;
            if budget == 0 {
                self.scrub_cursor = pos;
                break 'verify;
            }
            let (level, idx) = self.nth_partition(pos);
            let file = self.levels[level][idx].run.file();
            if self.is_quarantined(file) {
                continue;
            }
            if let Some(bad) = self.verify_partition(level, idx, &mut budget, &mut report)? {
                self.quarantine(bad);
            }
            self.scrub_cursor = (pos + 1) % total.max(1);
        }

        report.quarantined_after = self.quarantined_files().len() as u64;
        Ok(report)
    }

    /// `(level, index)` of the `pos`-th partition in level-major order.
    fn nth_partition(&self, pos: usize) -> (usize, usize) {
        let mut rem = pos;
        for (l, level) in self.levels.iter().enumerate() {
            if rem < level.len() {
                return (l, rem);
            }
            rem -= level.len();
        }
        unreachable!("partition position {pos} out of range");
    }

    /// Checksum-verify the blocks of the partition at `(level, idx)`,
    /// consuming `budget`. Returns the file to quarantine if a block
    /// failed. Transient/fatal device errors propagate.
    fn verify_partition(
        &self,
        level: usize,
        idx: usize,
        budget: &mut u64,
        report: &mut ScrubReport,
    ) -> io::Result<Option<FileId>> {
        let p = &self.levels[level][idx];
        let bs = self.dev.block_size();
        let per = p.run.items_per_block(bs) as u64;
        let blocks = p.run.len().div_ceil(per);
        let file = p.run.file();
        for block in 0..blocks {
            if *budget == 0 {
                break;
            }
            *budget -= 1;
            report.blocks_verified += 1;
            if let Err(e) = p.run.read_block_items(&*self.dev, block) {
                if corruption_in(&e).is_none() {
                    return Err(e);
                }
                report.corrupt_blocks += 1;
                return Ok(Some(file));
            }
        }
        Ok(None)
    }

    /// Rebuild the quarantined partition backed by `file` from its
    /// readable blocks (see [`Warehouse::scrub`], phase 1).
    fn repair_partition(
        &mut self,
        file: FileId,
        budget: &mut u64,
        report: &mut ScrubReport,
    ) -> io::Result<()> {
        let located = self.levels.iter().enumerate().find_map(|(l, level)| {
            level
                .iter()
                .position(|p| p.run.file() == file)
                .map(|i| (l, i))
        });
        let Some((level, idx)) = located else {
            // The partition was merged or retained away; nothing to heal.
            self.unquarantine(file);
            return Ok(());
        };
        let old = self.levels[level][idx].clone();
        let bs = self.dev.block_size();
        let per = old.run.items_per_block(bs) as u64;
        let blocks = old.run.len().div_ceil(per);
        let mut salvaged: Vec<T> = Vec::with_capacity(old.run.len() as usize);
        for block in 0..blocks {
            *budget = budget.saturating_sub(1);
            match old.run.read_block_items(&*self.dev, block) {
                Ok(items) => salvaged.extend(items),
                Err(e) => {
                    if corruption_in(&e).is_none() {
                        return Err(e);
                    }
                    report.corrupt_blocks += 1;
                }
            }
        }
        let lost = old.run.len() - salvaged.len() as u64;
        let run = hsq_storage::write_run(&*self.dev, &salvaged)?;
        let summary = summarize_sorted(&salvaged, self.config.epsilon1, self.config.beta1, bs);
        self.levels[level][idx] = StoredPartition {
            run,
            summary,
            first_step: old.first_step,
            last_step: old.last_step,
        };
        {
            let mut q = self.quarantine.lock().unwrap();
            q.files.remove(&file);
            q.lost += lost;
            q.epoch += 1;
        }
        self.total_len -= lost;
        report.partitions_repaired += 1;
        report.items_salvaged += salvaged.len() as u64;
        report.items_lost += lost;
        if self.pins.retire(file) {
            self.dev.delete(file)?;
        }
        Ok(())
    }

    /// Window sizes (in time steps) over which exact partition-aligned
    /// queries are possible right now (§2.4 "Queries Over Windows"),
    /// ascending. The current (un-archived) stream is always included on
    /// top of these.
    pub fn available_windows(&self) -> Vec<u64> {
        window_sizes(self.levels.iter().flatten())
    }

    /// The partitions covering exactly the last `window_steps` *retained*
    /// steps, newest first; `None` if the window does not align with
    /// partition boundaries.
    pub fn window_partitions(&self, window_steps: u64) -> Option<Vec<&StoredPartition<T>>> {
        window_suffix(self.partitions_newest_first(), window_steps)
    }

    /// Verify the structural invariants of §2.1 (tests/debugging):
    /// ≤ κ partitions per level, partitions sorted and summarized,
    /// step ranges disjoint and collectively contiguous.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (l, level) in self.levels.iter().enumerate() {
            // A quarantined partition legitimately blocks its level's
            // merge, so the kappa cap is only enforced on clean levels.
            if level.len() > self.config.kappa
                && !level.iter().any(|p| self.is_quarantined(p.run.file()))
            {
                return Err(format!(
                    "level {l} has {} partitions > kappa = {}",
                    level.len(),
                    self.config.kappa
                ));
            }
            for p in level {
                if p.summary.partition_len() != p.run.len() {
                    return Err(format!(
                        "level {l}: summary len {} != run len {}",
                        p.summary.partition_len(),
                        p.run.len()
                    ));
                }
                if p.first_step > p.last_step {
                    return Err(format!("level {l}: inverted step range"));
                }
            }
        }
        let mut spans: Vec<(u64, u64)> = self
            .levels
            .iter()
            .flatten()
            .map(|p| (p.first_step, p.last_step))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[0].1 >= w[1].0 {
                return Err(format!("overlapping step ranges {:?} and {:?}", w[0], w[1]));
            }
        }
        let covered: u64 = spans.iter().map(|(f, l)| l - f + 1).sum();
        if covered > self.steps {
            return Err(format!(
                "{covered} steps covered by partitions, only {} elapsed",
                self.steps
            ));
        }
        Ok(())
    }
}

/// Stream one multi-way merge of `runs` into a new run on `dev`, tapping
/// the merged chunks for the run's summary on their way to the writer
/// (Algorithm 3 lines 10–11; §2.1: "no additional disk access is required
/// for computing the summary"). The **single** copy of "writer + summary
/// builder + merge + finish": cascade merges, the external-sort spill
/// merge and the strawman baseline all store through it. On error nothing
/// is left behind: the unfinished [`RunWriter`] deletes its file.
pub(crate) fn merge_to_partition<T: Item, D: BlockDevice>(
    dev: &D,
    runs: &[SortedRun<T>],
    config: &HsqConfig,
) -> io::Result<(SortedRun<T>, PartitionSummary<T>)> {
    let eta = runs.iter().map(|r| r.len()).sum();
    let mut writer = RunWriter::new(dev)?;
    let mut sb = SummaryBuilder::new(eta, config.epsilon1, config.beta1, dev.block_size());
    hsq_storage::merge_into(dev, runs, |chunk| {
        sb.push_slice(chunk);
        writer.push_slice(chunk)
    })?;
    Ok((writer.finish()?, sb.finish()))
}

/// The window sizes (in time steps) that align with the boundaries of
/// `parts`, ascending: the cumulative spans, newest partition first.
/// Shared by [`Warehouse::available_windows`] and
/// [`crate::engine::EngineSnapshot::available_windows`].
pub(crate) fn window_sizes<'a, T: Item>(
    parts: impl Iterator<Item = &'a StoredPartition<T>>,
) -> Vec<u64> {
    let mut spans: Vec<(u64, u64)> = parts.map(|p| (p.first_step, p.last_step)).collect();
    // Newest first.
    spans.sort_unstable_by_key(|s| std::cmp::Reverse(s.0));
    let mut acc = 0;
    spans
        .into_iter()
        .map(|(first, last)| {
            acc += last - first + 1;
            acc
        })
        .collect()
}

/// What a query over `window` of `parts` covers (`None` = all of them,
/// `Some(w)` = the newest `w` steps): the selected partitions' total
/// size — readable or not — and the positions in `parts` of those to
/// read, the `quarantined` dropped. `None` when the window misaligns. The
/// **single** copy of the rule, shared by the live engine and its
/// snapshots.
pub(crate) fn scope_partitions<T: Item>(
    parts: &[&StoredPartition<T>],
    window: Option<u64>,
    quarantined: impl Fn(FileId) -> bool,
) -> Option<(u64, Vec<usize>)> {
    let mut selected = match window {
        Some(w) => {
            let spans: Vec<_> = parts.iter().map(|p| (p.first_step, p.last_step)).collect();
            window_suffix_indices(&spans, w)?
        }
        None => (0..parts.len()).collect(),
    };
    let total = selected.iter().map(|&i| parts[i].run.len()).sum();
    selected.retain(|&i| !quarantined(parts[i].run.file()));
    Some((total, selected))
}

/// The suffix of `parts` covering exactly the newest `window_steps` time
/// steps, newest first; `None` when the boundary falls inside a
/// partition. Shared by [`Warehouse::window_partitions`] and
/// [`crate::engine::EngineSnapshot`]'s window selection.
pub(crate) fn window_suffix<T: Item>(
    parts: Vec<&StoredPartition<T>>,
    window_steps: u64,
) -> Option<Vec<&StoredPartition<T>>> {
    let spans: Vec<(u64, u64)> = parts.iter().map(|p| (p.first_step, p.last_step)).collect();
    window_suffix_indices(&spans, window_steps)
        .map(|idx| idx.into_iter().map(|i| parts[i]).collect())
}

/// Index form of [`window_suffix`] — the **single** copy of the
/// partition-aligned window rule: positions (into `spans`, newest first)
/// of the partitions covering exactly the newest `window_steps` steps,
/// `None` when the boundary falls inside a partition. `spans` holds each
/// partition's `(first_step, last_step)`, in any order.
pub(crate) fn window_suffix_indices(spans: &[(u64, u64)], window_steps: u64) -> Option<Vec<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(spans[i].0));
    let mut out = Vec::new();
    let mut acc = 0;
    for i in order {
        if acc == window_steps {
            break;
        }
        acc += spans[i].1 - spans[i].0 + 1;
        out.push(i);
        if acc > window_steps {
            return None; // boundary falls inside this partition
        }
    }
    (acc == window_steps).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsq_storage::MemDevice;

    fn warehouse(kappa: usize) -> Warehouse<u64, MemDevice> {
        let mut cfg = HsqConfig::with_epsilon(0.1);
        cfg.kappa = kappa;
        Warehouse::new(MemDevice::new(256), cfg)
    }

    fn batch(step: u64, size: u64) -> Vec<u64> {
        (0..size).map(|i| step * 10_000 + i).collect()
    }

    #[test]
    fn figure2_evolution() {
        // Paper Figure 2: kappa = 2, 13 time steps. Final state:
        // level 2 = {P1-9}, level 1 = {P10-12}, level 0 = {P13}.
        let mut w = warehouse(2);
        for step in 1..=13u64 {
            w.add_batch(batch(step, 10)).unwrap();
            w.check_invariants().unwrap();
        }
        assert_eq!(w.num_levels(), 3);
        assert_eq!(w.level(0).len(), 1);
        assert_eq!(
            (w.level(0)[0].first_step, w.level(0)[0].last_step),
            (13, 13)
        );
        assert_eq!(w.level(1).len(), 1);
        assert_eq!(
            (w.level(1)[0].first_step, w.level(1)[0].last_step),
            (10, 12)
        );
        assert_eq!(w.level(2).len(), 1);
        assert_eq!((w.level(2)[0].first_step, w.level(2)[0].last_step), (1, 9));
        assert_eq!(w.total_len(), 130);
    }

    #[test]
    fn figure2_intermediate_states() {
        // After 8 steps: level 1 = {P1-3, P4-6}, level 0 = {P7, P8}.
        let mut w = warehouse(2);
        for step in 1..=8u64 {
            w.add_batch(batch(step, 5)).unwrap();
        }
        assert_eq!(w.level(0).len(), 2);
        assert_eq!(w.level(1).len(), 2);
        assert_eq!((w.level(1)[0].first_step, w.level(1)[0].last_step), (1, 3));
        assert_eq!((w.level(1)[1].first_step, w.level(1)[1].last_step), (4, 6));
    }

    #[test]
    fn merged_partition_is_sorted_union() {
        let mut w = warehouse(2);
        // Interleaved values across steps force real merging.
        w.add_batch(vec![1, 4, 7]).unwrap();
        w.add_batch(vec![2, 5, 8]).unwrap();
        w.add_batch(vec![3, 6, 9]).unwrap(); // triggers merge of all three
        assert_eq!(w.level(0).len(), 0);
        assert_eq!(w.level(1).len(), 1);
        let all = w.level(1)[0].run.read_all(&**w.device()).unwrap();
        assert_eq!(all, (1..=9).collect::<Vec<u64>>());
        // Summary spans the merged data.
        let s = &w.level(1)[0].summary;
        assert_eq!(s.partition_len(), 9);
        assert_eq!(s.entries().first().unwrap().value, 1);
        assert_eq!(s.entries().last().unwrap().value, 9);
    }

    #[test]
    fn level_count_is_logarithmic() {
        let mut w = warehouse(3);
        for step in 1..=81u64 {
            w.add_batch(batch(step, 4)).unwrap();
            w.check_invariants().unwrap();
        }
        // log_3(81) = 4 levels of data at most (plus level 0).
        assert!(w.num_levels() <= 5, "levels = {}", w.num_levels());
        assert!(w.num_partitions() <= 3 * 5);
    }

    #[test]
    fn external_sort_path_matches_in_memory() {
        let mut cfg = HsqConfig::with_epsilon(0.1);
        cfg.kappa = 4;
        cfg.sort_budget_items = 16; // force spills for a 100-element batch
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(128), cfg);
        let data: Vec<u64> = (0..100).rev().collect();
        let report = w.add_batch(data).unwrap();
        assert!(report.sort_io.writes > 0, "expected spill writes");
        let stored = w.level(0)[0].run.read_all(&**w.device()).unwrap();
        assert_eq!(stored, (0..100).collect::<Vec<u64>>());
        // Summary was built from the merge tap with correct positions.
        for e in w.level(0)[0].summary.entries() {
            assert_eq!(e.value, e.rank - 1);
        }
    }

    #[test]
    fn empty_batch_counts_step_but_stores_nothing() {
        let mut w = warehouse(2);
        w.add_batch(Vec::new()).unwrap();
        assert_eq!(w.steps(), 1);
        assert_eq!(w.num_partitions(), 0);
        w.add_batch(vec![5]).unwrap();
        assert_eq!(w.steps(), 2);
        assert_eq!(w.total_len(), 1);
    }

    #[test]
    fn update_io_accounting() {
        // 256-byte checksummed blocks: 31 u64 + CRC trailer per block.
        // 320 items = ceil(320/31) = 11 blocks.
        let mut w = warehouse(4);
        let report = w.add_batch((0..320u64).rev().collect()).unwrap();
        assert_eq!(report.load_io.writes, 11);
        assert_eq!(report.merge_io.total_accesses(), 0);
        assert_eq!(report.merges, 0);

        // Four more batches trigger one cascade at kappa=4.
        let mut merge_seen = 0;
        for s in 2..=5u64 {
            let r = w.add_batch(batch(s, 320)).unwrap();
            merge_seen += r.merges;
        }
        assert_eq!(merge_seen, 1);
        w.check_invariants().unwrap();
    }

    #[test]
    fn available_windows_figure2_state() {
        let mut w = warehouse(2);
        for step in 1..=13u64 {
            w.add_batch(batch(step, 3)).unwrap();
        }
        // Partitions: P13 (1 step), P10-12 (3), P1-9 (9).
        assert_eq!(w.available_windows(), vec![1, 4, 13]);
        assert!(w.window_partitions(1).is_some());
        assert!(w.window_partitions(4).is_some());
        assert!(w.window_partitions(13).is_some());
        assert!(w.window_partitions(2).is_none());
        assert_eq!(w.window_partitions(4).unwrap().len(), 2);
    }

    #[test]
    fn larger_kappa_gives_more_windows() {
        let mut w2 = warehouse(2);
        let mut w10 = warehouse(10);
        for step in 1..=30u64 {
            w2.add_batch(batch(step, 2)).unwrap();
            w10.add_batch(batch(step, 2)).unwrap();
        }
        assert!(
            w10.available_windows().len() >= w2.available_windows().len(),
            "kappa=10 windows {:?} vs kappa=2 {:?}",
            w10.available_windows(),
            w2.available_windows()
        );
    }

    #[test]
    fn partitions_newest_first_ordering() {
        let mut w = warehouse(2);
        for step in 1..=13u64 {
            w.add_batch(batch(step, 2)).unwrap();
        }
        let parts = w.partitions_newest_first();
        let firsts: Vec<u64> = parts.iter().map(|p| p.first_step).collect();
        assert_eq!(firsts, vec![13, 10, 1]);
    }

    #[test]
    fn pinned_runs_survive_cascade_merges() {
        // kappa = 2: the third batch merges all level-0 partitions away.
        let mut w = warehouse(2);
        w.add_batch(vec![1, 4, 7]).unwrap();
        w.add_batch(vec![2, 5, 8]).unwrap();
        let (parts, guard) = w.pinned_partitions();
        assert_eq!(parts.len(), 2);
        let files_before = w.device().num_files();
        w.add_batch(vec![3, 6, 9]).unwrap(); // merges both pinned runs away
        assert_eq!(w.level(0).len(), 0);
        // The pinned runs are still readable, with their old contents.
        let a = parts[0].1.run.read_all(&**w.device()).unwrap();
        let b = parts[1].1.run.read_all(&**w.device()).unwrap();
        assert_eq!(a, vec![1, 4, 7]);
        assert_eq!(b, vec![2, 5, 8]);
        // Dropping the guard performs the deferred deletions.
        drop(guard);
        assert!(
            w.device().num_files() < files_before + 1,
            "retired runs must be deleted once unpinned"
        );
        assert!(parts[0].1.run.read_all(&**w.device()).is_err());
    }

    #[test]
    fn unretired_pins_delete_nothing_on_drop() {
        let mut w = warehouse(4);
        w.add_batch(vec![1, 2, 3]).unwrap();
        let (parts, guard) = w.pinned_partitions();
        drop(guard);
        // No merge happened: the partition stays readable.
        let a = parts[0].1.run.read_all(&**w.device()).unwrap();
        assert_eq!(a, vec![1, 2, 3]);
    }

    #[test]
    fn overlapping_pins_defer_until_last_guard() {
        let mut w = warehouse(2);
        w.add_batch(vec![10, 20]).unwrap();
        w.add_batch(vec![11, 21]).unwrap();
        let (parts1, g1) = w.pinned_partitions();
        let (_parts2, g2) = w.pinned_partitions();
        w.add_batch(vec![12, 22]).unwrap(); // retires both pinned runs
        drop(g1);
        // Still pinned by g2.
        assert_eq!(
            parts1[0].1.run.read_all(&**w.device()).unwrap(),
            vec![10, 20]
        );
        drop(g2);
        assert!(parts1[0].1.run.read_all(&**w.device()).is_err());
    }

    fn retention_warehouse(
        kappa: usize,
        policy: crate::retention::RetentionPolicy,
    ) -> Warehouse<u64, MemDevice> {
        let mut cfg = HsqConfig::with_epsilon(0.1);
        cfg.kappa = kappa;
        cfg.retention = policy;
        Warehouse::new(MemDevice::new(256), cfg)
    }

    #[test]
    fn age_policy_keeps_only_horizon() {
        let policy = crate::retention::RetentionPolicy::unbounded().with_max_age_steps(4);
        let mut w = retention_warehouse(3, policy);
        let mut retired_items = 0;
        for step in 1..=20u64 {
            let r = w.add_batch(batch(step, 10)).unwrap();
            retired_items += r.retention.retired_items;
            w.check_invariants().unwrap();
            // Every retained partition's newest step is inside the horizon.
            let horizon = w.steps().saturating_sub(4);
            for p in w.partitions_newest_first() {
                assert!(
                    p.last_step > horizon,
                    "step {step}: partition (.. {}) outlived horizon {horizon}",
                    p.last_step
                );
            }
        }
        // The horizon can cover at most 4 steps of data.
        assert!(w.total_len() <= 4 * 10, "total {}", w.total_len());
        assert_eq!(w.total_len() + retired_items, 200, "items lost or doubled");
        assert_eq!(w.first_retained_step(), Some(w.steps() - 3));
    }

    #[test]
    fn partition_count_policy() {
        let policy = crate::retention::RetentionPolicy::unbounded().with_max_partitions(2);
        let mut w = retention_warehouse(4, policy);
        for step in 1..=17u64 {
            w.add_batch(batch(step, 8)).unwrap();
            w.check_invariants().unwrap();
            assert!(w.num_partitions() <= 2, "step {step}: {w:?}");
        }
        assert!(w.total_len() >= 8, "newest data must survive");
    }

    #[test]
    fn byte_cap_policy_bounds_storage() {
        // 256-byte blocks; 40-item steps = 320 bytes + merges. Cap at ~6
        // steps' worth: steady state must stay at or under the cap.
        let cap = 2048u64;
        let policy = crate::retention::RetentionPolicy::unbounded().with_max_bytes(cap);
        let mut w = retention_warehouse(3, policy);
        for step in 1..=40u64 {
            w.add_batch(batch(step, 40)).unwrap();
            w.check_invariants().unwrap();
            assert!(
                w.partition_bytes().unwrap() <= cap,
                "step {step}: {} bytes over cap {cap}",
                w.partition_bytes().unwrap()
            );
        }
        assert!(w.total_len() > 0, "cap must not drop everything");
    }

    #[test]
    fn composed_policy_most_restrictive_wins() {
        let policy = crate::retention::RetentionPolicy::unbounded()
            .with_max_age_steps(6)
            .with_max_partitions(3)
            .with_max_bytes(1 << 20);
        let mut w = retention_warehouse(2, policy);
        for step in 1..=30u64 {
            w.add_batch(batch(step, 5)).unwrap();
            w.check_invariants().unwrap();
            assert!(w.num_partitions() <= 3);
            let horizon = w.steps().saturating_sub(6);
            for p in w.partitions_newest_first() {
                assert!(p.last_step > horizon);
            }
        }
    }

    #[test]
    fn retention_defers_deletion_under_pins() {
        let policy = crate::retention::RetentionPolicy::unbounded().with_max_age_steps(2);
        let mut w = retention_warehouse(4, policy);
        w.add_batch(vec![1, 2, 3]).unwrap();
        let (parts, guard) = w.pinned_partitions();
        // Three more steps expire step 1 under the pin.
        for step in 2..=4u64 {
            let r = w.add_batch(batch(step, 3)).unwrap();
            if step == 3 {
                assert_eq!(r.retention.retired_partitions, 1);
            }
        }
        // The expired run stays readable while pinned...
        assert_eq!(
            parts[0].1.run.read_all(&**w.device()).unwrap(),
            vec![1, 2, 3]
        );
        // ...and is deleted once the last pin drops.
        drop(guard);
        assert!(parts[0].1.run.read_all(&**w.device()).is_err());
    }

    #[test]
    fn unbounded_policy_is_noop() {
        let mut w = warehouse(3);
        for step in 1..=10u64 {
            let r = w.add_batch(batch(step, 10)).unwrap();
            assert_eq!(r.retention, crate::retention::RetentionReport::default());
        }
        assert_eq!(w.total_len(), 100);
    }

    #[test]
    fn retention_report_accounts_bytes_and_steps() {
        let policy = crate::retention::RetentionPolicy::unbounded().with_max_age_steps(1);
        let mut w = retention_warehouse(4, policy);
        // 32 u64 in 256-byte checksummed blocks: 31 in a full block plus
        // a short tail block of 1 item + CRC trailer = 256 + 16 bytes.
        w.add_batch(batch(1, 32)).unwrap();
        let r = w.add_batch(batch(2, 32)).unwrap();
        assert_eq!(r.retention.retired_partitions, 1);
        assert_eq!(r.retention.retired_items, 32);
        assert_eq!(r.retention.retired_bytes, 272);
        assert_eq!(r.retention.retired_steps, 1);
        assert_eq!(w.total_len(), 32);
    }

    /// A [`MemDevice`] whose `file_len` fails for one chosen file.
    struct LenFailDevice {
        inner: Arc<MemDevice>,
        broken: Mutex<Option<FileId>>,
    }

    impl BlockDevice for LenFailDevice {
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
            self.inner.read_block(file, idx, buf)
        }
        fn num_blocks(&self, file: FileId) -> io::Result<u64> {
            self.inner.num_blocks(file)
        }
        fn file_len(&self, file: FileId) -> io::Result<u64> {
            if *self.broken.lock().unwrap() == Some(file) {
                return Err(io::Error::other("injected file_len failure"));
            }
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
    fn unsizable_partition_is_not_retired() {
        // Regression: retirement removed the partition first and counted
        // a failed size read as 0 bytes, so the report came back Ok and
        // short (and a byte cap went on retiring newer partitions).
        let mut cfg = HsqConfig::with_epsilon(0.1);
        cfg.kappa = 4;
        cfg.retention = crate::retention::RetentionPolicy::unbounded().with_max_age_steps(1);
        let dev = Arc::new(LenFailDevice {
            inner: MemDevice::new(256),
            broken: Mutex::new(None),
        });
        let mut w = Warehouse::new(Arc::clone(&dev), cfg);
        w.add_batch(batch(1, 32)).unwrap();
        let oldest = w.partitions_newest_first()[0].run.file();
        *dev.broken.lock().unwrap() = Some(oldest);
        // Step 2 archives, then fails to retire step 1: typed error, and
        // step 1 is still there.
        assert!(w.add_batch(batch(2, 32)).is_err());
        assert_eq!(w.num_partitions(), 2);
        assert_eq!(w.total_len(), 64);
        w.check_invariants().unwrap();
        // Once the size reads again, retirement accounts it in full.
        *dev.broken.lock().unwrap() = None;
        let r = w.apply_retention().unwrap();
        assert_eq!(r.retired_partitions, 1);
        assert_eq!(r.retired_bytes, 272);
        assert_eq!(w.total_len(), 32);
    }

    #[test]
    fn windows_follow_retention() {
        let policy = crate::retention::RetentionPolicy::unbounded().with_max_age_steps(4);
        let mut w = retention_warehouse(3, policy);
        for step in 1..=12u64 {
            w.add_batch(batch(step, 6)).unwrap();
        }
        // Windows only cover retained steps.
        let windows = w.available_windows();
        assert!(!windows.is_empty());
        assert!(*windows.last().unwrap() <= 4, "windows {windows:?}");
        for &win in &windows {
            let parts = w.window_partitions(win).unwrap();
            let covered: u64 = parts.iter().map(|p| p.span()).sum();
            assert_eq!(covered, win);
        }
    }

    #[test]
    fn summary_memory_is_bounded() {
        let mut w = warehouse(10);
        for step in 1..=100u64 {
            w.add_batch(batch(step, 50)).unwrap();
        }
        // Lemma 8: O(kappa * log_kappa(T) / eps1) words.
        let bound = 3 * 10 * 3 * (w.config.beta1 + 2); // kappa * levels * entries
        assert!(
            w.summary_memory_words() <= bound,
            "{} words > bound {bound}",
            w.summary_memory_words()
        );
    }

    /// Flip one payload byte of a run's block in place: the silent
    /// corruption the per-block CRC trailer exists to catch.
    fn rot_block(dev: &MemDevice, file: hsq_storage::FileId, block: u64) {
        let mut buf = vec![0u8; dev.block_size()];
        let n = dev.read_block(file, block, &mut buf).unwrap();
        buf[n / 2] ^= 0x01;
        dev.write_block(file, block, &buf[..n]).unwrap();
    }

    #[test]
    fn quarantine_excludes_partition_and_accounts_mass() {
        let mut w = warehouse(4);
        for s in 1..=3u64 {
            w.add_batch(batch(s, 50)).unwrap();
        }
        let file = w.partitions_newest_first()[0].run.file();
        assert!(!w.is_quarantined(file));
        assert!(w.quarantine(file));
        assert!(!w.quarantine(file), "re-quarantine must be a no-op");
        assert!(!w.quarantine(999_999), "unknown file must be refused");
        assert!(w.is_quarantined(file));
        assert_eq!(w.quarantined_files(), vec![file]);
        // Suspect (not yet confirmed-lost) mass: the whole partition.
        assert_eq!(w.quarantined_mass(), 50);
        assert_eq!(w.lost_items(), 0);
        assert_eq!(w.total_len(), 150, "total_len shrinks only on repair");
        let healthy = w.healthy_partitions_newest_first();
        assert_eq!(healthy.len(), 2);
        assert!(healthy.iter().all(|p| p.run.file() != file));
        w.check_invariants().unwrap();
    }

    #[test]
    fn scrub_detects_bit_rot_then_repairs_salvaging_good_blocks() {
        let mut w = warehouse(4);
        // 62 items per partition = exactly two 31-item checksummed blocks.
        for s in 1..=2u64 {
            w.add_batch(batch(s, 62)).unwrap();
        }
        let file = w.partitions_newest_first()[0].run.file();
        rot_block(w.device(), file, 1);

        // Pass 1: verify phase finds the rotted block and quarantines.
        let r1 = w.scrub(1_000).unwrap();
        assert_eq!(r1.corrupt_blocks, 1);
        assert_eq!(r1.partitions_repaired, 0);
        assert_eq!(r1.quarantined_after, 1);
        assert!(w.is_quarantined(file));
        assert_eq!(w.quarantined_mass(), 62, "whole partition suspect");

        // Pass 2: repair phase salvages the clean block, confirms the
        // rotted one lost, and the partition leaves quarantine.
        let r2 = w.scrub(1_000).unwrap();
        assert_eq!(r2.partitions_repaired, 1);
        assert_eq!(r2.items_salvaged, 31);
        assert_eq!(r2.items_lost, 31);
        assert_eq!(r2.quarantined_after, 0);
        assert_eq!(w.lost_items(), 31);
        assert_eq!(w.quarantined_mass(), 31, "only confirmed loss remains");
        assert_eq!(w.total_len(), 2 * 62 - 31);
        assert!(!w.is_quarantined(file));
        w.check_invariants().unwrap();

        // The replacement run reads back clean and sorted.
        let healthy = w.healthy_partitions_newest_first();
        assert_eq!(healthy.len(), 2);
        for p in healthy {
            let items = p.run.read_all(&**w.device()).unwrap();
            assert!(items.windows(2).all(|x| x[0] <= x[1]));
        }

        // A further pass is pure verification: nothing left to heal.
        let r3 = w.scrub(1_000).unwrap();
        assert_eq!(r3.corrupt_blocks, 0);
        assert_eq!(r3.partitions_repaired, 0);
    }

    #[test]
    fn scrub_budget_bounds_reads_and_cursor_resumes() {
        let mut w = warehouse(8);
        // Four single-block partitions, all on level 0.
        for s in 1..=4u64 {
            w.add_batch(batch(s, 31)).unwrap();
        }
        // Rot the newest partition — the last position in level-major
        // order, reached only after the cursor advances past the others.
        let file = w.partitions_newest_first()[0].run.file();
        rot_block(w.device(), file, 0);

        let r1 = w.scrub(2).unwrap();
        assert_eq!(r1.blocks_verified, 2, "budget caps the pass");
        assert_eq!(r1.quarantined_after, 0, "rot not reached yet");
        let r2 = w.scrub(2).unwrap();
        assert_eq!(r2.quarantined_after, 1, "resumed pass reaches the rot");
        assert!(w.is_quarantined(file));
    }

    #[test]
    fn merge_skips_quarantined_level_and_invariants_hold() {
        // kappa = 2: a third level-0 partition would normally cascade.
        // With one of them quarantined the level must stay unmerged (a
        // merge would read the corrupt run), tolerated by the invariant
        // checker, and heal back to normal after repair.
        let mut w = warehouse(2);
        w.add_batch(batch(1, 62)).unwrap();
        w.add_batch(batch(2, 62)).unwrap();
        let file = w.partitions_newest_first()[0].run.file();
        rot_block(w.device(), file, 0);
        assert!(w.quarantine(file));

        w.add_batch(batch(3, 62)).unwrap();
        assert!(
            w.level(0).len() > w.config.kappa,
            "quarantined level must not merge"
        );
        w.check_invariants().unwrap();

        // Repair, then the next step's cascade drains the level.
        let r = w.scrub(1_000).unwrap();
        assert_eq!(r.partitions_repaired, 1);
        w.add_batch(batch(4, 62)).unwrap();
        assert!(w.level(0).len() <= w.config.kappa);
        w.check_invariants().unwrap();
        assert_eq!(w.total_len(), 4 * 62 - r.items_lost);
    }

    #[test]
    fn failed_merge_leaves_no_orphan_output() {
        // Regression: a cascade merge that hits a rotted input block used
        // to drop its half-written output run without deleting it; the
        // step carries on (quarantine + degrade), so the orphan stayed on
        // the device for good.
        let mut w = warehouse(2);
        w.add_batch(batch(1, 620)).unwrap(); // 620 / 31 per block = 20 blocks
        w.add_batch(batch(2, 620)).unwrap();
        let file = w.level(0)[0].run.file();
        // Last block: two readahead windows of output are written first.
        rot_block(w.device(), file, 19);
        w.add_batch(batch(3, 620)).unwrap();
        assert!(w.is_quarantined(file), "rot is found by the merge");
        assert_eq!(w.num_partitions(), 3, "level stays unmerged");
        assert_eq!(
            w.device().num_files(),
            3,
            "the failed merge's output must not outlive it"
        );
    }

    #[test]
    fn failed_external_sort_leaves_no_files() {
        use hsq_storage::{Fault, FaultDevice};
        // 100 items under a 16-item budget: 7 spill runs + 1 merged run.
        let spills = 100u64.div_ceil(16);
        let run = |fault: Option<Fault>| {
            let dev = FaultDevice::new(MemDevice::new(128));
            if let Some(f) = fault {
                dev.arm(f);
            }
            let mut cfg = HsqConfig::with_epsilon(0.1);
            cfg.sort_budget_items = 16;
            let mut w = Warehouse::<u64, _>::new(Arc::clone(&dev), cfg);
            let res = w.add_batch((0..100).rev().collect());
            (res.is_ok(), dev.mutations(), dev.inner().num_files())
        };
        let (ok, mutations, files) = run(None);
        assert!(ok);
        assert_eq!(files, 1, "spills are deleted, the partition stays");
        // Fail each op up to the spill deletes (the last mutations; a
        // delete that fails leaks by definition): whether a spill write,
        // the output's create or one of its writes fails, every file the
        // call created is gone again.
        for k in 0..mutations - spills {
            let (ok, _, files) = run(Some(Fault::FailOp(k)));
            assert!(!ok, "op {k} must surface its failure");
            assert_eq!(files, 0, "op {k} leaked a run");
        }
    }

    #[test]
    fn retention_expiry_clears_quarantine() {
        let policy = crate::retention::RetentionPolicy::unbounded().with_max_age_steps(2);
        let mut w = retention_warehouse(4, policy);
        w.add_batch(batch(1, 31)).unwrap();
        let file = w.partitions_newest_first()[0].run.file();
        assert!(w.quarantine(file));
        // Two more steps expire step 1, taking its quarantine entry along.
        for s in 2..=4u64 {
            w.add_batch(batch(s, 31)).unwrap();
        }
        assert!(!w.is_quarantined(file));
        assert_eq!(w.quarantined_mass(), 0);
        w.check_invariants().unwrap();
    }
}
