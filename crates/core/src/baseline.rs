//! Baselines from the paper's §2 and §3.1.
//!
//! * [`PureStreaming`] — "apply a streaming algorithm … to `T`": a single
//!   GK / Q-Digest / RANDOM sketch over the *entire* dataset, never reset.
//!   Error is proportional to `N` and keeps growing as data accumulates.
//!   For fair update-cost comparison, the baseline performs the same
//!   warehouse loading as our algorithm ("we use the same loading
//!   paradigm … and same partitioning scheme", §3.2) — batches are written
//!   to disk and re-tiered with κ-way concatenation merges — but *without
//!   sorting*, which is exactly the cost the paper's Figure 6 shows our
//!   algorithm paying on top.
//! * [`Strawman`] — "process `H` and `R` separately … `H` is kept on disk,
//!   sorted at all times": every batch is merged into one fully sorted
//!   run. Query error matches ours (`εm`), but each time step rewrites the
//!   entire history — the disk-cost extreme our leveled structure avoids.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use hsq_sketch::{GkSketch, QDigest, ReservoirQuantiles};
use hsq_storage::{BlockDevice, FileId, Item};

use crate::config::HsqConfig;
use crate::query::QueryContext;
use crate::stream::{StreamProcessor, StreamSummary};
use crate::summary::SummaryBuilder;
use crate::warehouse::{merge_to_partition, StoredPartition, UpdateReport};

/// Which streaming sketch a [`PureStreaming`] baseline runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamingAlgo {
    /// Greenwald–Khanna (deterministic; the paper's strongest baseline).
    Gk,
    /// Q-Digest (deterministic, universe-structured).
    QDigest,
    /// RANDOM / reservoir sampling (probabilistic; extension baseline).
    Random,
}

enum Sketch<T> {
    Gk(GkSketch<T>),
    QDigest(QDigest),
    Random(ReservoirQuantiles<T>),
}

/// The pure-streaming approach: one sketch over all data ever seen.
pub struct PureStreaming<T: Item, D: BlockDevice> {
    sketch: Sketch<T>,
    dev: Arc<D>,
    kappa: usize,
    /// Raw (unsorted) partition files per level: (file, blocks).
    levels: Vec<Vec<(FileId, u64)>>,
    staging: Vec<T>,
    n: u64,
}

impl<T: Item, D: BlockDevice> PureStreaming<T, D> {
    /// Baseline with an explicit error parameter (GK/Q-Digest) or sample
    /// size derived from it (RANDOM).
    pub fn new(dev: Arc<D>, algo: StreamingAlgo, epsilon: f64, kappa: usize) -> Self {
        let sketch = match algo {
            StreamingAlgo::Gk => Sketch::Gk(GkSketch::new(epsilon)),
            StreamingAlgo::QDigest => {
                Sketch::QDigest(QDigest::with_error(epsilon, T::UNIVERSE_BITS.min(64)))
            }
            StreamingAlgo::Random => Sketch::Random(ReservoirQuantiles::with_seed(
                ((1.0 / (epsilon * epsilon)).ceil() as usize).clamp(16, 1 << 22),
                0xBA5E,
            )),
        };
        PureStreaming {
            sketch,
            dev,
            kappa,
            levels: Vec::new(),
            staging: Vec::new(),
            n: 0,
        }
    }

    /// Baseline sized to a memory budget in words (the paper's Figure 4
    /// methodology): the sketch gets the whole budget.
    pub fn with_memory(
        dev: Arc<D>,
        algo: StreamingAlgo,
        words: usize,
        expected_total: u64,
        kappa: usize,
    ) -> Self {
        let epsilon = match algo {
            StreamingAlgo::Gk => crate::budget::epsilon_for_gk_budget(words, expected_total),
            StreamingAlgo::QDigest => {
                // QDigest memory ~ 9k words (3k nodes of 3 words) with
                // k = bits/eps.
                let bits = T::UNIVERSE_BITS.min(64) as f64;
                (9.0 * bits / words as f64).clamp(1e-9, 1.0)
            }
            StreamingAlgo::Random => {
                // Reservoir of `words` items: eps ~ 1/sqrt(s).
                (1.0 / (words.max(16) as f64).sqrt()).clamp(1e-9, 1.0)
            }
        };
        Self::new(dev, algo, epsilon, kappa)
    }

    /// Elements observed.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True iff nothing observed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Words of memory the sketch uses.
    pub fn memory_words(&self) -> usize {
        match &self.sketch {
            Sketch::Gk(s) => s.memory_words(),
            Sketch::QDigest(s) => s.memory_words(),
            Sketch::Random(s) => s.memory_words(),
        }
    }

    /// Observe one element.
    pub fn insert(&mut self, v: T) {
        self.n += 1;
        match &mut self.sketch {
            Sketch::Gk(s) => s.insert(v),
            Sketch::QDigest(s) => s.insert(v.to_ordered_u64()),
            Sketch::Random(s) => s.insert(v),
        }
        self.staging.push(v);
    }

    /// End of time step: write the raw batch to the warehouse (no sort)
    /// and re-tier with concatenation merges, mirroring our loading I/O.
    pub fn end_time_step(&mut self) -> io::Result<UpdateReport> {
        let mut report = UpdateReport::default();
        let batch = std::mem::take(&mut self.staging);
        if batch.is_empty() {
            return Ok(report);
        }
        let t0 = Instant::now();
        let before = self.dev.stats().snapshot();
        let file = self.write_raw(&batch)?;
        report.load_io = self.dev.stats().snapshot() - before;
        report.load_time = t0.elapsed();

        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        let blocks = self.dev.num_blocks(file)?;
        self.levels[0].push((file, blocks));

        let t1 = Instant::now();
        let before = self.dev.stats().snapshot();
        report.merges = self.cascade_concat()?;
        report.merge_io = self.dev.stats().snapshot() - before;
        report.merge_time = t1.elapsed();
        Ok(report)
    }

    fn write_raw(&self, batch: &[T]) -> io::Result<FileId> {
        let file = self.dev.create()?;
        let bs = self.dev.block_size();
        let per = bs / T::ENCODED_LEN;
        let mut buf = vec![0u8; bs];
        for (b, chunk) in batch.chunks(per).enumerate() {
            for (i, v) in chunk.iter().enumerate() {
                v.encode(&mut buf[i * T::ENCODED_LEN..]);
            }
            self.dev
                .write_block(file, b as u64, &buf[..chunk.len() * T::ENCODED_LEN])?;
        }
        Ok(file)
    }

    fn cascade_concat(&mut self) -> io::Result<usize> {
        let mut merges = 0;
        let mut level = 0;
        while level < self.levels.len() {
            if self.levels[level].len() <= self.kappa {
                level += 1;
                continue;
            }
            let olds = std::mem::take(&mut self.levels[level]);
            // Concatenate: read every block, write it to the new file.
            let out = self.dev.create()?;
            let mut buf = vec![0u8; self.dev.block_size()];
            let mut out_idx = 0u64;
            for &(f, blocks) in &olds {
                for b in 0..blocks {
                    let got = self.dev.read_block(f, b, &mut buf)?;
                    self.dev.write_block(out, out_idx, &buf[..got])?;
                    out_idx += 1;
                }
                self.dev.delete(f)?;
            }
            if self.levels.len() <= level + 1 {
                self.levels.push(Vec::new());
            }
            self.levels[level + 1].push((out, out_idx));
            merges += 1;
            level += 1;
        }
        Ok(merges)
    }

    /// φ-quantile from the sketch (no disk access).
    pub fn quantile(&mut self, phi: f64) -> Option<T> {
        assert!(phi > 0.0 && phi <= 1.0);
        match &mut self.sketch {
            Sketch::Gk(s) => s.quantile(phi),
            Sketch::QDigest(s) => s.quantile(phi).map(T::from_ordered_u64),
            Sketch::Random(s) => s.quantile(phi),
        }
    }
}

/// The strawman: fully sorted history, rebuilt every time step.
pub struct Strawman<T: Item, D: BlockDevice> {
    dev: Arc<D>,
    config: HsqConfig,
    history: Option<StoredPartition<T>>,
    stream: StreamProcessor<T>,
    staging: Vec<T>,
    steps: u64,
}

impl<T: Item, D: BlockDevice> Strawman<T, D> {
    /// New strawman with the same `(ε₁, ε₂)` machinery as the real engine.
    pub fn new(dev: Arc<D>, config: HsqConfig) -> Self {
        let stream = StreamProcessor::new(config.epsilon2, config.beta2);
        Strawman {
            dev,
            config,
            history: None,
            stream,
            staging: Vec::new(),
            steps: 0,
        }
    }

    /// Historical + streaming size.
    pub fn total_len(&self) -> u64 {
        self.history.as_ref().map(|p| p.run.len()).unwrap_or(0) + self.stream.len()
    }

    /// Observe one streaming element.
    pub fn stream_update(&mut self, v: T) {
        self.stream.update(v);
        self.staging.push(v);
    }

    /// End of time step: sort the batch and merge it into the single
    /// sorted history run (full rewrite).
    pub fn end_time_step(&mut self) -> io::Result<UpdateReport> {
        let mut report = UpdateReport::default();
        self.steps += 1;
        let mut batch = std::mem::take(&mut self.staging);
        self.stream.reset();
        if batch.is_empty() {
            return Ok(report);
        }
        let t0 = Instant::now();
        batch.sort_unstable();
        report.sort_time = t0.elapsed();

        let t1 = Instant::now();
        let before = self.dev.stats().snapshot();
        let batch_run = hsq_storage::write_run(&*self.dev, &batch)?;
        report.load_io = self.dev.stats().snapshot() - before;
        report.load_time = t1.elapsed();
        drop(batch);

        let t2 = Instant::now();
        let before = self.dev.stats().snapshot();
        let merged = match self.history.take() {
            None => {
                // First batch: summary from the run without re-reading is
                // not possible here (write_run consumed the data), so pay
                // one pass — only ever on the very first step.
                let mut sb = SummaryBuilder::new(
                    batch_run.len(),
                    self.config.epsilon1,
                    self.config.beta1,
                    self.dev.block_size(),
                );
                let mut reader = batch_run.iter(&*self.dev);
                loop {
                    let window = reader.fill_buf()?;
                    if window.is_empty() {
                        break;
                    }
                    sb.push_slice(window);
                    let n = window.len();
                    reader.consume(n);
                }
                StoredPartition {
                    run: batch_run,
                    summary: sb.finish(),
                    first_step: self.steps,
                    last_step: self.steps,
                }
            }
            Some(old) => {
                let runs = [old.run, batch_run];
                let (run, summary) = merge_to_partition(&*self.dev, &runs, &self.config)?;
                for r in runs {
                    r.delete(&*self.dev)?;
                }
                StoredPartition {
                    run,
                    summary,
                    first_step: old.first_step,
                    last_step: self.steps,
                }
            }
        };
        self.history = Some(merged);
        report.merge_io = self.dev.stats().snapshot() - before;
        report.merge_time = t2.elapsed();
        Ok(report)
    }

    /// Accurate φ-quantile (same query machinery as the real engine, over
    /// the single sorted partition).
    pub fn quantile(&self, phi: f64) -> io::Result<Option<T>> {
        assert!(phi > 0.0 && phi <= 1.0);
        let total = self.total_len();
        if total == 0 {
            return Ok(None);
        }
        let r = (phi * total as f64).ceil() as u64;
        let ss: StreamSummary<T> = self.stream.summary();
        let parts: Vec<&StoredPartition<T>> = self.history.iter().collect();
        let ctx = QueryContext::new(
            &*self.dev,
            parts,
            &ss,
            self.config.query_epsilon(),
            self.config.cache_blocks,
        );
        Ok(ctx.accurate_rank(r)?.map(|o| o.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsq_storage::MemDevice;

    #[test]
    fn pure_streaming_gk_tracks_all_data() {
        let dev = MemDevice::new(256);
        let mut b = PureStreaming::<u64, _>::new(Arc::clone(&dev), StreamingAlgo::Gk, 0.02, 4);
        for step in 0..5u64 {
            for i in 0..400u64 {
                b.insert(step * 400 + i);
            }
            b.end_time_step().unwrap();
        }
        assert_eq!(b.len(), 2000);
        let med = b.quantile(0.5).unwrap();
        // Error is eps * N = 40 over the full history.
        assert!((med as i64 - 1000).abs() <= 45, "median {med}");
    }

    #[test]
    fn pure_streaming_loading_io_matches_batch_size() {
        // 256-byte blocks of u64 -> 32/block; 320 items = 10 blocks.
        let dev = MemDevice::new(256);
        let mut b = PureStreaming::<u64, _>::new(Arc::clone(&dev), StreamingAlgo::Gk, 0.05, 4);
        for i in 0..320u64 {
            b.insert(i);
        }
        let rep = b.end_time_step().unwrap();
        assert_eq!(rep.load_io.writes, 10);
        assert_eq!(rep.merges, 0);
    }

    #[test]
    fn pure_streaming_concat_merges_trigger() {
        let dev = MemDevice::new(256);
        let mut b = PureStreaming::<u64, _>::new(Arc::clone(&dev), StreamingAlgo::Gk, 0.05, 2);
        let mut merges = 0;
        for step in 0..9u64 {
            for i in 0..64u64 {
                b.insert(step * 64 + i);
            }
            merges += b.end_time_step().unwrap().merges;
        }
        assert!(
            merges >= 2,
            "expected cascading concat merges, got {merges}"
        );
    }

    #[test]
    fn qdigest_and_random_baselines_answer() {
        let dev = MemDevice::new(256);
        for algo in [StreamingAlgo::QDigest, StreamingAlgo::Random] {
            let mut b = PureStreaming::<u64, _>::new(Arc::clone(&dev), algo, 0.05, 4);
            for i in 0..2000u64 {
                b.insert(i);
            }
            b.end_time_step().unwrap();
            let med = b.quantile(0.5).unwrap();
            assert!(
                (med as i64 - 1000).abs() <= 250,
                "{algo:?} median {med} too far off"
            );
        }
    }

    #[test]
    fn with_memory_constructors() {
        let dev = MemDevice::new(256);
        for algo in [
            StreamingAlgo::Gk,
            StreamingAlgo::QDigest,
            StreamingAlgo::Random,
        ] {
            let mut b =
                PureStreaming::<u64, _>::with_memory(Arc::clone(&dev), algo, 20_000, 100_000, 4);
            for i in 0..20_000u64 {
                b.insert(i);
            }
            let med = b.quantile(0.5).unwrap();
            assert!(
                (med as i64 - 10_000).abs() <= 2_000,
                "{algo:?}: median {med}"
            );
            // Sketch should stay in the neighbourhood of its budget.
            assert!(
                b.memory_words() <= 60_000,
                "{algo:?}: {} words",
                b.memory_words()
            );
        }
    }

    #[test]
    fn strawman_exact_history_small_stream_error() {
        let dev = MemDevice::new(256);
        let cfg = HsqConfig::with_epsilon(0.1);
        let mut s = Strawman::<u64, _>::new(Arc::clone(&dev), cfg);
        for step in 0..5u64 {
            for i in 0..200u64 {
                s.stream_update(step * 200 + i);
            }
            s.end_time_step().unwrap();
        }
        for v in 1000..1100u64 {
            s.stream_update(v);
        }
        assert_eq!(s.total_len(), 1100);
        let med = s.quantile(0.5).unwrap().unwrap();
        // eps*m = 10.
        assert!((med as i64 - 550).abs() <= 12, "median {med}");
    }

    #[test]
    fn strawman_update_io_grows_with_history() {
        let dev = MemDevice::new(256);
        let cfg = HsqConfig::with_epsilon(0.1);
        let mut s = Strawman::<u64, _>::new(Arc::clone(&dev), cfg);
        let mut last_io = 0;
        for step in 0..6u64 {
            for i in 0..320u64 {
                s.stream_update(step * 320 + i);
            }
            let rep = s.end_time_step().unwrap();
            let io = rep.total_accesses();
            if step >= 2 {
                assert!(
                    io > last_io,
                    "strawman I/O should grow every step: {io} <= {last_io}"
                );
            }
            last_io = io;
        }
    }
}
