//! # hsq-bench — the paper's headline claims and their regression gate
//!
//! The `headline` binary reproduces the §1.2 accuracy claim and the
//! §3.2 claims no test checks, and writes `BENCH_headline.json`;
//! `bench_trend` diffs a fresh run against the committed file
//! ([`trend`]). Wall-clock timing of the engine belongs to the repo's
//! benchmark (`hsq_benchmark/`), not here. This library holds the shared
//! machinery: scaled-down experiment sizing, engine construction from a
//! memory budget, measured ingestion, and error/cost measurement against
//! an exact oracle.
//!
//! ## Scaling
//!
//! The paper runs 50–100 GB of history; we run ~10⁶ items and shrink the
//! block size 100 KB → 4 KB so that *block counts* — the unit of every
//! cost the paper reports — stay in a comparable regime. Memory budgets
//! scale likewise; every ratio the paper varies (memory:data,
//! history:stream, κ, steps) is preserved.

pub mod trend;

use std::sync::Arc;

use hsq_core::baseline::{PureStreaming, StreamingAlgo};
use hsq_core::{plan_memory, HistStreamQuantiles};
use hsq_sketch::ExactQuantiles;
use hsq_storage::MemDevice;
use hsq_workload::{Dataset, TimeStepDriver};

/// The quantiles measured in every accuracy experiment.
pub const PHIS: [f64; 5] = [0.05, 0.25, 0.5, 0.75, 0.95];

/// Experiment sizing.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Archived time steps (the paper: 100–116).
    pub steps: usize,
    /// Items per time step (the paper: ~10⁸; scaled down ~10³–10⁴×).
    pub step_items: usize,
    /// Device block size in bytes (the paper: 100 KB).
    pub block_size: usize,
    /// Memory budget in bytes (the paper: 250 MB).
    pub memory_bytes: usize,
}

impl Scale {
    /// CI-sized run: finishes in seconds per configuration.
    pub fn quick() -> Self {
        Scale {
            steps: 50,
            step_items: 10_000,
            block_size: 4096,
            memory_bytes: 96 << 10,
        }
    }

    /// Total historical items.
    pub fn total_items(&self) -> u64 {
        (self.steps * self.step_items) as u64
    }
}

/// A fully ingested scenario: engine + ground truth + ingest cost.
pub struct Scenario {
    /// The engine under test.
    pub engine: HistStreamQuantiles<u64, MemDevice>,
    /// Exact oracle over all data (history + live stream).
    pub oracle: ExactQuantiles<u64>,
    /// Disk accesses of each archived step (writes, merges, reads).
    pub per_step_accesses: Vec<u64>,
}

impl Scenario {
    /// Mean disk accesses per archived step.
    pub fn mean_step_accesses(&self) -> f64 {
        let steps = self.per_step_accesses.len().max(1);
        self.per_step_accesses.iter().sum::<u64>() as f64 / steps as f64
    }
}

/// Full scenario build: an engine sized from `scale.memory_bytes` (the
/// paper's §3.1 methodology: 50/50 split between stream and historical
/// summaries), `scale.steps` archived steps plus one live stream of
/// `scale.step_items`, all mirrored in the oracle.
pub fn build_scenario(dataset: Dataset, kappa: usize, seed: u64, scale: &Scale) -> Scenario {
    let plan = plan_memory(
        scale.memory_bytes,
        kappa,
        scale.steps as u64,
        scale.step_items as u64,
    );
    let mut cfg = plan.into_config(kappa);
    cfg.cache_blocks = 64;
    let mut engine = HistStreamQuantiles::new(MemDevice::new(scale.block_size), cfg);
    let mut oracle = ExactQuantiles::new();
    let mut per_step_accesses = Vec::with_capacity(scale.steps);
    for batch in TimeStepDriver::new(dataset, seed, scale.step_items, scale.steps) {
        oracle.extend(batch.iter().copied());
        let rep = engine.ingest_step(&batch).expect("ingest failed");
        per_step_accesses.push(rep.total_accesses());
    }
    let mut sdriver = TimeStepDriver::new(dataset, seed ^ 0xDEAD, scale.step_items, 1);
    for v in sdriver.next().unwrap_or_default() {
        oracle.insert(v);
        engine.stream_update(v);
    }
    Scenario {
        engine,
        oracle,
        per_step_accesses,
    }
}

/// Median relative error of the *accurate* response over [`PHIS`].
pub fn accurate_relative_error(s: &mut Scenario) -> f64 {
    let mut errs: Vec<f64> = PHIS
        .iter()
        .map(|&phi| {
            let v = s.engine.quantile(phi).unwrap().unwrap();
            s.oracle.relative_error(phi, v)
        })
        .collect();
    median(&mut errs)
}

/// Mean disk reads of an accurate rank query over [`PHIS`].
pub fn disk_reads_per_query(s: &Scenario) -> f64 {
    let reads: u64 = PHIS
        .iter()
        .map(|&phi| {
            let r = (phi * s.engine.total_len() as f64).ceil() as u64;
            s.engine.rank_query(r).unwrap().unwrap().io.total_reads()
        })
        .sum();
    reads as f64 / PHIS.len() as f64
}

/// Pure-streaming baseline driven like [`build_scenario`] in the same
/// memory; returns median relative error over [`PHIS`] and sketch memory
/// words.
pub fn run_pure_streaming(
    algo: StreamingAlgo,
    dataset: Dataset,
    kappa: usize,
    seed: u64,
    scale: &Scale,
) -> (f64, usize) {
    let dev = MemDevice::new(scale.block_size);
    let words = scale.memory_bytes / 8;
    let expected = scale.total_items() + scale.step_items as u64;
    let mut base =
        PureStreaming::<u64, _>::with_memory(Arc::clone(&dev), algo, words, expected, kappa);
    let mut oracle = ExactQuantiles::new();
    for batch in TimeStepDriver::new(dataset, seed, scale.step_items, scale.steps) {
        for &v in &batch {
            base.insert(v);
        }
        base.end_time_step().unwrap();
        oracle.extend(batch.iter().copied());
    }
    let mut sdriver = TimeStepDriver::new(dataset, seed ^ 0xDEAD, scale.step_items, 1);
    for v in sdriver.next().unwrap_or_default() {
        base.insert(v);
        oracle.insert(v);
    }
    let mut errs: Vec<f64> = PHIS
        .iter()
        .map(|&phi| {
            let v = base.quantile(phi).unwrap();
            oracle.relative_error(phi, v)
        })
        .collect();
    (median(&mut errs), base.memory_words())
}

/// Median of a slice (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_builds_and_answers() {
        let scale = Scale {
            steps: 5,
            step_items: 500,
            block_size: 512,
            memory_bytes: 1 << 13,
        };
        let mut s = build_scenario(Dataset::Uniform, 3, 42, &scale);
        assert_eq!(s.engine.total_len(), 3000);
        assert_eq!(s.per_step_accesses.len(), 5);
        assert!(s.mean_step_accesses() > 0.0);
        let err = accurate_relative_error(&mut s);
        assert!(err < 0.2, "err {err}");
        assert!(disk_reads_per_query(&s) >= 0.0);
    }

    #[test]
    fn median_helper() {
        let mut xs = [3.0, 1.0, 2.0];
        assert_eq!(median(&mut xs), 2.0);
    }
}
