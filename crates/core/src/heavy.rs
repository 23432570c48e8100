//! Heavy hitters over the union of historical and streaming data.
//!
//! **Extension beyond the paper's figures.** The paper's introduction
//! names heavy hitters next to quantiles as the fundamental primitives
//! with "no prior work … in this setting" (§1), and its conclusion lists
//! "other classes of aggregates" as future work (§4). This module answers
//! φ-heavy-hitter queries — *which values occur at least `⌈φN⌉` times in
//! `T = H ∪ R`?* — from data the engine already holds, with exact counts:
//!
//! * **streaming side**: exact count of the staged items (the live step's
//!   raw data, kept for archival and persisted with the stream), sorted
//!   once per query;
//! * **historical side**: partitions are *sorted*, so the exact
//!   multiplicity of any value `v` in a partition is
//!   `rank(v) − rank(pred(v))` — two summary-narrowed, block-cached
//!   searches (the same [`hsq_storage::SortedRun::rank_in`] the accurate
//!   quantile response uses).
//!
//! Candidates are every partition-summary value plus each staged value
//! with `stream_count + slack ≥ threshold`. `slack = Σ_P slack_P`, where
//! `slack_P` is the longest run a value missing from `P`'s summary can
//! have in `P`: the widest gap `r_{i+1} − r_i − 1` between adjacent
//! summary ranks (or `η − r_last` past the last entry). A value in no
//! summary has at most `slack` historical copies, so a heavy one is
//! staged — unless `slack ≥ threshold`, when it may live in history
//! alone. Then one of its `k` partition counts is at least
//! `⌈threshold / k⌉`, and every partition whose slack reaches that is
//! scanned for runs at least as long. The answer is exact and complete
//! for every φ ∈ (0, 1]; only a `φN ≤ slack` (about `ε₁·n`) query reads
//! partitions end to end.

use std::collections::BTreeSet;
use std::io;

use hsq_storage::{BlockCache, BlockDevice, Item};

use crate::summary::PartitionSummary;
use crate::warehouse::{StoredPartition, Warehouse};

/// A reported heavy hitter with its count decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeavyHitter<T> {
    /// The value.
    pub value: T,
    /// Exact occurrences in the historical warehouse's healthy
    /// partitions (quarantined ones are not read).
    pub hist_count: u64,
    /// Exact occurrences in the live stream.
    pub stream_count: u64,
}

impl<T> HeavyHitter<T> {
    /// Exact occurrences in `T = H ∪ R`.
    pub fn count(&self) -> u64 {
        self.hist_count + self.stream_count
    }
}

/// Every value occurring at least `threshold` times in the warehouse's
/// healthy partitions and `staged`, most frequent first, with exact
/// per-side counts (see the module docs for why the candidate set is
/// complete). Quarantined partitions are skipped, as degraded quantile
/// queries skip them, so `hist_count` excludes their mass.
pub(crate) fn heavy_hitters<T: Item, D: BlockDevice>(
    warehouse: &Warehouse<T, D>,
    staged: &[T],
    threshold: u64,
    cache_blocks: usize,
) -> io::Result<Vec<HeavyHitter<T>>> {
    let partitions = warehouse.healthy_partitions_newest_first();
    let dev = &**warehouse.device();
    let mut stream = staged.to_vec();
    hsq_storage::sort_items(&mut stream);

    let slack: u64 = partitions.iter().map(|p| partition_slack(&p.summary)).sum();
    let mut candidates: BTreeSet<T> = partitions
        .iter()
        .flat_map(|p| p.summary.entries())
        .map(|e| e.value)
        .collect();
    candidates.extend(long_runs(
        stream.iter().map(|&v| Ok(v)),
        threshold.saturating_sub(slack),
    )?);
    if slack >= threshold {
        // A heavy value may be in history alone and in no summary: then
        // one of its partition counts reaches `⌈threshold / k⌉`.
        let floor = threshold.div_ceil(partitions.len() as u64);
        for p in &partitions {
            if partition_slack(&p.summary) >= floor {
                candidates.extend(long_runs(p.run.iter(dev), floor)?);
            }
        }
    }

    let mut cache: BlockCache<T> = BlockCache::new(cache_blocks.max(2));
    let mut out = Vec::new();
    for v in candidates {
        let mut hist_count = 0u64;
        for p in &partitions {
            hist_count += count_in_partition(dev, p, v, &mut cache)?;
        }
        let stream_count =
            (stream.partition_point(|&x| x <= v) - stream.partition_point(|&x| x < v)) as u64;
        let hit = HeavyHitter {
            value: v,
            hist_count,
            stream_count,
        };
        if hit.count() >= threshold {
            out.push(hit);
        }
    }
    // Most frequent first; ties stay in value order.
    out.sort_by_key(|h| std::cmp::Reverse(h.count()));
    Ok(out)
}

/// The longest run a value missing from `s`'s entries can have in its
/// partition: the widest gap between adjacent entry ranks, counting the
/// stretches before the first entry and after the last.
fn partition_slack<T: Item>(s: &PartitionSummary<T>) -> u64 {
    let ends = s.entries().iter().map(|e| e.rank);
    let (mut prev, mut widest) = (0, 0);
    for rank in ends.chain([s.partition_len() + 1]) {
        widest = widest.max(rank - prev - 1);
        prev = rank;
    }
    widest
}

/// The values whose run in the sorted `items` is at least `min_len` long.
fn long_runs<T: Item>(
    items: impl Iterator<Item = io::Result<T>>,
    min_len: u64,
) -> io::Result<Vec<T>> {
    let mut out = Vec::new();
    let mut run: Option<(T, u64)> = None;
    for v in items {
        let v = v?;
        match &mut run {
            Some((u, n)) if *u == v => *n += 1,
            _ => out.extend(run.replace((v, 1)).filter(|r| r.1 >= min_len).map(|r| r.0)),
        }
    }
    out.extend(run.filter(|r| r.1 >= min_len).map(|r| r.0));
    Ok(out)
}

/// Exact multiplicity of `v` in one sorted partition:
/// `rank(v) − |{x < v}|`, each side a summary-narrowed search.
pub fn count_in_partition<T: Item, D: BlockDevice>(
    dev: &D,
    p: &StoredPartition<T>,
    v: T,
    cache: &mut BlockCache<T>,
) -> io::Result<u64> {
    let rank_le = p
        .run
        .rank_in(dev, v, p.summary.narrow(v), cache, &mut true)?;
    // Elements strictly below v = rank of the predecessor value, searched
    // within its own summary window capped above by rank(v) (everything
    // before that is ≤ v).
    let below = match predecessor(v) {
        None => 0, // v is the universe minimum: nothing below
        Some(pred) => {
            let mut w = p.summary.narrow(pred);
            (w.lo, w.hi) = (w.lo.min(rank_le), w.hi.min(rank_le));
            w.hi_value = w.hi_value.min(v);
            p.run.rank_in(dev, pred, w, cache, &mut true)?
        }
    };
    Ok(rank_le - below)
}

/// The largest universe value strictly below `v`, if any.
fn predecessor<T: Item>(v: T) -> Option<T> {
    if v == T::MIN {
        return None;
    }
    // midpoint(MIN, v) < v unless v = MIN+1-ish; walk down via bisection:
    // the predecessor in an integer-like universe is midpoint(prev, v)
    // converged. Cheaper: exploit ordered-u64 mapping.
    let key = v.to_ordered_u64();
    debug_assert!(key > T::MIN.to_ordered_u64());
    Some(T::from_ordered_u64(key - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HsqConfig;
    use crate::summary::SummaryEntry;
    use hsq_storage::MemDevice;

    fn warehouse_with(batches: Vec<Vec<u64>>, kappa: usize) -> Warehouse<u64, MemDevice> {
        let mut cfg = HsqConfig::with_epsilon(0.05);
        cfg.kappa = kappa;
        let mut w = Warehouse::new(MemDevice::new(256), cfg);
        for b in batches {
            w.add_batch(b).unwrap();
        }
        w
    }

    /// `(value, hist_count, stream_count)` of every reported hitter.
    fn hits(w: &Warehouse<u64, MemDevice>, staged: &[u64], threshold: u64) -> Vec<(u64, u64, u64)> {
        heavy_hitters(w, staged, threshold, 16)
            .unwrap()
            .iter()
            .map(|h| (h.value, h.hist_count, h.stream_count))
            .collect()
    }

    #[test]
    fn count_in_partition_exact() {
        let mut batch: Vec<u64> = (0..500).collect();
        batch.extend(vec![250u64; 300]); // 301 copies of 250 total
        let w = warehouse_with(vec![batch], 4);
        let p = &w.partitions_newest_first()[0];
        let mut cache = BlockCache::new(8);
        assert_eq!(
            count_in_partition(&**w.device(), p, 250, &mut cache).unwrap(),
            301
        );
        assert_eq!(
            count_in_partition(&**w.device(), p, 0, &mut cache).unwrap(),
            1
        );
        assert_eq!(
            count_in_partition(&**w.device(), p, 9999, &mut cache).unwrap(),
            0
        );
    }

    #[test]
    fn finds_historical_heavy_hitter() {
        // 40% of history is the value 777; spread across merged batches.
        let mut batches = Vec::new();
        for s in 0..6u64 {
            let mut b = vec![777u64; 400];
            b.extend((0..600).map(|i| s * 1000 + i));
            batches.push(b);
        }
        let w = warehouse_with(batches, 2);
        assert_eq!(hits(&w, &[], w.total_len() / 10), [(777, 2400, 0)]);
    }

    #[test]
    fn finds_stream_heavy_hitter() {
        let w = warehouse_with(vec![(0..1000u64).collect()], 3);
        let staged: Vec<u64> = (0..900u64)
            .map(|i| if i % 3 == 0 { 42 } else { 10_000 + i })
            .collect();
        // 42 also appears once in history (value 42 in 0..1000).
        assert_eq!(hits(&w, &staged, 250), [(42, 1, 300)]);
    }

    #[test]
    fn combined_counts_across_union() {
        // Value heavy in BOTH history and stream: counts must add up.
        let mut batches = Vec::new();
        for _ in 0..3 {
            let mut b = vec![5u64; 200];
            b.extend(0..800u64);
            batches.push(b);
        }
        let w = warehouse_with(batches, 2);
        // 3 extra: value 5 in 0..800 per batch.
        assert_eq!(hits(&w, &[5; 150], 500), [(5, 603, 150)]);
    }

    #[test]
    fn no_false_heavy_hitters_below_threshold() {
        // Uniform data: nothing repeats more than a handful of times.
        let batches: Vec<Vec<u64>> = (0..4)
            .map(|s| (0..1000u64).map(|i| s * 1000 + i).collect())
            .collect();
        let w = warehouse_with(batches, 3);
        assert_eq!(hits(&w, &[], 100), []);
    }

    #[test]
    fn finds_a_run_hidden_between_summary_entries() {
        // 20 copies of 5 at ranks 2..=21: between the summary's entries at
        // ranks 1 and 25 (ε₁ = 0.025, η = 1000), so 5 is no summary value.
        let mut batch = vec![0u64];
        batch.extend([5u64; 20]);
        batch.extend(100..1079u64);
        let w = warehouse_with(vec![batch], 3);
        let p = w.partitions_newest_first()[0];
        assert!(p.summary.entries().iter().all(|e| e.value != 5));
        assert_eq!(partition_slack(&p.summary), 24);
        // History alone: only the scan can find it.
        assert_eq!(hits(&w, &[], 20), [(5, 20, 0)]);
        assert_eq!(hits(&w, &[], 21), []);
        // Staged copies make it a candidate without a scan (30 > slack).
        assert_eq!(hits(&w, &[5; 10], 30), [(5, 20, 10)]);
        assert_eq!(hits(&w, &[5; 10], 31), []);
    }

    #[test]
    fn slack_is_the_widest_gap_between_entry_ranks() {
        let entry = |rank| SummaryEntry {
            value: rank,
            rank,
            block: 0,
        };
        let s = PartitionSummary::from_raw_parts(vec![entry(1), entry(5), entry(6)], 10);
        assert_eq!(partition_slack(&s), 4); // ranks 7..=10, past the last entry
        let s = PartitionSummary::from_raw_parts(vec![entry(3), entry(10)], 10);
        assert_eq!(partition_slack(&s), 6); // ranks 4..=9
        assert_eq!(
            partition_slack(&PartitionSummary::<u64>::from_raw_parts(vec![], 0)),
            0
        );
    }

    #[test]
    fn predecessor_edge_cases() {
        assert_eq!(predecessor(0u64), None);
        assert_eq!(predecessor(1u64), Some(0));
        assert_eq!(predecessor(i64::MIN), None);
        assert_eq!(predecessor(i64::MIN + 1), Some(i64::MIN));
        assert_eq!(predecessor(-5i64), Some(-6));
    }
}
