//! Per-partition in-memory summaries (paper Algorithm 2 and §2.1, "Summary
//! of Historical Data HS").
//!
//! For a sorted partition of `η` elements, the summary holds `β₁` entries:
//! `S[0]` is the smallest element, and `S[i]` is the element at rank
//! `i·ε₁·η` for `i = 1 … β₁−1`. Each entry additionally records its exact
//! rank within the partition and the on-disk block holding it ("a pointer
//! to the on-disk address, for fast lookup", §2.1).
//!
//! Summaries are built by *tapping the write stream* of the partition —
//! during initial sorting or during a multi-way merge — so, as the paper
//! notes, "no additional disk access is required for computing the
//! summary".

use hsq_storage::{items_per_block, Item};

/// One summary entry: a value, its exact 1-based rank in the partition,
/// and the index of the disk block that holds that rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SummaryEntry<T> {
    /// The element value.
    pub value: T,
    /// Exact 1-based rank (position) of this element in the partition.
    pub rank: u64,
    /// Block index within the partition file holding this rank.
    pub block: u64,
}

/// In-memory summary of one on-disk partition (Algorithm 2's output).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSummary<T> {
    entries: Vec<SummaryEntry<T>>,
    partition_len: u64,
}

impl<T: Item> PartitionSummary<T> {
    /// Reassemble from persisted parts (manifest recovery). Entries must
    /// be in value/rank order with 1-based ranks in `[1, partition_len]`;
    /// debug-asserted here, range-checked by the manifest reader.
    pub fn from_raw_parts(entries: Vec<SummaryEntry<T>>, partition_len: u64) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].rank < w[1].rank));
        debug_assert!(entries.windows(2).all(|w| w[0].value <= w[1].value));
        PartitionSummary {
            entries,
            partition_len,
        }
    }

    /// Entries in value order (equal to rank order).
    pub fn entries(&self) -> &[SummaryEntry<T>] {
        &self.entries
    }

    /// Size of the summarized partition.
    pub fn partition_len(&self) -> u64 {
        self.partition_len
    }

    /// Memory in words (3 words per entry, as budgeted by Lemma 8).
    pub fn memory_words(&self) -> usize {
        3 * self.entries.len() + 2
    }

    /// Largest entry with `value <= v`, if any.
    pub fn last_le(&self, v: T) -> Option<&SummaryEntry<T>> {
        let idx = self.entries.partition_point(|e| e.value <= v);
        idx.checked_sub(1).map(|i| &self.entries[i])
    }

    /// Smallest entry with `value > v`, if any.
    pub fn first_gt(&self, v: T) -> Option<&SummaryEntry<T>> {
        let idx = self.entries.partition_point(|e| e.value <= v);
        self.entries.get(idx)
    }

    /// Smallest entry with `value >= v`, if any.
    pub fn first_ge(&self, v: T) -> Option<&SummaryEntry<T>> {
        let idx = self.entries.partition_point(|e| e.value < v);
        self.entries.get(idx)
    }

    /// Narrow the range that can contain the rank of any `z ∈ [u, v]`
    /// (paper Algorithm 8, line 5: the `l` and `p` endpoints).
    ///
    /// Returns `(lo, hi)` such that `lo ≤ rank(z, P) ≤ hi` (`rank` =
    /// count of elements ≤ z):
    /// * the last summary entry with value ≤ `u` sits at position `lo`,
    ///   and everything at or before it is ≤ u ≤ z;
    /// * the first summary entry with value > `v` bounds from above —
    ///   every element from its position on is > v ≥ z.
    pub fn narrow(&self, u: T, v: T) -> (u64, u64) {
        debug_assert!(u <= v);
        let lo = self.last_le(u).map(|e| e.rank).unwrap_or(0);
        let hi = self
            .first_gt(v)
            .map(|e| e.rank - 1)
            .unwrap_or(self.partition_len);
        (lo.min(hi), hi.max(lo))
    }
}

/// Streaming builder: feed the partition's elements in sorted order (with
/// their positions implied), collect the summary with zero extra I/O.
#[derive(Debug)]
pub struct SummaryBuilder<T> {
    eta: u64,
    items_per_block: u64,
    /// Target ranks, ascending, deduplicated.
    targets: Vec<u64>,
    next_target: usize,
    pos: u64,
    entries: Vec<SummaryEntry<T>>,
}

impl<T: Item> SummaryBuilder<T> {
    /// Builder for a partition that will contain exactly `eta` elements,
    /// with summary resolution `(epsilon1, beta1)` on a device with
    /// `block_size`-byte blocks.
    pub fn new(eta: u64, epsilon1: f64, beta1: usize, block_size: usize) -> Self {
        // Block pointers follow the run layout's per-block capacity.
        let per = items_per_block::<T>(block_size) as u64;
        let mut targets = Vec::with_capacity(beta1);
        if eta > 0 {
            targets.push(1); // S[0]: the smallest element
            for i in 1..beta1 as u64 {
                let r = ((i as f64) * epsilon1 * eta as f64).floor() as u64;
                targets.push(r.clamp(1, eta));
            }
            // Always include the maximum: queries narrow against it.
            targets.push(eta);
            targets.sort_unstable();
            targets.dedup();
        }
        SummaryBuilder {
            eta,
            items_per_block: per,
            targets,
            next_target: 0,
            pos: 0,
            entries: Vec::new(),
        }
    }

    /// Observe the next `items` of the partition (in sorted order). The
    /// targets that fall inside the slice are read from it by index, so
    /// the cost is per summary entry, not per item.
    pub fn push_slice(&mut self, items: &[T]) {
        let end = self.pos + items.len() as u64;
        assert!(end <= self.eta, "more items than declared");
        while let Some(&rank) = self.targets.get(self.next_target) {
            if rank > end {
                break;
            }
            self.entries.push(SummaryEntry {
                value: items[(rank - self.pos - 1) as usize],
                rank,
                block: (rank - 1) / self.items_per_block,
            });
            self.next_target += 1;
        }
        self.pos = end;
    }

    /// Finish; panics if fewer than `eta` elements were pushed.
    pub fn finish(self) -> PartitionSummary<T> {
        assert_eq!(
            self.pos, self.eta,
            "summary builder saw {} of {} items",
            self.pos, self.eta
        );
        PartitionSummary {
            entries: self.entries,
            partition_len: self.eta,
        }
    }
}

/// Build a summary directly from an in-memory sorted slice (used for the
/// in-memory sort path of batch loading).
pub fn summarize_sorted<T: Item>(
    sorted: &[T],
    epsilon1: f64,
    beta1: usize,
    block_size: usize,
) -> PartitionSummary<T> {
    let mut b = SummaryBuilder::new(sorted.len() as u64, epsilon1, beta1, block_size);
    b.push_slice(sorted);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_summaries() {
        // Paper Figure 3: eps = 1/2 -> eps1 = 1/4, beta1 = 5.
        // P1 = 1..=100  -> summary {1, 25, 50, 75, 100}
        // P2 = 101..=200 -> summary {101, 125, 150, 175, 200}
        // P3 = 2..=201  -> summary {2, 51, 101, 151, 201} (ranks 1,50,100,150,200)
        let eps1 = 0.25;
        let beta1 = 5;
        let p1: Vec<u64> = (1..=100).collect();
        let s1 = summarize_sorted(&p1, eps1, beta1, 4096);
        let vals: Vec<u64> = s1.entries().iter().map(|e| e.value).collect();
        assert_eq!(vals, vec![1, 25, 50, 75, 100]);

        let p2: Vec<u64> = (101..=200).collect();
        let s2 = summarize_sorted(&p2, eps1, beta1, 4096);
        let vals: Vec<u64> = s2.entries().iter().map(|e| e.value).collect();
        assert_eq!(vals, vec![101, 125, 150, 175, 200]);

        let p3: Vec<u64> = (2..=201).collect();
        let s3 = summarize_sorted(&p3, eps1, beta1, 4096);
        let vals: Vec<u64> = s3.entries().iter().map(|e| e.value).collect();
        assert_eq!(vals, vec![2, 51, 101, 151, 201]);
        let ranks: Vec<u64> = s3.entries().iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![1, 50, 100, 150, 200]);
    }

    #[test]
    fn ranks_are_exact_positions() {
        let data: Vec<u64> = (0..1000).map(|i| i * 2).collect();
        let s = summarize_sorted(&data, 0.1, 11, 64);
        for e in s.entries() {
            assert_eq!(data[(e.rank - 1) as usize], e.value);
        }
        // First and last elements are always present.
        assert_eq!(s.entries().first().unwrap().rank, 1);
        assert_eq!(s.entries().last().unwrap().rank, 1000);
    }

    #[test]
    fn block_pointers_match_geometry() {
        // 64-byte checksummed blocks of u64 -> 7 items per block.
        let data: Vec<u64> = (0..100).collect();
        let s = summarize_sorted(&data, 0.25, 5, 64);
        for e in s.entries() {
            assert_eq!(e.block, (e.rank - 1) / 7);
        }
    }

    #[test]
    fn tiny_partition_dedupes_targets() {
        // eta smaller than beta1: targets collapse, but min and max remain.
        let data = vec![7u64, 9, 11];
        let s = summarize_sorted(&data, 0.01, 101, 64);
        assert_eq!(s.entries().len(), 3);
        assert_eq!(s.entries()[0].value, 7);
        assert_eq!(s.entries()[2].value, 11);
    }

    #[test]
    fn empty_partition() {
        let s = summarize_sorted::<u64>(&[], 0.1, 11, 64);
        assert!(s.entries().is_empty());
        assert_eq!(s.partition_len(), 0);
        assert_eq!(s.last_le(5), None);
        assert_eq!(s.narrow(1, 2), (0, 0));
    }

    #[test]
    fn lookup_helpers() {
        let data: Vec<u64> = (0..=100).map(|i| i * 10).collect(); // 0,10,...,1000
        let s = summarize_sorted(&data, 0.1, 11, 4096);
        let le = s.last_le(305).unwrap();
        assert!(le.value <= 305);
        let gt = s.first_gt(305).unwrap();
        assert!(gt.value > 305);
        assert!(le.rank < gt.rank);
        assert_eq!(s.last_le(u64::MAX).unwrap().value, 1000);
        assert_eq!(s.first_gt(u64::MAX), None);
        assert_eq!(s.last_le(0).unwrap().value, 0);
    }

    #[test]
    fn narrow_brackets_the_true_rank() {
        let data: Vec<u64> = (0..500).map(|i| i * 3).collect();
        let s = summarize_sorted(&data, 0.05, 21, 64);
        for (u, v) in [(10u64, 700u64), (0, 0), (1497, 1497), (200, 220)] {
            let (lo, hi) = s.narrow(u, v);
            for z in [u, v, (u + v) / 2] {
                let rank = data.iter().filter(|&&x| x <= z).count() as u64;
                assert!(
                    lo <= rank && rank <= hi,
                    "z={z}: rank {rank} outside [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn duplicate_heavy_partition() {
        let mut data = vec![5u64; 500];
        data.extend(vec![9u64; 500]);
        let s = summarize_sorted(&data, 0.1, 11, 64);
        // Entries exist at both values; ranks are positions.
        assert_eq!(s.entries().first().unwrap().value, 5);
        assert_eq!(s.entries().last().unwrap().value, 9);
        assert_eq!(s.entries().last().unwrap().rank, 1000);
        let (lo, hi) = s.narrow(5, 5);
        assert!(lo <= 500 && 500 <= hi);
    }
}
