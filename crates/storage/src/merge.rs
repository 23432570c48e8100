//! Multi-way merge of sorted inputs, a block at a time.
//!
//! Partition merging is the heart of the warehouse's update path (paper
//! Algorithm 3, line 10: "Multi-way merge the sorted partitions ... into a
//! single sorted partition using a single pass through the partitions").
//! The merge streams every input run once (sequential reads) and writes the
//! output once (sequential writes), so its I/O cost is
//! `O(total_blocks_in + total_blocks_out)` — the bound Lemma 6 charges per
//! merge level. The paper fixes the disk accesses; what is left to choose
//! is the CPU spent per item inside the pass, and this module spends it on
//! the repo's radix kernel instead of on comparisons.
//!
//! # The round
//!
//! [`merge_sources`] is the only k-way merge loop in the workspace: cascade
//! merges, external-sort spill merges and the engine's staging-segment
//! merge all run it. It sees an input only as a [`MergeSource`] — "here
//! is a sorted slice of what comes next, tell me how much of it you took" —
//! and hands its output on as sorted slices. One round:
//!
//! 1. look at the *head* of every input: its next items, at most one
//!    block's worth;
//! 2. the round's **bound** is the smallest of the heads' last items;
//! 3. every head gives up its prefix `<= bound` (one `partition_point`
//!    each) into one chunk of at most one block per input;
//! 4. if more than one input contributed, [`crate::sort_items`] orders the
//!    chunk (adaptive LSD radix, a few sequential passes); a chunk from a
//!    single input is already sorted;
//! 5. the sink gets the chunk as one `&[T]`.
//!
//! **Chunks concatenate to the global order.** Whatever a round leaves
//! behind is `>= bound`: the rest of a head is `> bound` by the partition
//! point, and anything beyond a head is `>=` that head's last item, which
//! is `>= bound` because the bound is the minimum of those. Everything the
//! round emits is `<= bound`. So every later chunk starts at or above
//! where this one ends.
//!
//! **Every round makes a block of progress.** The input whose last head
//! item *is* the bound gives up its whole head, so the loop runs at most
//! `Σ ⌈lenᵢ / block⌉` rounds and never spins.
//!
//! **No tie-break, no stability.** An [`Item`]'s encoding is an
//! order-preserving bijection, so equal items are indistinguishable: the
//! merged bytes are a function of the input *multiset* alone, whichever
//! input an equal item came from and wherever the radix passes put it.
//!
//! Why this and not a tournament: with `k` inputs of equal density the
//! run of consecutive output items from one input averages `k/(k−1)`, so
//! every comparison of a heap or loser tree is a coin flip and galloping
//! moves one item at a time. The radix passes have no data-dependent
//! branches. (Measured: `benches/warehouse.rs::multiway_merge`.)

use std::io;

use crate::device::BlockDevice;
use crate::encode::Item;
use crate::run::{items_per_block, RunReader, RunWriter, SortedRun};
use crate::sort::sort_items;

/// One sorted input of [`merge_sources`], consumed front to back.
pub trait MergeSource<T> {
    /// The items that come next, as far as they are available without
    /// more I/O: nondecreasing, and empty only when the input is
    /// exhausted. Repeated calls without [`MergeSource::consume`] return
    /// the same items.
    fn head(&mut self) -> io::Result<&[T]>;

    /// Drop the first `n` items of the last [`MergeSource::head`].
    fn consume(&mut self, n: usize);
}

/// A sorted in-memory segment.
impl<T> MergeSource<T> for &[T] {
    fn head(&mut self) -> io::Result<&[T]> {
        Ok(self)
    }

    fn consume(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// A sorted run on a device: the head is the reader's verified, decoded
/// readahead window, so checksum failures, short reads and device errors
/// surface from [`MergeSource::head`] exactly as from a plain scan.
impl<T: Item, D: BlockDevice> MergeSource<T> for RunReader<'_, T, D> {
    fn head(&mut self) -> io::Result<&[T]> {
        self.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        RunReader::consume(self, n)
    }
}

/// A round's view of a source: at most one block of its next items.
fn head_block<T, S: MergeSource<T>>(src: &mut S, block_items: usize) -> io::Result<&[T]> {
    let head = src.head()?;
    Ok(&head[..head.len().min(block_items)])
}

/// Merge `sources` into one nondecreasing sequence, handed to `sink` as
/// consecutive sorted chunks of at most `block_items` items per source
/// (see the module docs for the round and why it is correct).
pub fn merge_sources<T: Item, S: MergeSource<T>>(
    sources: &mut [S],
    block_items: usize,
    mut sink: impl FnMut(&[T]) -> io::Result<()>,
) -> io::Result<()> {
    assert!(block_items > 0, "merge heads must hold at least one item");
    let mut chunk: Vec<T> = Vec::with_capacity(sources.len() * block_items);
    loop {
        let mut bound: Option<T> = None;
        for src in sources.iter_mut() {
            if let Some(&last) = head_block(src, block_items)?.last() {
                bound = Some(bound.map_or(last, |b| b.min(last)));
            }
        }
        let Some(bound) = bound else {
            return Ok(()); // every input exhausted
        };
        chunk.clear();
        let mut contributors = 0;
        for src in sources.iter_mut() {
            let head = head_block(src, block_items)?;
            let take = head.partition_point(|&v| v <= bound);
            if take > 0 {
                chunk.extend_from_slice(&head[..take]);
                src.consume(take);
                contributors += 1;
            }
        }
        if contributors > 1 {
            sort_items(&mut chunk);
        }
        sink(&chunk)?;
    }
}

/// Merge `runs` into a single new sorted run on `dev`.
///
/// Input runs are *not* deleted; callers that re-tier partitions decide
/// when to reclaim them. Duplicates are preserved (multiset union). On
/// error the half-written output is deleted (see [`RunWriter`]).
pub fn merge_runs<T: Item, D: BlockDevice>(
    dev: &D,
    runs: &[SortedRun<T>],
) -> io::Result<SortedRun<T>> {
    let mut writer = RunWriter::new(dev)?;
    merge_into(dev, runs, |chunk| writer.push_slice(chunk))?;
    writer.finish()
}

/// Merge `runs`, invoking `sink` with consecutive sorted chunks that
/// concatenate to the global sorted order.
///
/// This is the streaming form used both by [`merge_runs`] and by summary
/// construction, which taps the merged stream to extract evenly spaced
/// elements without a second pass (paper §2.1: "the generation of a new
/// data partition and the corresponding summary occur simultaneously so no
/// additional disk access is required").
pub fn merge_into<T: Item, D: BlockDevice>(
    dev: &D,
    runs: &[SortedRun<T>],
    sink: impl FnMut(&[T]) -> io::Result<()>,
) -> io::Result<()> {
    let mut sources: Vec<RunReader<'_, T, D>> = runs.iter().map(|r| r.iter(dev)).collect();
    merge_sources(&mut sources, items_per_block::<T>(dev.block_size()), sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use crate::run::write_run;

    #[test]
    fn merge_three_runs() {
        let dev = MemDevice::new(64);
        let a = write_run(&*dev, &[1u64, 4, 7, 10]).unwrap();
        let b = write_run(&*dev, &[2u64, 5, 8]).unwrap();
        let c = write_run(&*dev, &[3u64, 6, 9, 11, 12]).unwrap();
        let merged = merge_runs(&*dev, &[a, b, c]).unwrap();
        assert_eq!(
            merged.read_all(&*dev).unwrap(),
            (1..=12).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn merge_preserves_duplicates() {
        let dev = MemDevice::new(64);
        let a = write_run(&*dev, &[1u64, 1, 2, 2]).unwrap();
        let b = write_run(&*dev, &[1u64, 2, 3]).unwrap();
        let merged = merge_runs(&*dev, &[a, b]).unwrap();
        assert_eq!(merged.read_all(&*dev).unwrap(), vec![1, 1, 1, 2, 2, 2, 3]);
        assert_eq!(merged.len(), 7);
    }

    #[test]
    fn merge_with_empty_runs() {
        let dev = MemDevice::new(64);
        let a = write_run::<u64, _>(&*dev, &[]).unwrap();
        let b = write_run(&*dev, &[5u64]).unwrap();
        let merged = merge_runs(&*dev, &[a, b]).unwrap();
        assert_eq!(merged.read_all(&*dev).unwrap(), vec![5]);
    }

    #[test]
    fn merge_single_run_copies() {
        let dev = MemDevice::new(64);
        let a = write_run(&*dev, &[1u64, 2, 3]).unwrap();
        let merged = merge_runs(&*dev, &[a]).unwrap();
        assert_eq!(merged.read_all(&*dev).unwrap(), vec![1, 2, 3]);
        assert_ne!(merged.file(), a.file());
    }

    #[test]
    fn corrupt_input_block_is_named_and_leaves_no_output() {
        use crate::error::corruption_in;
        let dev = MemDevice::new(64); // 7 u64 per block
        let runs: Vec<_> = (0..3u64)
            .map(|j| {
                let data: Vec<u64> = (0..200).map(|i| i * 3 + j).collect(); // 29 blocks
                write_run(&*dev, &data).unwrap()
            })
            .collect();
        // Block 19 of input 1 sits in that reader's third readahead window.
        let (j, b) = (1usize, 19u64);
        let mut raw = vec![0u8; dev.block_size()];
        let n = dev.read_block(runs[j].file(), b, &mut raw).unwrap();
        raw[5] ^= 0x10;
        dev.write_block(runs[j].file(), b, &raw[..n]).unwrap();

        let files = dev.num_files();
        let err = merge_runs(&*dev, &runs).unwrap_err();
        assert_eq!(corruption_in(&err), Some((runs[j].file(), b)));
        assert_eq!(
            dev.num_files(),
            files,
            "half-written output must be deleted"
        );
    }

    #[test]
    fn merge_sources_mixes_slices_of_any_length() {
        // In-memory segments through the same kernel, heads capped at 4
        // items: empty, shorter-than-a-head and multi-head inputs.
        let a: Vec<u64> = (0..50).map(|i| i * 2).collect();
        let b: Vec<u64> = vec![7, 7, 7];
        let c: Vec<u64> = Vec::new();
        let d: Vec<u64> = (0..30).map(|i| i * 3 + 1).collect();
        let mut expect: Vec<u64> = [&a[..], &b, &c, &d].concat();
        expect.sort_unstable();
        let mut sources: Vec<&[u64]> = vec![&a, &b, &c, &d];
        let mut out = Vec::new();
        merge_sources(&mut sources, 4, |chunk| {
            assert!(chunk.len() <= 4 * 4, "at most one head per source");
            out.extend_from_slice(chunk);
            Ok(())
        })
        .unwrap();
        assert_eq!(out, expect);
    }

    #[test]
    fn merge_io_is_linear_and_sequential() {
        let dev = MemDevice::new(64); // 7 u64 per block
        let a = write_run(&*dev, &(0..84).map(|i| i * 2).collect::<Vec<u64>>()).unwrap(); // 12 blocks
        let b = write_run(&*dev, &(0..84).map(|i| i * 2 + 1).collect::<Vec<u64>>()).unwrap(); // 12 blocks
        let before = dev.stats().snapshot();
        let merged = merge_runs(&*dev, &[a, b]).unwrap();
        let d = dev.stats().snapshot() - before;
        assert_eq!(merged.len(), 168);
        assert_eq!(d.total_reads(), 24, "one read per input block");
        assert_eq!(d.rand_reads, 0, "merge must be fully sequential");
        assert_eq!(d.writes, 24, "one write per output block");
    }
}
