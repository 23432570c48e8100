//! Sorted runs: the on-disk representation of a data partition.
//!
//! Each partition of the warehouse's `HD` structure (paper §2.1) is one
//! *sorted run*: a file of fixed-width encoded items in nondecreasing order.
//! Items never straddle blocks, so a rank (item index) maps to a block
//! index with one division, which is what makes the query algorithm's
//! rank-addressed probes single-block reads.
//!
//! There is one on-disk layout: each block ends with a CRC64 trailer over
//! its item payload, and every read path — single-block probes, cache
//! fills, sequential readahead — verifies the trailer before decoding,
//! surfacing mismatches as typed [`crate::StorageError::Corruption`]
//! errors naming the `(file, block)`.
//!
//! Bulk traffic moves in slices, not items. A sequential scan
//! ([`RunReader`]) exposes the window of blocks it has read, verified and
//! decoded through [`RunReader::fill_buf`] / [`RunReader::consume`] — the
//! `std::io::BufRead` contract over items instead of bytes — and a
//! [`RunWriter`] takes sorted slices through [`RunWriter::push_slice`],
//! encoding them into its block buffer a block at a time. The multi-way
//! merge ([`crate::merge`]) is written against exactly these calls, so the
//! per-item work between a verified input block and a checksummed output
//! block is a decode, a radix pass and an encode — no per-item `Result`,
//! no per-item call.

use std::io;

use crate::cache::BlockCache;
use crate::crc::crc64;
use crate::device::{BlockDevice, FileId};
use crate::encode::Item;
use crate::error::StorageError;

/// Default readahead window (blocks) for sequential [`RunReader`] scans.
pub const DEFAULT_READAHEAD_BLOCKS: usize = 8;

/// Bytes of the per-block CRC64 trailer.
const CRC_TRAILER: usize = 8;

/// Items stored per block for item type `T` on a device with `block_size`:
/// each block holds as many whole encoded items as fit in front of its
/// CRC64 trailer.
#[inline]
pub fn items_per_block<T: Item>(block_size: usize) -> usize {
    assert!(
        block_size >= T::ENCODED_LEN + CRC_TRAILER,
        "block size {} too small for a checksummed item ({} + {} bytes)",
        block_size,
        T::ENCODED_LEN,
        CRC_TRAILER
    );
    (block_size - CRC_TRAILER) / T::ENCODED_LEN
}

/// A handle to an immutable sorted file of `T` on some [`BlockDevice`].
///
/// The handle carries the item count and min/max, so header blocks are not
/// needed; creation goes through [`RunWriter`], which enforces sortedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortedRun<T: Item> {
    file: FileId,
    len: u64,
    min: T,
    max: T,
}

impl<T: Item> SortedRun<T> {
    /// The underlying file id.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Items stored per block of this run on a `block_size`-byte device.
    #[inline]
    pub fn items_per_block(&self, block_size: usize) -> usize {
        items_per_block::<T>(block_size)
    }

    /// Number of items in the run.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff the run holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Smallest item (meaningless if empty).
    pub fn min(&self) -> T {
        self.min
    }

    /// Largest item (meaningless if empty).
    pub fn max(&self) -> T {
        self.max
    }

    /// Block index holding item `idx`.
    #[inline]
    pub fn block_of(&self, idx: u64, block_size: usize) -> u64 {
        idx / self.items_per_block(block_size) as u64
    }

    /// Read the single item at index `idx` (0-based, sorted order).
    ///
    /// Costs one block read on `dev` unless served from `cache`. The
    /// block is checksum-verified before the item is decoded.
    pub fn get<D: BlockDevice>(&self, dev: &D, idx: u64) -> io::Result<T> {
        assert!(idx < self.len, "item index {idx} out of range {}", self.len);
        let per = self.items_per_block(dev.block_size()) as u64;
        let items = self.read_block_items(dev, idx / per)?;
        Ok(items[(idx % per) as usize])
    }

    /// Read, verify, and decode all items of block `block_idx`.
    pub fn read_block_items<D: BlockDevice>(&self, dev: &D, block_idx: u64) -> io::Result<Vec<T>> {
        let mut buf = vec![0u8; dev.block_size()];
        let got = dev.read_block(self.file, block_idx, &mut buf)?;
        match self.decode_block_items(block_idx, dev.block_size(), &buf[..got]) {
            Ok(items) => Ok(items),
            Err(e) => {
                dev.stats().record_corruption();
                Err(e)
            }
        }
    }

    /// Decode the items of block `block_idx` from its raw bytes, verifying
    /// the CRC64 trailer. A short
    /// buffer or a checksum mismatch is a typed
    /// [`StorageError::Corruption`] naming this run's file and the block.
    fn decode_block_items(
        &self,
        block_idx: u64,
        block_size: usize,
        raw: &[u8],
    ) -> io::Result<Vec<T>> {
        let per = self.items_per_block(block_size) as u64;
        let start = block_idx * per;
        assert!(start < self.len, "block index {block_idx} out of range");
        let count = per.min(self.len - start) as usize;
        let payload = count * T::ENCODED_LEN;
        let needed = payload + CRC_TRAILER;
        if raw.len() < needed {
            return Err(StorageError::corruption(
                self.file,
                block_idx,
                format!("short block: {} bytes, {needed} needed", raw.len()),
            )
            .into());
        }
        let stored = u64::from_le_bytes(
            raw[payload..payload + CRC_TRAILER]
                .try_into()
                .expect("trailer slice is 8 bytes"),
        );
        let actual = crc64(&raw[..payload]);
        if stored != actual {
            return Err(StorageError::corruption(
                self.file,
                block_idx,
                format!("crc mismatch: stored {stored:#018x}, computed {actual:#018x}"),
            )
            .into());
        }
        Ok((0..count)
            .map(|i| T::decode(&raw[i * T::ENCODED_LEN..]))
            .collect())
    }

    /// Stream the run in sorted order (sequential block reads with
    /// [`DEFAULT_READAHEAD_BLOCKS`] blocks of readahead).
    pub fn iter<'d, D: BlockDevice>(&self, dev: &'d D) -> RunReader<'d, T, D> {
        RunReader {
            dev,
            file: self.file,
            len: self.len,
            next_idx: 0,
            buf: Vec::new(),
            buf_pos: 0,
            block: 0,
            readahead: DEFAULT_READAHEAD_BLOCKS,
            raw: Vec::new(),
        }
    }

    /// Read every item into memory (test/debug helper; O(len) memory).
    pub fn read_all<D: BlockDevice>(&self, dev: &D) -> io::Result<Vec<T>> {
        self.iter(dev).collect()
    }

    /// `rank(v, run)` = number of items `<= v`, via a **block-level**
    /// binary search: each probe reads (and uses) a whole block, so the
    /// cost is `O(log(len/items_per_block))` block reads — versus the
    /// `O(log len)` single-item probes of a naive item-level search.
    ///
    /// This is the unbounded variant; the query engine narrows the range
    /// with summary information first (paper Algorithm 8 lines 5–6) and
    /// uses its own block cache. Repeated probes against the same run
    /// should use [`SortedRun::rank_of_cached`] to skip re-reads.
    pub fn rank_of<D: BlockDevice>(&self, dev: &D, v: T) -> io::Result<u64> {
        let mut cache = BlockCache::new(2);
        self.rank_of_cached(dev, v, &mut cache)
    }

    /// [`SortedRun::rank_of`] probing through `cache`: once the search
    /// visits a block it stays decoded, so repeated rank queries against
    /// the same run (e.g. heavy-hitter threshold scans or query-time
    /// bisection) stop costing device reads as soon as their probe paths
    /// overlap.
    ///
    /// Consecutive probes that land in the block the previous probe
    /// decoded skip the whole search — including the cache lookups — via
    /// the cache's last-block memo: if the memoized block's value span
    /// strictly contains `v`, the boundary is inside it and the answer is
    /// one in-memory `partition_point`.
    pub fn rank_of_cached<D: BlockDevice>(
        &self,
        dev: &D,
        v: T,
        cache: &mut BlockCache<T>,
    ) -> io::Result<u64> {
        if self.is_empty() || v < self.min {
            return Ok(0);
        }
        if v >= self.max {
            return Ok(self.len);
        }
        let per = self.items_per_block(dev.block_size()) as u64;
        if let Some((file, blk, items)) = cache.last_block() {
            // Sound iff the boundary block is provably this one: every
            // earlier block ends ≤ items[0] ≤ v, and v < items[last]
            // (strict) rules out duplicates of v spilling into the next
            // block.
            if file == self.file && !items.is_empty() {
                let (first, last) = (items[0], *items.last().expect("non-empty"));
                if first <= v && v < last {
                    return Ok(blk * per + items.partition_point(|&x| x <= v) as u64);
                }
            }
        }
        // Invariant: blocks < lo_b end with items <= v; blocks >= hi_b
        // start with items > v. The boundary block is in [lo_b, hi_b).
        let (mut lo_b, mut hi_b) = (0u64, self.len.div_ceil(per));
        while lo_b < hi_b {
            let mid = lo_b + (hi_b - lo_b) / 2;
            let items = cache.get_block(dev, self, mid)?;
            if *items.last().expect("blocks are non-empty") <= v {
                lo_b = mid + 1;
            } else if items[0] > v {
                hi_b = mid;
            } else {
                // Boundary inside this block: exact.
                return Ok(mid * per + items.partition_point(|&x| x <= v) as u64);
            }
        }
        Ok(lo_b * per)
    }

    /// Delete the backing file.
    pub fn delete<D: BlockDevice>(self, dev: &D) -> io::Result<()> {
        dev.delete(self.file)
    }

    /// Reconstruct a handle from raw parts (used by warehouse recovery and
    /// tests). The caller asserts the file holds `len` sorted items with
    /// the given extrema, written by a [`RunWriter`].
    pub fn from_raw_parts(file: FileId, len: u64, min: T, max: T) -> Self {
        SortedRun {
            file,
            len,
            min,
            max,
        }
    }
}

/// Buffered writer that produces a [`SortedRun`].
///
/// Enforces nondecreasing order on [`RunWriter::push_slice`]; flushes
/// whole blocks, each with a CRC64 trailer over its item payload. A writer
/// dropped before [`RunWriter::finish`] deletes its half-written file, so
/// a failed merge leaves nothing behind on the device.
pub struct RunWriter<'d, T: Item, D: BlockDevice> {
    dev: &'d D,
    file: FileId,
    buf: Vec<u8>,
    /// Payload capacity of one block, in bytes (`per · ENCODED_LEN`).
    cap: usize,
    next_block: u64,
    len: u64,
    min: Option<T>,
    last: Option<T>,
    /// Set by [`RunWriter::finish`]: the file now belongs to the returned
    /// [`SortedRun`] and `Drop` must leave it alone.
    finished: bool,
}

impl<'d, T: Item, D: BlockDevice> RunWriter<'d, T, D> {
    /// Open a new run on `dev`.
    pub fn new(dev: &'d D) -> io::Result<Self> {
        let per = items_per_block::<T>(dev.block_size()); // validates geometry
        Ok(RunWriter {
            dev,
            file: dev.create()?,
            buf: Vec::with_capacity(dev.block_size()),
            cap: per * T::ENCODED_LEN,
            next_block: 0,
            len: 0,
            min: None,
            last: None,
            finished: false,
        })
    }

    /// Append `items`, which must be nondecreasing and start at or above
    /// every previously pushed item (checked in release builds too: a
    /// misordered run would silently break every rank-addressed probe).
    /// Items are encoded straight into the block buffer, a block's worth
    /// at a time.
    pub fn push_slice(&mut self, items: &[T]) -> io::Result<()> {
        let (Some(&first), Some(&last)) = (items.first(), items.last()) else {
            return Ok(());
        };
        assert!(
            self.last.is_none_or(|prev| prev <= first) && items.windows(2).all(|w| w[0] <= w[1]),
            "RunWriter items must be nondecreasing"
        );
        self.min.get_or_insert(first);
        self.last = Some(last);
        self.len += items.len() as u64;
        let mut rest = items;
        while !rest.is_empty() {
            let room = (self.cap - self.buf.len()) / T::ENCODED_LEN;
            let (now, later) = rest.split_at(room.min(rest.len()));
            let old = self.buf.len();
            self.buf.resize(old + now.len() * T::ENCODED_LEN, 0);
            for (slot, &v) in self.buf[old..].chunks_exact_mut(T::ENCODED_LEN).zip(now) {
                v.encode(slot);
            }
            if self.buf.len() >= self.cap {
                self.flush_block()?;
            }
            rest = later;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let crc = crc64(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.dev
            .write_block(self.file, self.next_block, &self.buf)?;
        self.next_block += 1;
        self.buf.clear();
        Ok(())
    }

    /// Flush and return the completed run handle.
    pub fn finish(mut self) -> io::Result<SortedRun<T>> {
        self.flush_block()?;
        self.finished = true;
        Ok(SortedRun {
            file: self.file,
            len: self.len,
            min: self.min.unwrap_or(T::MIN),
            max: self.last.unwrap_or(T::MIN),
        })
    }

    /// Items pushed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: Item, D: BlockDevice> Drop for RunWriter<'_, T, D> {
    fn drop(&mut self) {
        // An unfinished run is referenced by nobody: reclaim it. The
        // error that unwound us is the one worth reporting, so a failed
        // delete here only leaks space.
        if !self.finished {
            let _ = self.dev.delete(self.file);
        }
    }
}

/// Sequential reader over a [`SortedRun`].
///
/// Two views of the same scan: [`RunReader::fill_buf`] /
/// [`RunReader::consume`] hand out the decoded readahead window as a
/// slice (`std::io::BufRead`-style — what the merge kernel and the bulk
/// collectors use), and the [`Iterator`] impl yields one item at a time
/// on top of those two calls.
///
/// Reads ahead [`DEFAULT_READAHEAD_BLOCKS`] blocks per device round-trip
/// (tunable via [`RunReader::with_readahead`]): the block-access *count*
/// is unchanged — the paper's cost unit — but backends like
/// [`crate::FileDevice`] serve the whole window with one positioned read,
/// and the per-block iterator bookkeeping is amortized across the window.
pub struct RunReader<'d, T: Item, D: BlockDevice> {
    dev: &'d D,
    file: FileId,
    len: u64,
    next_idx: u64,
    buf: Vec<T>,
    buf_pos: usize,
    block: u64,
    readahead: usize,
    /// Reused raw byte buffer for [`BlockDevice::read_blocks`].
    raw: Vec<u8>,
}

impl<T: Item, D: BlockDevice> RunReader<'_, T, D> {
    /// Set the readahead window in blocks (min 1).
    pub fn with_readahead(mut self, blocks: usize) -> Self {
        self.readahead = blocks.max(1);
        self
    }

    fn refill(&mut self) -> io::Result<()> {
        let bs = self.dev.block_size();
        let per = items_per_block::<T>(bs) as u64;
        let remaining_items = self.len - self.next_idx;
        let blocks_left = remaining_items.div_ceil(per);
        let nblocks = (self.readahead as u64).min(blocks_left);
        self.raw.clear();
        self.raw.resize(nblocks as usize * bs, 0);
        let got = self
            .dev
            .read_blocks(self.file, self.block, nblocks, &mut self.raw)?;
        self.buf.clear();
        // Decode block by block: items never straddle blocks, so each
        // block contributes `per` items (fewer for the final one) at the
        // start of its `block_size` slice. Each block's CRC64 trailer sits
        // right after its payload and is verified before the items are
        // trusted; a short device read shows up as a missing or mismatched
        // trailer.
        let first_block = self.block;
        let (dev, file) = (self.dev, self.file);
        let mut idx = self.next_idx;
        let mut bytes_seen = 0usize;
        for j in 0..nblocks as usize {
            let base = j * bs;
            let in_block = per.min(self.len - idx) as usize;
            let payload = in_block * T::ENCODED_LEN;
            bytes_seen += payload + CRC_TRAILER;
            let corrupt = move |detail: String| -> io::Error {
                dev.stats().record_corruption();
                StorageError::corruption(file, first_block + j as u64, detail).into()
            };
            if base + payload + CRC_TRAILER > self.raw.len() || bytes_seen > got {
                return Err(corrupt(format!(
                    "short read: {got} bytes for window of {nblocks} blocks"
                )));
            }
            let stored = u64::from_le_bytes(
                self.raw[base + payload..base + payload + CRC_TRAILER]
                    .try_into()
                    .expect("trailer slice is 8 bytes"),
            );
            let actual = crc64(&self.raw[base..base + payload]);
            if stored != actual {
                return Err(corrupt(format!(
                    "crc mismatch: stored {stored:#018x}, computed {actual:#018x}"
                )));
            }
            self.buf
                .extend((0..in_block).map(|i| T::decode(&self.raw[base + i * T::ENCODED_LEN..])));
            idx += in_block as u64;
            if idx >= self.len {
                break;
            }
        }
        self.buf_pos = 0;
        self.block += nblocks;
        Ok(())
    }

    /// Items remaining to be yielded.
    pub fn remaining(&self) -> u64 {
        self.len - self.next_idx
    }

    /// The verified, decoded items of the current readahead window that
    /// have not been consumed yet, reading the next window first if the
    /// current one is used up. Empty only once the run is exhausted — or
    /// after an error: a failed read poisons the reader, so the error is
    /// returned once and the scan then ends.
    pub fn fill_buf(&mut self) -> io::Result<&[T]> {
        if self.buf_pos >= self.buf.len() && self.next_idx < self.len {
            if let Err(e) = self.refill() {
                // Poison: drop the half-decoded window and end the scan.
                self.next_idx = self.len;
                self.buf.clear();
                self.buf_pos = 0;
                return Err(e);
            }
        }
        Ok(&self.buf[self.buf_pos..])
    }

    /// Mark the first `n` items of the last [`RunReader::fill_buf`] slice
    /// as read.
    pub fn consume(&mut self, n: usize) {
        assert!(
            n <= self.buf.len() - self.buf_pos,
            "consumed past the window"
        );
        self.buf_pos += n;
        self.next_idx += n as u64;
    }
}

impl<T: Item, D: BlockDevice> Iterator for RunReader<'_, T, D> {
    type Item = io::Result<T>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.fill_buf() {
            Err(e) => Some(Err(e)),
            Ok([]) => None,
            Ok(&[v, ..]) => {
                self.consume(1);
                Some(Ok(v))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.remaining() as usize;
        (rem, Some(rem))
    }
}

/// Collector for `Iterator<Item = io::Result<T>>` into `Vec<T>`.
impl<T: Item, D: BlockDevice> RunReader<'_, T, D> {
    /// Collect remaining items, failing on the first I/O error.
    pub fn collect(mut self) -> io::Result<Vec<T>>
    where
        Self: Sized,
    {
        let mut out = Vec::with_capacity(self.remaining() as usize);
        loop {
            let window = self.fill_buf()?;
            if window.is_empty() {
                return Ok(out);
            }
            out.extend_from_slice(window);
            let n = window.len();
            self.consume(n);
        }
    }
}

/// Write a sorted slice as a run (helper for tests and batch loading).
pub fn write_run<T: Item, D: BlockDevice>(dev: &D, sorted: &[T]) -> io::Result<SortedRun<T>> {
    let mut w = RunWriter::new(dev)?;
    w.push_slice(sorted)?;
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    #[test]
    fn write_read_roundtrip() {
        let dev = MemDevice::new(64); // 7 u64s per block
        let data: Vec<u64> = (0..1000).collect();
        let run = write_run(&*dev, &data).unwrap();
        assert_eq!(run.len(), 1000);
        assert_eq!(run.min(), 0);
        assert_eq!(run.max(), 999);
        assert_eq!(run.read_all(&*dev).unwrap(), data);
    }

    #[test]
    fn random_access_get() {
        let dev = MemDevice::new(64);
        let data: Vec<u64> = (0..500).map(|i| i * 3).collect();
        let run = write_run(&*dev, &data).unwrap();
        for idx in [0u64, 1, 7, 8, 63, 64, 499] {
            assert_eq!(run.get(&*dev, idx).unwrap(), idx * 3);
        }
    }

    #[test]
    fn read_block_items_partial_tail() {
        let dev = MemDevice::new(64); // 7 per block + CRC trailer
        let data: Vec<u64> = (0..19).collect();
        let run = write_run(&*dev, &data).unwrap();
        assert_eq!(
            run.read_block_items(&*dev, 0).unwrap(),
            (0..7).collect::<Vec<_>>()
        );
        assert_eq!(
            run.read_block_items(&*dev, 2).unwrap(),
            (14..19).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rank_of_matches_partition_point() {
        let dev = MemDevice::new(64);
        let data: Vec<u64> = vec![2, 2, 5, 5, 5, 9, 12, 12, 40];
        let run = write_run(&*dev, &data).unwrap();
        for probe in [0u64, 1, 2, 3, 5, 6, 9, 11, 12, 13, 40, 41, 1000] {
            let expect = data.iter().filter(|&&x| x <= probe).count() as u64;
            assert_eq!(run.rank_of(&*dev, probe).unwrap(), expect, "probe {probe}");
        }
    }

    #[test]
    fn empty_run() {
        let dev = MemDevice::new(64);
        let run = write_run::<u64, _>(&*dev, &[]).unwrap();
        assert!(run.is_empty());
        assert_eq!(run.rank_of(&*dev, 5).unwrap(), 0);
        assert_eq!(run.read_all(&*dev).unwrap(), Vec::<u64>::new());
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn unsorted_push_rejected() {
        let dev = MemDevice::new(64);
        let mut w = RunWriter::<u64, _>::new(&*dev).unwrap();
        w.push_slice(&[4, 5]).unwrap();
        w.push_slice(&[3, 9]).unwrap();
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn unsorted_slice_rejected() {
        let dev = MemDevice::new(64);
        let mut w = RunWriter::<u64, _>::new(&*dev).unwrap();
        w.push_slice(&[1, 5, 3]).unwrap();
    }

    #[test]
    fn unfinished_writer_deletes_its_file() {
        let dev = MemDevice::new(64); // 7 u64 per block
        let files = dev.num_files();
        let mut w = RunWriter::<u64, _>::new(&*dev).unwrap();
        w.push_slice(&(0..20).collect::<Vec<u64>>()).unwrap(); // two blocks flushed
        assert_eq!(dev.num_files(), files + 1);
        drop(w);
        assert_eq!(dev.num_files(), files, "dropped writer must reclaim");
        // A finished writer hands the file to its run.
        let mut w = RunWriter::<u64, _>::new(&*dev).unwrap();
        w.push_slice(&[1, 2, 3]).unwrap();
        let run = w.finish().unwrap();
        assert_eq!(dev.num_files(), files + 1);
        assert_eq!(run.read_all(&*dev).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn sequential_scan_costs_one_read_per_block() {
        let dev = MemDevice::new(64); // 7 u64 per block (+ CRC trailer)
        let data: Vec<u64> = (0..84).collect(); // 12 blocks
        let run = write_run(&*dev, &data).unwrap();
        let before = dev.stats().snapshot();
        let _ = run.read_all(&*dev).unwrap();
        let d = dev.stats().snapshot() - before;
        assert_eq!(d.total_reads(), 12);
        assert_eq!(d.seq_reads, 12);
    }

    #[test]
    fn items_never_straddle_blocks_with_odd_block_size() {
        // 100-byte blocks hold 11 u64s (88 bytes) + 8-byte CRC + 4 padding.
        let dev = MemDevice::new(100);
        let data: Vec<u64> = (0..100).collect();
        let run = write_run(&*dev, &data).unwrap();
        assert_eq!(run.read_all(&*dev).unwrap(), data);
        assert_eq!(run.get(&*dev, 11).unwrap(), 11); // first item of block 1
        assert_eq!(run.block_of(10, 100), 0);
        assert_eq!(run.block_of(11, 100), 1);
    }

    #[test]
    fn readahead_matches_block_at_a_time() {
        let dev = MemDevice::new(64); // 7 u64 per block
        let data: Vec<u64> = (0..1234).collect();
        let run = write_run(&*dev, &data).unwrap();
        for ra in [1usize, 2, 8, 64, 1000] {
            let got: Vec<u64> = run
                .iter(&*dev)
                .with_readahead(ra)
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(got, data, "readahead {ra}");
        }
    }

    #[test]
    fn readahead_with_padded_blocks() {
        // 100-byte blocks hold 11 u64s + CRC trailer + 4 bytes padding:
        // readahead must skip the padding between blocks.
        let dev = MemDevice::new(100);
        let data: Vec<u64> = (0..500).map(|i| i * 7).collect();
        let run = write_run(&*dev, &data).unwrap();
        let got: Vec<u64> = run
            .iter(&*dev)
            .with_readahead(5)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, data);
    }

    #[test]
    fn readahead_preserves_block_access_counts() {
        let dev = MemDevice::new(64); // 7 u64 per block
        let data: Vec<u64> = (0..84).collect(); // 12 blocks
        let run = write_run(&*dev, &data).unwrap();
        let before = dev.stats().snapshot();
        let _ = run.read_all(&*dev).unwrap();
        let d = dev.stats().snapshot() - before;
        // Readahead batches device round-trips but the paper's cost unit
        // (block accesses) is unchanged, and all reads stay sequential.
        assert_eq!(d.total_reads(), 12);
        assert_eq!(d.seq_reads, 12);
    }

    #[test]
    fn rank_of_cached_reuses_blocks() {
        let dev = MemDevice::new(64);
        let data: Vec<u64> = (0..4096).map(|i| i * 2).collect(); // 586 blocks
        let run = write_run(&*dev, &data).unwrap();
        let mut cache = BlockCache::new(64);
        let before = dev.stats().snapshot();
        assert_eq!(run.rank_of_cached(&*dev, 999, &mut cache).unwrap(), 500);
        let first = (dev.stats().snapshot() - before).total_reads();
        // Block-level search: ~log2(586) = 10 block reads, far below the
        // ~12 item reads of an item-level search, and bounded by it.
        assert!(first <= 11, "first probe cost {first} block reads");
        // A nearby probe shares most of its search path: nearly free.
        let before = dev.stats().snapshot();
        assert_eq!(run.rank_of_cached(&*dev, 1001, &mut cache).unwrap(), 501);
        let second = (dev.stats().snapshot() - before).total_reads();
        assert!(second <= 2, "cached re-probe cost {second} reads");
    }

    #[test]
    fn rank_of_cached_memoizes_last_block() {
        // Regression (perf): a probe landing in the block the previous
        // probe decoded must answer from the last-block memo — zero
        // device reads AND zero BlockCache lookups — with the same
        // answer as the uncached search.
        let dev = MemDevice::new(64); // 7 u64/block
        let data: Vec<u64> = (0..4096).map(|i| i * 2).collect();
        let run = write_run(&*dev, &data).unwrap();
        let mut cache = BlockCache::new(64);
        // Warm: first probe does the block-level binary search.
        assert_eq!(run.rank_of_cached(&*dev, 1000, &mut cache).unwrap(), 501);
        let stats_before = cache.stats();
        let io_before = dev.stats().snapshot();
        // Same-block re-probes: the warm probe decoded block 71 (indices
        // 497..504, values 994..=1006), so anything in [994, 1006) must
        // answer from the memo.
        for v in [1000u64, 994, 995, 1001, 1005] {
            let expect = data.iter().filter(|&&x| x <= v).count() as u64;
            assert_eq!(run.rank_of_cached(&*dev, v, &mut cache).unwrap(), expect);
        }
        assert_eq!(
            cache.stats(),
            stats_before,
            "same-block probes must not touch the cache"
        );
        assert_eq!(
            (dev.stats().snapshot() - io_before).total_reads(),
            0,
            "same-block probes must not touch the device"
        );
        // A probe at or past the memo block's last value must NOT
        // shortcut (duplicates could continue into the next block);
        // answers stay exact either way.
        for v in [1006u64, 1007, 2000] {
            let expect = data.iter().filter(|&&x| x <= v).count() as u64;
            assert_eq!(run.rank_of_cached(&*dev, v, &mut cache).unwrap(), expect);
        }
    }

    #[test]
    fn rank_of_cached_memo_exact_on_duplicate_plateaus() {
        // A plateau spanning block boundaries: memoized answers must
        // count the duplicates in later blocks too.
        let dev = MemDevice::new(64); // 7 u64/block
        let mut data = vec![10u64; 20];
        data.extend(vec![50u64; 20]);
        data.extend(60..200u64);
        let run = write_run(&*dev, &data).unwrap();
        let mut cache = BlockCache::new(16);
        for v in [9u64, 10, 11, 49, 50, 51, 60, 199, 500] {
            let expect = data.iter().filter(|&&x| x <= v).count() as u64;
            assert_eq!(
                run.rank_of_cached(&*dev, v, &mut cache).unwrap(),
                expect,
                "v = {v}"
            );
        }
        // Interleave far-apart probes so the memo block keeps changing.
        for v in [10u64, 199, 10, 50, 199, 50] {
            let expect = data.iter().filter(|&&x| x <= v).count() as u64;
            assert_eq!(run.rank_of_cached(&*dev, v, &mut cache).unwrap(), expect);
        }
    }

    #[test]
    fn signed_items_roundtrip() {
        let dev = MemDevice::new(64);
        let data: Vec<i64> = (-50..50).collect();
        let run = write_run(&*dev, &data).unwrap();
        assert_eq!(run.read_all(&*dev).unwrap(), data);
        assert_eq!(run.rank_of(&*dev, -1).unwrap(), 50);
    }

    /// Flip one byte of one stored block, in place, via the raw device.
    fn rot_block(dev: &MemDevice, run: &SortedRun<u64>, block: u64) {
        let bs = dev.block_size();
        let mut raw = vec![0u8; bs];
        dev.read_block(run.file(), block, &mut raw).unwrap();
        raw[3] ^= 0x40;
        dev.write_block(run.file(), block, &raw).unwrap();
    }

    #[test]
    fn bit_flip_detected_on_every_read_path() {
        use crate::error::corruption_in;
        let dev = MemDevice::new(64); // 7 u64 per block
        let data: Vec<u64> = (0..70).collect(); // 10 blocks
        let run = write_run(&*dev, &data).unwrap();
        rot_block(&dev, &run, 4);

        // Direct block read: typed corruption naming the exact block.
        let err = run.read_block_items(&*dev, 4).unwrap_err();
        assert_eq!(corruption_in(&err), Some((run.file(), 4)));
        // Point lookup into the rotted block.
        let err = run.get(&*dev, 30).unwrap_err();
        assert_eq!(corruption_in(&err), Some((run.file(), 4)));
        // Sequential iteration (readahead path) stops with the error.
        let got: io::Result<Vec<u64>> = run.iter(&*dev).with_readahead(3).collect();
        assert_eq!(corruption_in(&got.unwrap_err()), Some((run.file(), 4)));
        // Healthy blocks still read clean.
        assert_eq!(
            run.read_block_items(&*dev, 3).unwrap(),
            (21..28).collect::<Vec<_>>()
        );
        // Every detection bumped the corruption counter.
        assert!(dev.stats().snapshot().corruptions >= 3);
    }

    #[test]
    fn truncated_block_is_corruption_not_panic() {
        use crate::error::corruption_in;
        let dev = MemDevice::new(64);
        let data: Vec<u64> = (0..70).collect();
        let run = write_run(&*dev, &data).unwrap();
        // Overwrite block 5 with a torn (10-byte) write: the decode sees
        // a short buffer and must return a typed corruption, not panic.
        dev.write_block(run.file(), 5, &[0xEEu8; 10]).unwrap();
        let err = run.read_block_items(&*dev, 5).unwrap_err();
        assert_eq!(corruption_in(&err), Some((run.file(), 5)));
    }
}
