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
use crate::crc::{self, TRAILER_LEN};
use crate::device::{BlockDevice, FileId};
use crate::encode::Item;
use crate::error::StorageError;

/// Default readahead window (blocks) for sequential [`RunReader`] scans.
pub const DEFAULT_READAHEAD_BLOCKS: usize = 8;

/// Items stored per block for item type `T` on a device with `block_size`:
/// each block holds as many whole encoded items as fit in front of its
/// CRC64 trailer.
#[inline]
pub fn items_per_block<T: Item>(block_size: usize) -> usize {
    assert!(
        block_size >= T::ENCODED_LEN + TRAILER_LEN,
        "block size {} too small for a checksummed item ({} + {} bytes)",
        block_size,
        T::ENCODED_LEN,
        TRAILER_LEN
    );
    (block_size - TRAILER_LEN) / T::ENCODED_LEN
}

/// Where `rank(z)` can lie in a sorted run, for [`SortedRun::rank_in`]:
/// `lo ≤ rank(z) ≤ hi`, and every item at a position in `[lo, hi)` lies
/// in `[lo_value, hi_value]` — the exact `(value, rank)` pairs that bound
/// the search on either side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankWindow<T> {
    /// Items before this position are all `≤ z`.
    pub lo: u64,
    /// Items from this position on are all `> z`.
    pub hi: u64,
    /// No item at or after `lo` is below this value.
    pub lo_value: T,
    /// No item before `hi` is above this value.
    pub hi_value: T,
}

/// The position in `[lo, hi)` that `z`'s key takes between the keys of
/// `lo_value` and `hi_value` (linear interpolation, clamped).
fn interpolated_position<T: Item>(lo: u64, hi: u64, lo_value: T, hi_value: T, z: T) -> u64 {
    let k_lo = lo_value.to_ordered_u64() as u128;
    let span = (hi_value.to_ordered_u64() as u128).saturating_sub(k_lo) + 1;
    let offset = (z.to_ordered_u64() as u128).saturating_sub(k_lo);
    let width = (hi - lo) as u128;
    lo + (width * offset / span).min(width - 1) as u64
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
    ///
    /// One block read. The checksum is computed and compared on every
    /// call: on a 2-vCPU x86_64 host a whole 4,096-byte `FileDevice` read
    /// takes ≈ 1.9 µs, ≈ 0.3 µs of it the CRC's carry-less multiply fold
    /// (with the table kernel alone, ≈ 2.6 of ≈ 4.4 µs).
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
        let needed = count * T::ENCODED_LEN + TRAILER_LEN;
        if raw.len() < needed {
            return Err(StorageError::corruption(
                self.file,
                block_idx,
                format!("short block: {} bytes, {needed} needed", raw.len()),
            )
            .into());
        }
        let payload = crc::open(&raw[..needed]).map_err(|m| {
            StorageError::corruption(self.file, block_idx, format!("crc mismatch: {m}"))
        })?;
        Ok(payload
            .chunks_exact(T::ENCODED_LEN)
            .map(T::decode)
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

    /// `rank(v, run)` = number of items `<= v`: [`SortedRun::rank_in`]
    /// over the whole run, bounded by its stored min and max, through a
    /// throwaway two-block cache.
    pub fn rank_of<D: BlockDevice>(&self, dev: &D, v: T) -> io::Result<u64> {
        if self.is_empty() || v < self.min {
            return Ok(0);
        }
        if v >= self.max {
            return Ok(self.len);
        }
        let whole = RankWindow {
            lo: 0,
            hi: self.len,
            lo_value: self.min,
            hi_value: self.max,
        };
        self.rank_in(dev, v, whole, &mut BlockCache::new(2), &mut true)
    }

    /// `rank(z, run)` = number of items `<= z`, searched only inside
    /// `window` (which must contain it), whole blocks at a time through
    /// `cache`.
    ///
    /// Each read uses *all* of the block's in-window items: the boundary
    /// is either inside the block (exact) or the window shrinks to one
    /// side of it, taking the block's edge item as its new value bound.
    /// Which block to read is the only choice. While `*interpolate`
    /// holds, it is the block at the position `z`'s key takes between the
    /// window's value bounds,
    /// `lo + (hi − lo)·(k(z) − k_lo)/(k_hi − k_lo + 1)` clamped to
    /// `[lo, hi)` — about `log log` reads on smooth keys. The first read
    /// that leaves the window open (a *miss*) clears `*interpolate`. The
    /// search that missed guesses once more, between the exact edge
    /// values the miss just read, which mends most near misses; after
    /// that it bisects positions, as does every later search given the
    /// same flag: `O(log₂(window/items_per_block))` reads however clumped
    /// the keys, plus at most two missed guesses per flag. The answer is
    /// exact either way; it does not depend on which blocks were read.
    pub fn rank_in<D: BlockDevice>(
        &self,
        dev: &D,
        z: T,
        window: RankWindow<T>,
        cache: &mut BlockCache<T>,
        interpolate: &mut bool,
    ) -> io::Result<u64> {
        let RankWindow {
            mut lo,
            mut hi,
            mut lo_value,
            mut hi_value,
        } = window;
        debug_assert!(lo <= hi && hi <= self.len);
        let per = self.items_per_block(dev.block_size()) as u64;
        let mut guess_next = *interpolate;
        while lo < hi {
            let guess = if guess_next {
                interpolated_position(lo, hi, lo_value, hi_value, z)
            } else {
                lo + (hi - lo) / 2
            };
            let block = guess / per;
            let items = cache.get_block(dev, self, block)?;
            let base = block * per;
            let lo_in = lo.max(base);
            let hi_in = hi.min(base + items.len() as u64);
            debug_assert!(lo_in <= guess && guess < hi_in);
            let slice = &items[(lo_in - base) as usize..(hi_in - base) as usize];
            let j = slice.partition_point(|&x| x <= z);
            if 0 < j && j < slice.len() {
                return Ok(lo_in + j as u64); // the boundary is in this block
            }
            if j == 0 {
                // Every in-window item here is > z: the boundary is left.
                hi = lo_in;
                hi_value = slice[0];
            } else {
                // Every in-window item here is ≤ z: the boundary is right.
                lo = hi_in;
                lo_value = slice[j - 1];
            }
            if lo < hi {
                // A miss: this search guesses once more, then bisects.
                guess_next = std::mem::replace(interpolate, false);
            }
        }
        Ok(lo)
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
        crc::seal(&mut self.buf);
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
            bytes_seen += payload + TRAILER_LEN;
            let corrupt = move |detail: String| -> io::Error {
                dev.stats().record_corruption();
                StorageError::corruption(file, first_block + j as u64, detail).into()
            };
            if base + payload + TRAILER_LEN > self.raw.len() || bytes_seen > got {
                return Err(corrupt(format!(
                    "short read: {got} bytes for window of {nblocks} blocks"
                )));
            }
            let payload = crc::open(&self.raw[base..base + payload + TRAILER_LEN])
                .map_err(|m| corrupt(format!("crc mismatch: {m}")))?;
            self.buf
                .extend(payload.chunks_exact(T::ENCODED_LEN).map(T::decode));
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
    fn block_trailer_matches_the_shipped_format() {
        // A full 4,096-byte block (511 items) as the format has always
        // written it: the trailer below was computed by the table kernel
        // runs shipped with, so runs written before the fold still verify.
        let dev = MemDevice::new(4096);
        let data: Vec<u64> = (0..511u64).map(|i| i * 0x9E37_79B9).collect();
        let run = write_run(&*dev, &data).unwrap();
        let mut raw = vec![0u8; 4096];
        assert_eq!(dev.read_block(run.file(), 0, &mut raw).unwrap(), 4096);
        assert_eq!(raw[4088..], 0x70D8_8CB1_05BA_1B2Bu64.to_le_bytes());
        assert_eq!(run.read_block_items(&*dev, 0).unwrap(), data);
        assert_eq!(run.iter(&*dev).collect().unwrap(), data);
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

    /// The whole of `run` as a [`RankWindow`].
    fn whole(run: &SortedRun<u64>) -> RankWindow<u64> {
        RankWindow {
            lo: 0,
            hi: run.len(),
            lo_value: run.min(),
            hi_value: run.max(),
        }
    }

    #[test]
    fn rank_in_reuses_cached_blocks() {
        let dev = MemDevice::new(64);
        let data: Vec<u64> = (0..4096).map(|i| i * 2).collect(); // 586 blocks
        let run = write_run(&*dev, &data).unwrap();
        let mut cache = BlockCache::new(64);
        let before = dev.stats().snapshot();
        let rank = |v, cache: &mut BlockCache<u64>| {
            run.rank_in(&*dev, v, whole(&run), cache, &mut true)
                .unwrap()
        };
        assert_eq!(rank(999, &mut cache), 500);
        // Evenly spaced keys: the interpolated guess is the boundary block.
        let first = (dev.stats().snapshot() - before).total_reads();
        assert_eq!(first, 1, "first probe cost {first} block reads");
        // A probe into the same block is answered from the cache.
        let before = dev.stats().snapshot();
        assert_eq!(rank(1001, &mut cache), 501);
        let second = (dev.stats().snapshot() - before).total_reads();
        assert_eq!(second, 0, "cached re-probe cost {second} reads");
    }

    #[test]
    fn rank_in_exact_on_duplicate_plateaus() {
        // Plateaus spanning block boundaries, searched with and without
        // interpolation through one shared cache.
        let dev = MemDevice::new(64); // 7 u64/block
        let mut data = vec![10u64; 20];
        data.extend(vec![50u64; 20]);
        data.extend(60..200u64);
        let run = write_run(&*dev, &data).unwrap();
        let mut cache = BlockCache::new(16);
        for interpolate in [true, false] {
            for v in [9u64, 10, 11, 49, 50, 51, 60, 199, 500, 10, 199, 50] {
                let expect = data.iter().filter(|&&x| x <= v).count() as u64;
                let mut flag = interpolate;
                let got = run.rank_in(&*dev, v, whole(&run), &mut cache, &mut flag);
                assert_eq!(got.unwrap(), expect, "v = {v}");
            }
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
