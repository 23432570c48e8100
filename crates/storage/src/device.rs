//! Block devices: the disk abstraction underneath the warehouse.
//!
//! The paper models the warehouse disk as an array of fixed-size blocks
//! (`B = 100 KB` in §3.1) and measures every algorithm in block accesses.
//! [`BlockDevice`] is that model: named files made of `block_size`-byte
//! blocks, with all traffic recorded in an [`IoStats`].
//!
//! Two implementations are provided:
//! * [`MemDevice`] — blocks held in memory. Used by tests and by the
//!   experiment harness, where only the *counted* I/O matters (the paper's
//!   own experiments are simulation-based, §3).
//! * [`FileDevice`] — blocks stored in real files under a directory, doing
//!   positioned reads/writes through the OS. Proves the exact same code
//!   paths run against a real filesystem.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::stats::IoStats;

/// Identifier of a file on a [`BlockDevice`].
pub type FileId = u64;

/// Sentinel for "no block read yet" in per-file cursor tracking.
const NO_BLOCK: u64 = u64::MAX;

/// A device of fixed-size blocks organized into append-oriented files.
///
/// All methods take `&self`; devices are internally synchronized and are
/// typically shared as `Arc<D>` between the warehouse and query paths.
pub trait BlockDevice: Send + Sync + 'static {
    /// Size of one block in bytes. All reads and writes move whole blocks
    /// (the final block of a file may be short).
    fn block_size(&self) -> usize;

    /// Create a new empty file and return its id.
    fn create(&self) -> io::Result<FileId>;

    /// Write `data` (at most one block) as block `idx` of `file`.
    ///
    /// `idx` must be `<= num_blocks(file)`: files grow by appending. Only
    /// the final block of a file may be shorter than `block_size`.
    fn write_block(&self, file: FileId, idx: u64, data: &[u8]) -> io::Result<()>;

    /// Read block `idx` of `file` into `buf`, returning the byte count
    /// (short only for the final block). `buf` must hold `block_size` bytes.
    fn read_block(&self, file: FileId, idx: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Read `count` consecutive blocks starting at `first` into `buf`
    /// (`count * block_size` bytes), returning the total byte count (short
    /// only when the file ends inside the range). This is the readahead
    /// primitive sequential scans use; accounting is identical to `count`
    /// single-block reads (the paper's cost unit is block accesses), but
    /// backends may serve the whole range with one positioned I/O.
    ///
    /// The default implementation loops over [`BlockDevice::read_block`].
    fn read_blocks(
        &self,
        file: FileId,
        first: u64,
        count: u64,
        buf: &mut [u8],
    ) -> io::Result<usize> {
        if count == 0 {
            return Ok(0);
        }
        let bs = self.block_size();
        // Clamp a range running past EOF to the blocks that exist (the
        // short-read contract): only a start past EOF is an error.
        let avail = self.num_blocks(file)?;
        if first >= avail {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("block {first} out of range"),
            ));
        }
        let count = count.min(avail - first);
        debug_assert!(buf.len() >= count as usize * bs);
        let mut total = 0;
        for i in 0..count as usize {
            // Block i's payload lands at offset i * block_size even when a
            // block is stored short (padding geometry or the final block).
            total += self.read_block(file, first + i as u64, &mut buf[i * bs..(i + 1) * bs])?;
        }
        Ok(total)
    }

    /// Force `file`'s written blocks to durable storage (the barrier a
    /// write-ahead log needs before acting on a record's durability —
    /// see `hsq-core`'s manifest log). The default is a no-op, correct
    /// for in-memory backends; real-file backends override it.
    fn sync(&self, _file: FileId) -> io::Result<()> {
        Ok(())
    }

    /// Number of blocks currently in `file`.
    fn num_blocks(&self, file: FileId) -> io::Result<u64>;

    /// Total length of `file` in bytes.
    fn file_len(&self, file: FileId) -> io::Result<u64>;

    /// Delete `file`, freeing its blocks.
    fn delete(&self, file: FileId) -> io::Result<()>;

    /// The I/O counters for this device.
    fn stats(&self) -> &IoStats;
}

fn bad_file(file: FileId) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such file id {file}"))
}

/// An in-memory [`BlockDevice`].
///
/// The backing store is a map from [`FileId`] to a block list. I/O
/// accounting is identical to [`FileDevice`], so experiments measuring
/// *block accesses* (the paper's disk-cost metric) can run at memory speed.
pub struct MemDevice {
    block_size: usize,
    files: RwLock<HashMap<FileId, MemFile>>,
    next_id: AtomicU64,
    stats: IoStats,
}

struct MemFile {
    blocks: Vec<Box<[u8]>>,
    /// Block index of the most recent read, for sequential/random
    /// classification.
    last_read: AtomicU64,
}

impl MemDevice {
    /// Create a device with the given block size (bytes).
    pub fn new(block_size: usize) -> Arc<Self> {
        assert!(block_size > 0, "block size must be positive");
        Arc::new(MemDevice {
            block_size,
            files: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            stats: IoStats::new(),
        })
    }

    /// Bytes currently stored across all files (capacity accounting).
    pub fn resident_bytes(&self) -> u64 {
        self.files
            .read()
            .values()
            .map(|f| f.blocks.iter().map(|b| b.len() as u64).sum::<u64>())
            .sum()
    }

    /// Number of live files.
    pub fn num_files(&self) -> usize {
        self.files.read().len()
    }
}

impl BlockDevice for MemDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn create(&self) -> io::Result<FileId> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.files.write().insert(
            id,
            MemFile {
                blocks: Vec::new(),
                last_read: AtomicU64::new(NO_BLOCK),
            },
        );
        Ok(id)
    }

    fn write_block(&self, file: FileId, idx: u64, data: &[u8]) -> io::Result<()> {
        if data.len() > self.block_size {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "write larger than block size",
            ));
        }
        let mut files = self.files.write();
        let f = files.get_mut(&file).ok_or_else(|| bad_file(file))?;
        let idx = idx as usize;
        match idx.cmp(&f.blocks.len()) {
            std::cmp::Ordering::Less => f.blocks[idx] = data.into(),
            std::cmp::Ordering::Equal => f.blocks.push(data.into()),
            std::cmp::Ordering::Greater => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "non-contiguous block write",
                ))
            }
        }
        self.stats.record_write(data.len());
        Ok(())
    }

    fn read_block(&self, file: FileId, idx: u64, buf: &mut [u8]) -> io::Result<usize> {
        let files = self.files.read();
        let f = files.get(&file).ok_or_else(|| bad_file(file))?;
        let block = f.blocks.get(idx as usize).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("block {idx} out of range"),
            )
        })?;
        buf[..block.len()].copy_from_slice(block);
        let prev = f.last_read.swap(idx, Ordering::Relaxed);
        let sequential = prev == NO_BLOCK || idx == prev + 1;
        self.stats.record_read(block.len(), sequential);
        Ok(block.len())
    }

    fn num_blocks(&self, file: FileId) -> io::Result<u64> {
        let files = self.files.read();
        let f = files.get(&file).ok_or_else(|| bad_file(file))?;
        Ok(f.blocks.len() as u64)
    }

    fn file_len(&self, file: FileId) -> io::Result<u64> {
        let files = self.files.read();
        let f = files.get(&file).ok_or_else(|| bad_file(file))?;
        Ok(f.blocks.iter().map(|b| b.len() as u64).sum())
    }

    fn delete(&self, file: FileId) -> io::Result<()> {
        self.files
            .write()
            .remove(&file)
            .map(|_| ())
            .ok_or_else(|| bad_file(file))
    }

    fn sync(&self, file: FileId) -> io::Result<()> {
        // Memory is always "durable" here, but the call is still counted:
        // experiment harnesses compare sync traffic across backends.
        if !self.files.read().contains_key(&file) {
            return Err(bad_file(file));
        }
        self.stats.record_sync();
        Ok(())
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

/// A [`BlockDevice`] backed by real files in a directory.
///
/// Each [`FileId`] maps to one file (`<dir>/hsq-<id>.part`) accessed with
/// positioned reads/writes. The directory is created if absent; files are
/// removed on [`BlockDevice::delete`] and the whole directory can be cleaned
/// with [`FileDevice::cleanup`].
pub struct FileDevice {
    block_size: usize,
    dir: PathBuf,
    next_id: AtomicU64,
    handles: Mutex<HashMap<FileId, FileHandle>>,
    stats: IoStats,
}

struct FileHandle {
    file: std::fs::File,
    len: u64,
    last_read: u64,
    /// Established full-block payload length in bytes: the length of the
    /// first block written. With padding geometry (`block_size` not a
    /// multiple of the item width) this is smaller than `block_size`.
    /// 0 = unknown (empty or recovered file; treated as `block_size`).
    payload: usize,
}

impl FileHandle {
    /// Number of blocks currently stored, given the device block size.
    fn blocks(&self, bs: usize) -> u64 {
        self.len.div_ceil(bs as u64)
    }

    /// Meaningful bytes of block `idx`: the established payload for
    /// interior blocks, the actual tail length for the final one.
    fn block_payload(&self, bs: usize, idx: u64) -> usize {
        let full = if self.payload == 0 { bs } else { self.payload };
        if idx + 1 < self.blocks(bs) {
            full
        } else {
            ((self.len - idx * bs as u64) as usize).min(bs)
        }
    }
}

impl FileDevice {
    /// Open (creating if needed) a device rooted at `dir`.
    ///
    /// Existing `hsq-<id>.part` files in the directory are re-registered
    /// under their original ids, enabling warehouse recovery across
    /// process restarts (see `hsq-core`'s manifest support).
    pub fn new(dir: impl AsRef<Path>, block_size: usize) -> io::Result<Arc<Self>> {
        assert!(block_size > 0, "block size must be positive");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut handles = HashMap::new();
        let mut next_id = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix("hsq-"))
                .and_then(|n| n.strip_suffix(".part"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(entry.path())?;
            let len = file.metadata()?.len();
            handles.insert(
                id,
                FileHandle {
                    file,
                    len,
                    last_read: NO_BLOCK,
                    payload: 0,
                },
            );
            next_id = next_id.max(id + 1);
        }
        Ok(Arc::new(FileDevice {
            block_size,
            dir,
            next_id: AtomicU64::new(next_id),
            handles: Mutex::new(handles),
            stats: IoStats::new(),
        }))
    }

    /// Open a device in a fresh subdirectory of the system temp dir.
    pub fn new_temp(block_size: usize) -> io::Result<Arc<Self>> {
        let dir = std::env::temp_dir().join(format!(
            "hsq-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        Self::new(dir, block_size)
    }

    fn path_of(&self, file: FileId) -> PathBuf {
        self.dir.join(format!("hsq-{file}.part"))
    }

    /// The directory holding this device's files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Remove every file this device created, then the directory itself
    /// (best effort — ignores files created by others).
    pub fn cleanup(&self) -> io::Result<()> {
        let mut handles = self.handles.lock();
        for (id, _) in handles.drain() {
            let _ = std::fs::remove_file(self.path_of(id));
        }
        let _ = std::fs::remove_dir(&self.dir);
        Ok(())
    }
}

impl BlockDevice for FileDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn create(&self) -> io::Result<FileId> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let file = std::fs::OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(self.path_of(id))?;
        self.handles.lock().insert(
            id,
            FileHandle {
                file,
                len: 0,
                last_read: NO_BLOCK,
                payload: 0,
            },
        );
        Ok(id)
    }

    fn write_block(&self, file: FileId, idx: u64, data: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        if data.len() > self.block_size {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "write larger than block size",
            ));
        }
        let mut handles = self.handles.lock();
        let h = handles.get_mut(&file).ok_or_else(|| bad_file(file))?;
        let offset = idx * self.block_size as u64;
        // Contiguity is in *block index* terms: a stored block may be
        // shorter than block_size (padding geometry, or the final block),
        // so compare against the block count, not the byte length.
        let cur_blocks = h.blocks(self.block_size);
        if idx > cur_blocks {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "non-contiguous block write",
            ));
        }
        // Appending requires the previous block to carry the file's full
        // payload: only the final block may be short.
        if idx == cur_blocks && cur_blocks > 0 {
            let tail = h.block_payload(self.block_size, cur_blocks - 1);
            let full = if h.payload == 0 {
                self.block_size
            } else {
                h.payload
            };
            if tail < full {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "append after a short block (only the final block may be short)",
                ));
            }
        }
        if h.payload == 0 {
            h.payload = data.len().min(self.block_size);
        }
        h.file.write_all_at(data, offset)?;
        h.len = h.len.max(offset + data.len() as u64);
        self.stats.record_write(data.len());
        Ok(())
    }

    fn read_block(&self, file: FileId, idx: u64, buf: &mut [u8]) -> io::Result<usize> {
        use std::os::unix::fs::FileExt;
        let mut handles = self.handles.lock();
        let h = handles.get_mut(&file).ok_or_else(|| bad_file(file))?;
        let offset = idx * self.block_size as u64;
        if offset >= h.len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("block {idx} out of range"),
            ));
        }
        // Read only the block's meaningful payload: padding holes between
        // payload end and the next block's offset never reach callers.
        let want = h.block_payload(self.block_size, idx);
        h.file.read_exact_at(&mut buf[..want], offset)?;
        let sequential = h.last_read == NO_BLOCK || idx == h.last_read + 1;
        h.last_read = idx;
        self.stats.record_read(want, sequential);
        Ok(want)
    }

    fn read_blocks(
        &self,
        file: FileId,
        first: u64,
        count: u64,
        buf: &mut [u8],
    ) -> io::Result<usize> {
        use std::os::unix::fs::FileExt;
        if count == 0 {
            return Ok(0);
        }
        let bs = self.block_size;
        let mut handles = self.handles.lock();
        let h = handles.get_mut(&file).ok_or_else(|| bad_file(file))?;
        let offset = first * bs as u64;
        if offset >= h.len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("block {first} out of range"),
            ));
        }
        // One positioned read spans the whole range (true readahead); the
        // accounting still charges one access per block so the paper's
        // disk-cost metric is unaffected.
        let want = ((h.len - offset) as usize).min(count as usize * bs);
        h.file.read_exact_at(&mut buf[..want], offset)?;
        for j in 0..want.div_ceil(bs) as u64 {
            let idx = first + j;
            let sequential = h.last_read == NO_BLOCK || idx == h.last_read + 1;
            h.last_read = idx;
            self.stats
                .record_read(bs.min(want - j as usize * bs), sequential);
        }
        Ok(want)
    }

    fn sync(&self, file: FileId) -> io::Result<()> {
        let handles = self.handles.lock();
        let h = handles.get(&file).ok_or_else(|| bad_file(file))?;
        h.file.sync_data()?;
        self.stats.record_sync();
        Ok(())
    }

    fn num_blocks(&self, file: FileId) -> io::Result<u64> {
        let handles = self.handles.lock();
        let h = handles.get(&file).ok_or_else(|| bad_file(file))?;
        Ok(h.len.div_ceil(self.block_size as u64))
    }

    fn file_len(&self, file: FileId) -> io::Result<u64> {
        let handles = self.handles.lock();
        let h = handles.get(&file).ok_or_else(|| bad_file(file))?;
        Ok(h.len)
    }

    fn delete(&self, file: FileId) -> io::Result<()> {
        let removed = self.handles.lock().remove(&file);
        match removed {
            Some(_) => std::fs::remove_file(self.path_of(file)),
            None => Err(bad_file(file)),
        }
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(dev: &dyn BlockDevice) {
        let bs = dev.block_size();
        let f = dev.create().unwrap();
        assert_eq!(dev.num_blocks(f).unwrap(), 0);

        let block0 = vec![0xAB; bs];
        let block1 = vec![0xCD; bs];
        let tail = vec![0xEF; bs / 2];
        dev.write_block(f, 0, &block0).unwrap();
        dev.write_block(f, 1, &block1).unwrap();
        dev.write_block(f, 2, &tail).unwrap();
        assert_eq!(dev.num_blocks(f).unwrap(), 3);
        assert_eq!(dev.file_len(f).unwrap(), (2 * bs + bs / 2) as u64);

        let mut buf = vec![0u8; bs];
        assert_eq!(dev.read_block(f, 0, &mut buf).unwrap(), bs);
        assert_eq!(&buf, &block0);
        assert_eq!(dev.read_block(f, 2, &mut buf).unwrap(), bs / 2);
        assert_eq!(&buf[..bs / 2], &tail[..]);

        dev.delete(f).unwrap();
        assert!(dev.read_block(f, 0, &mut buf).is_err());
    }

    #[test]
    fn mem_device_roundtrip() {
        roundtrip(&*MemDevice::new(256));
    }

    #[test]
    fn file_device_roundtrip() {
        let dev = FileDevice::new_temp(256).unwrap();
        roundtrip(&*dev);
        dev.cleanup().unwrap();
    }

    #[test]
    fn sequential_vs_random_classification() {
        let dev = MemDevice::new(64);
        let f = dev.create().unwrap();
        for i in 0..10u64 {
            dev.write_block(f, i, &[i as u8; 64]).unwrap();
        }
        let base = dev.stats().snapshot();
        let mut buf = [0u8; 64];
        // A full scan: first read counts as sequential start.
        for i in 0..10 {
            dev.read_block(f, i, &mut buf).unwrap();
        }
        let scan = dev.stats().snapshot() - base;
        assert_eq!(scan.seq_reads, 10);
        assert_eq!(scan.rand_reads, 0);

        // Binary-search-like probing: jumps are random.
        let base = dev.stats().snapshot();
        for i in [5u64, 2, 3, 8] {
            dev.read_block(f, i, &mut buf).unwrap();
        }
        let probe = dev.stats().snapshot() - base;
        assert_eq!(probe.rand_reads, 3); // 5 -> rand? no: prev=9 so 5 is rand; 2 rand; 3 seq; 8 rand
        assert_eq!(probe.seq_reads, 1);
    }

    #[test]
    fn interleaved_scans_stay_sequential() {
        // Multi-way merge reads runs round-robin; per-file cursors must
        // classify those as sequential.
        let dev = MemDevice::new(32);
        let a = dev.create().unwrap();
        let b = dev.create().unwrap();
        for i in 0..4u64 {
            dev.write_block(a, i, &[1; 32]).unwrap();
            dev.write_block(b, i, &[2; 32]).unwrap();
        }
        let base = dev.stats().snapshot();
        let mut buf = [0u8; 32];
        for i in 0..4u64 {
            dev.read_block(a, i, &mut buf).unwrap();
            dev.read_block(b, i, &mut buf).unwrap();
        }
        let d = dev.stats().snapshot() - base;
        assert_eq!(d.seq_reads, 8);
        assert_eq!(d.rand_reads, 0);
    }

    fn read_blocks_roundtrip(dev: &dyn BlockDevice) {
        let bs = dev.block_size();
        let f = dev.create().unwrap();
        for i in 0..5u64 {
            dev.write_block(f, i, &vec![i as u8 + 1; bs]).unwrap();
        }
        dev.write_block(f, 5, &vec![9u8; bs / 2]).unwrap();

        // Full range in one call, including the short tail block.
        let mut buf = vec![0u8; 6 * bs];
        let got = dev.read_blocks(f, 0, 6, &mut buf).unwrap();
        assert_eq!(got, 5 * bs + bs / 2);
        for i in 0..5 {
            assert!(buf[i * bs..(i + 1) * bs].iter().all(|&b| b == i as u8 + 1));
        }
        assert!(buf[5 * bs..5 * bs + bs / 2].iter().all(|&b| b == 9));

        // Interior range.
        let mut buf = vec![0u8; 2 * bs];
        let got = dev.read_blocks(f, 1, 2, &mut buf).unwrap();
        assert_eq!(got, 2 * bs);
        assert!(buf[..bs].iter().all(|&b| b == 2));
        assert!(buf[bs..].iter().all(|&b| b == 3));

        dev.delete(f).unwrap();
    }

    #[test]
    fn mem_device_read_blocks() {
        read_blocks_roundtrip(&*MemDevice::new(128));
    }

    #[test]
    fn file_device_read_blocks() {
        let dev = FileDevice::new_temp(128).unwrap();
        read_blocks_roundtrip(&*dev);
        dev.cleanup().unwrap();
    }

    #[test]
    fn file_device_padded_block_geometry() {
        // 100-byte blocks storing 96-byte payloads (12 u64s + padding):
        // contiguity must be judged per block index, not byte offset.
        let dev = FileDevice::new_temp(100).unwrap();
        let f = dev.create().unwrap();
        for i in 0..4u64 {
            dev.write_block(f, i, &[i as u8 + 1; 96]).unwrap();
        }
        assert_eq!(dev.num_blocks(f).unwrap(), 4);
        let mut buf = [0u8; 100];
        for i in 0..4u64 {
            let got = dev.read_block(f, i, &mut buf).unwrap();
            assert!(got >= 96, "block {i} short: {got}");
            assert!(buf[..96].iter().all(|&b| b == i as u8 + 1));
        }
        // Skipping a block index is still rejected.
        assert!(dev.write_block(f, 6, &[0u8; 96]).is_err());
        dev.cleanup().unwrap();
    }

    #[test]
    fn file_device_rejects_append_after_short_block() {
        // A block shorter than the file's established payload can only be
        // the final block; appending past it would turn hole bytes into
        // phantom data.
        let dev = FileDevice::new_temp(100).unwrap();
        let f = dev.create().unwrap();
        dev.write_block(f, 0, &[1u8; 96]).unwrap();
        dev.write_block(f, 1, &[2u8; 40]).unwrap(); // short tail: fine
        let err = dev.write_block(f, 2, &[3u8; 96]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // Reads only ever see written bytes, never padding holes.
        let mut buf = [0u8; 100];
        assert_eq!(dev.read_block(f, 0, &mut buf).unwrap(), 96);
        assert_eq!(dev.read_block(f, 1, &mut buf).unwrap(), 40);
        dev.cleanup().unwrap();
    }

    #[test]
    fn read_blocks_accounting_matches_per_block_reads() {
        let dev = FileDevice::new_temp(64).unwrap();
        let f = dev.create().unwrap();
        for i in 0..8u64 {
            dev.write_block(f, i, &[0xAA; 64]).unwrap();
        }
        let base = dev.stats().snapshot();
        let mut buf = vec![0u8; 8 * 64];
        dev.read_blocks(f, 0, 8, &mut buf).unwrap();
        let d = dev.stats().snapshot() - base;
        // One syscall, but the paper's cost unit still counts 8 blocks.
        assert_eq!(d.total_reads(), 8);
        assert_eq!(d.seq_reads, 8);
        dev.cleanup().unwrap();
    }

    /// The satellite edge matrix: short final block, zero-length file,
    /// `count` past EOF, and an odd (non-power-of-two) block size — with
    /// identical semantics on every backend.
    fn read_blocks_edge_cases(dev: &dyn BlockDevice) {
        let bs = dev.block_size();

        // Zero-length file: count = 0 is a no-op, any real range is EOF.
        let empty = dev.create().unwrap();
        let mut buf = vec![0u8; 4 * bs];
        assert_eq!(dev.read_blocks(empty, 0, 0, &mut buf).unwrap(), 0);
        let err = dev.read_blocks(empty, 0, 1, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

        // Short final block + count past EOF: the range clamps to what
        // exists; only a start past EOF errors.
        let f = dev.create().unwrap();
        dev.write_block(f, 0, &vec![1u8; bs]).unwrap();
        dev.write_block(f, 1, &vec![2u8; bs / 3]).unwrap(); // short tail
        let got = dev.read_blocks(f, 0, 100, &mut buf).unwrap();
        assert_eq!(got, bs + bs / 3);
        assert!(buf[..bs].iter().all(|&b| b == 1));
        assert!(buf[bs..bs + bs / 3].iter().all(|&b| b == 2));
        // Range starting at the short tail itself.
        let got = dev.read_blocks(f, 1, 5, &mut buf).unwrap();
        assert_eq!(got, bs / 3);
        // Start exactly at EOF, and past it.
        assert!(dev.read_blocks(f, 2, 1, &mut buf).is_err());
        assert!(dev.read_blocks(f, 7, 1, &mut buf).is_err());
        // count = 0 never touches the device, even past EOF.
        assert_eq!(dev.read_blocks(f, 9, 0, &mut buf).unwrap(), 0);

        dev.delete(empty).unwrap();
        dev.delete(f).unwrap();
    }

    #[test]
    fn mem_device_read_blocks_edges() {
        read_blocks_edge_cases(&*MemDevice::new(96)); // odd block size
        read_blocks_edge_cases(&*MemDevice::new(128));
    }

    #[test]
    fn file_device_read_blocks_edges() {
        for bs in [100usize, 128] {
            let dev = FileDevice::new_temp(bs).unwrap();
            read_blocks_edge_cases(&*dev);
            dev.cleanup().unwrap();
        }
    }

    #[test]
    fn sync_is_counted_and_checks_existence() {
        let dev = MemDevice::new(64);
        let f = dev.create().unwrap();
        dev.write_block(f, 0, &[1u8; 64]).unwrap();
        let before = dev.stats().snapshot();
        dev.sync(f).unwrap();
        dev.sync(f).unwrap();
        assert_eq!((dev.stats().snapshot() - before).syncs, 2);
        assert!(dev.sync(f + 100).is_err(), "sync of a missing file");
    }

    #[test]
    fn non_contiguous_write_rejected() {
        let dev = MemDevice::new(64);
        let f = dev.create().unwrap();
        assert!(dev.write_block(f, 3, &[0; 64]).is_err());
    }

    #[test]
    fn oversized_write_rejected() {
        let dev = MemDevice::new(64);
        let f = dev.create().unwrap();
        assert!(dev.write_block(f, 0, &[0; 65]).is_err());
    }

    #[test]
    fn mem_device_capacity_accounting() {
        let dev = MemDevice::new(128);
        let f = dev.create().unwrap();
        dev.write_block(f, 0, &[0; 128]).unwrap();
        dev.write_block(f, 1, &[0; 64]).unwrap();
        assert_eq!(dev.resident_bytes(), 192);
        assert_eq!(dev.num_files(), 1);
        dev.delete(f).unwrap();
        assert_eq!(dev.resident_bytes(), 0);
    }
}
