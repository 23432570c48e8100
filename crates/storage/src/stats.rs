//! Exact I/O accounting.
//!
//! The paper's evaluation (§3) reports *numbers of disk accesses* for both
//! warehouse updates and quantile queries, distinguishing cheap sequential
//! I/O (partition loading and merging, Lemma 6) from expensive random I/O
//! (query-time binary search, Lemma 7). Every [`crate::BlockDevice`] carries
//! an [`IoStats`] that counts each block access at the moment it happens, so
//! experiment harnesses can diff snapshots around any operation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of block-level I/O, shared across device handles.
///
/// Reads are classified by the device: a read of block `i+1` of a file whose
/// previous read was block `i` (or the first read of a file) is *sequential*;
/// anything else is *random*. Writes are assumed sequential (the warehouse
/// only ever appends and rewrites whole partitions).
#[derive(Debug, Default)]
pub struct IoStats {
    seq_reads: AtomicU64,
    rand_reads: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    retries: AtomicU64,
    corruptions: AtomicU64,
}

impl IoStats {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn record_read(&self, bytes: usize, sequential: bool) {
        if sequential {
            self.seq_reads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.rand_reads.fetch_add(1, Ordering::Relaxed);
        }
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_write(&self, bytes: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one retried operation (a transient failure that was masked
    /// by a [`crate::RetryDevice`]'s [`crate::RetryPolicy`]).
    #[inline]
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one detected corruption (a block whose CRC64 trailer or
    /// structural decode failed verification).
    #[inline]
    pub fn record_corruption(&self) {
        self.corruptions.fetch_add(1, Ordering::Relaxed);
    }

    /// Capture the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            seq_reads: self.seq_reads.load(Ordering::Relaxed),
            rand_reads: self.rand_reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`IoStats`] counters.
///
/// Subtract two snapshots to get the cost of the operations in between:
///
/// ```
/// use hsq_storage::{BlockDevice, MemDevice};
/// let dev = MemDevice::new(1024);
/// let before = dev.stats().snapshot();
/// let f = dev.create().unwrap();
/// dev.write_block(f, 0, &[7u8; 1024]).unwrap();
/// let cost = dev.stats().snapshot() - before;
/// assert_eq!(cost.writes, 1);
/// assert_eq!(cost.total_reads(), 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Block reads that continued a sequential scan.
    pub seq_reads: u64,
    /// Block reads that jumped within or across files.
    pub rand_reads: u64,
    /// Block writes.
    pub writes: u64,
    /// Durability barriers (`sync` calls reaching the device).
    pub syncs: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Transient failures masked by a retry policy.
    pub retries: u64,
    /// Blocks that failed checksum/decode verification.
    pub corruptions: u64,
}

impl IoSnapshot {
    /// Sequential plus random block reads.
    pub fn total_reads(&self) -> u64 {
        self.seq_reads + self.rand_reads
    }

    /// All block accesses: reads plus writes. This is the paper's
    /// "number of disk accesses".
    pub fn total_accesses(&self) -> u64 {
        self.total_reads() + self.writes
    }
}

impl std::ops::Sub for IoSnapshot {
    type Output = IoSnapshot;

    fn sub(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            seq_reads: self.seq_reads - rhs.seq_reads,
            rand_reads: self.rand_reads - rhs.rand_reads,
            writes: self.writes - rhs.writes,
            syncs: self.syncs - rhs.syncs,
            bytes_read: self.bytes_read - rhs.bytes_read,
            bytes_written: self.bytes_written - rhs.bytes_written,
            retries: self.retries - rhs.retries,
            corruptions: self.corruptions - rhs.corruptions,
        }
    }
}

impl std::ops::Add for IoSnapshot {
    type Output = IoSnapshot;

    fn add(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            seq_reads: self.seq_reads + rhs.seq_reads,
            rand_reads: self.rand_reads + rhs.rand_reads,
            writes: self.writes + rhs.writes,
            syncs: self.syncs + rhs.syncs,
            bytes_read: self.bytes_read + rhs.bytes_read,
            bytes_written: self.bytes_written + rhs.bytes_written,
            retries: self.retries + rhs.retries,
            corruptions: self.corruptions + rhs.corruptions,
        }
    }
}

impl std::fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} (seq={}, rand={}), writes={}, syncs={}, MB read={:.2}, MB written={:.2}",
            self.total_reads(),
            self.seq_reads,
            self.rand_reads,
            self.writes,
            self.syncs,
            self.bytes_read as f64 / (1024.0 * 1024.0),
            self.bytes_written as f64 / (1024.0 * 1024.0),
        )?;
        if self.retries > 0 || self.corruptions > 0 {
            write!(
                f,
                ", retries={}, corruptions={}",
                self.retries, self.corruptions
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff() {
        let s = IoStats::new();
        s.record_read(100, true);
        let a = s.snapshot();
        s.record_read(100, false);
        s.record_write(50);
        let b = s.snapshot();
        let d = b - a;
        assert_eq!(d.seq_reads, 0);
        assert_eq!(d.rand_reads, 1);
        assert_eq!(d.writes, 1);
        assert_eq!(d.bytes_read, 100);
        assert_eq!(d.bytes_written, 50);
        assert_eq!(d.total_accesses(), 2);
    }

    #[test]
    fn snapshot_add() {
        let a = IoSnapshot {
            seq_reads: 1,
            rand_reads: 2,
            writes: 3,
            syncs: 1,
            bytes_read: 4,
            bytes_written: 5,
            retries: 1,
            corruptions: 1,
        };
        let sum = a + a;
        assert_eq!(sum.seq_reads, 2);
        assert_eq!(sum.syncs, 2);
        assert_eq!(sum.retries, 2);
        assert_eq!(sum.corruptions, 2);
        assert_eq!(sum.total_accesses(), 12);
    }
}
