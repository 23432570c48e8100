//! Robustness integration tests: failure injection, alternative item
//! types, extreme geometries.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hsq::core::{HistStreamQuantiles, HsqConfig, QueryOutcome};
use hsq::storage::{BlockDevice, Fault, FaultDevice, FileId, IoSnapshot, IoStats, MemDevice, F64};

/// A device that starts failing reads after a fuse burns out.
struct FlakyDevice {
    inner: Arc<MemDevice>,
    reads_left: AtomicU64,
}

impl FlakyDevice {
    fn new(block_size: usize, fuse: u64) -> Arc<Self> {
        Arc::new(FlakyDevice {
            inner: MemDevice::new(block_size),
            reads_left: AtomicU64::new(fuse),
        })
    }
}

impl BlockDevice for FlakyDevice {
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
        if self.reads_left.fetch_sub(1, Ordering::Relaxed) == 0 {
            self.reads_left.store(0, Ordering::Relaxed);
            return Err(io::Error::other("injected read failure"));
        }
        self.inner.read_block(file, idx, buf)
    }

    fn num_blocks(&self, file: FileId) -> io::Result<u64> {
        self.inner.num_blocks(file)
    }

    fn file_len(&self, file: FileId) -> io::Result<u64> {
        self.inner.file_len(file)
    }

    fn delete(&self, file: FileId) -> io::Result<()> {
        self.inner.delete(file)
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

#[test]
fn read_failures_surface_as_errors_not_panics() {
    let cfg = HsqConfig::builder()
        .epsilon(0.02)
        .merge_threshold(3)
        .build();
    // Plenty of reads for ingest (merging reads blocks), then burn out.
    let dev = FlakyDevice::new(256, 10_000);
    let mut h = HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg);
    for step in 0..6u64 {
        let batch: Vec<u64> = (0..2_000).map(|i| i * 17 + step).collect();
        h.ingest_step(&batch).unwrap();
    }
    for v in 0..500u64 {
        h.stream_update(v);
    }
    // Queries succeed while the fuse lasts...
    assert!(h.quantile(0.5).unwrap().is_some());
    // ...then fail cleanly.
    dev.reads_left.store(0, Ordering::Relaxed);
    let err = h.quantile(0.5);
    assert!(err.is_err(), "expected propagated I/O error");
    // Quick responses never touch disk, so they still work.
    assert!(h.quantile_quick(0.5).is_some());
    // And after "repairing" the device, accurate queries recover.
    dev.reads_left.store(1_000_000, Ordering::Relaxed);
    assert!(h.quantile(0.5).unwrap().is_some());
}

#[test]
fn f64_items_end_to_end() {
    let cfg = HsqConfig::builder()
        .epsilon(0.05)
        .merge_threshold(3)
        .build();
    let mut h = HistStreamQuantiles::<F64, _>::new(MemDevice::new(512), cfg);
    let mut all: Vec<f64> = Vec::new();
    for step in 0..5u64 {
        let batch: Vec<F64> = (0..1_000)
            .map(|i| {
                let v = ((i * 37 + step * 13) % 10_000) as f64 / 7.0 - 500.0;
                all.push(v);
                F64::new(v)
            })
            .collect();
        h.ingest_step(&batch).unwrap();
    }
    for i in 0..1_000u64 {
        let v = (i as f64).sin() * 1000.0;
        all.push(v);
        h.stream_update(F64::new(v));
    }
    all.sort_by(f64::total_cmp);
    let n = all.len();
    let med = h.quantile(0.5).unwrap().unwrap().get();
    // Within eps*m = 50 ranks of the true median.
    let lo = all[n / 2 - 60];
    let hi = all[n / 2 + 60];
    assert!(
        (lo..=hi).contains(&med),
        "f64 median {med} outside [{lo}, {hi}]"
    );
}

#[test]
fn i64_negative_values_end_to_end() {
    let cfg = HsqConfig::builder()
        .epsilon(0.05)
        .merge_threshold(4)
        .build();
    let mut h = HistStreamQuantiles::<i64, _>::new(MemDevice::new(512), cfg);
    for step in 0..4i64 {
        let batch: Vec<i64> = (-500..500).map(|i| i * 3 + step).collect();
        h.ingest_step(&batch).unwrap();
    }
    for v in -100..100i64 {
        h.stream_update(v);
    }
    let med = h.quantile(0.5).unwrap().unwrap();
    assert!(med.abs() <= 30, "median {med} should be near 0");
    let p01 = h.quantile(0.01).unwrap().unwrap();
    assert!(p01 < -1400, "p01 {p01} should be deeply negative");
}

#[test]
fn u32_items_and_one_item_blocks() {
    // Degenerate geometry: each checksummed block holds exactly one u32
    // (4 bytes of payload + the 8-byte CRC trailer).
    let cfg = HsqConfig::builder().epsilon(0.1).merge_threshold(3).build();
    let mut h = HistStreamQuantiles::<u32, _>::new(MemDevice::new(12), cfg);
    for step in 0..4u32 {
        let batch: Vec<u32> = (0..200).map(|i| i * 5 + step).collect();
        h.ingest_step(&batch).unwrap();
    }
    for v in 0..100u32 {
        h.stream_update(v * 10);
    }
    let med = h.quantile(0.5).unwrap().unwrap();
    assert!(med <= 1000, "median {med}");
    assert!(h.quantile(1.0).unwrap().unwrap() >= 990);
}

#[test]
fn all_equal_values() {
    let cfg = HsqConfig::builder().epsilon(0.1).merge_threshold(3).build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
    for _ in 0..5 {
        h.ingest_step(&vec![42u64; 1000]).unwrap();
    }
    for _ in 0..100 {
        h.stream_update(42);
    }
    for phi in [0.01, 0.5, 1.0] {
        assert_eq!(h.quantile(phi).unwrap(), Some(42));
        assert_eq!(h.quantile_quick(phi), Some(42));
    }
}

#[test]
fn single_element_per_step() {
    let cfg = HsqConfig::builder().epsilon(0.5).merge_threshold(2).build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(64), cfg);
    for i in 0..20u64 {
        h.ingest_step(&[i]).unwrap();
    }
    assert_eq!(h.total_len(), 20);
    let med = h.quantile(0.5).unwrap().unwrap();
    assert!((8..=11).contains(&med), "median {med}");
}

#[test]
fn empty_steps_interleaved() {
    let cfg = HsqConfig::builder().epsilon(0.1).merge_threshold(3).build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
    for step in 0..6u64 {
        if step % 2 == 0 {
            h.ingest_step(&(0..100u64).map(|i| i + step * 100).collect::<Vec<_>>())
                .unwrap();
        } else {
            h.end_time_step().unwrap(); // nothing streamed this step
        }
    }
    assert_eq!(h.warehouse().steps(), 6);
    assert_eq!(h.total_len(), 300);
    assert!(h.quantile(0.5).unwrap().is_some());
}

/// A transient write error while a step closes loses nothing: the step
/// stays open with its items staged and its stream intact, the warehouse
/// counts only what it holds, and a retry answers like an engine that
/// never saw the fault.
#[test]
fn a_failed_step_close_keeps_its_items_for_the_retry() {
    let build = || {
        let cfg = HsqConfig::builder().epsilon(0.1).merge_threshold(3).build();
        let dev = FaultDevice::new(MemDevice::new(256));
        let mut h = HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg);
        for step in 0..2u64 {
            h.ingest_step(&(0..100).map(|i| step * 100 + i).collect::<Vec<_>>())
                .unwrap();
        }
        h.stream_extend(&(200..300u64).rev().collect::<Vec<_>>());
        (h, dev)
    };
    let (mut twin, twin_dev) = build();
    let before = twin_dev.mutations();
    twin.end_time_step().unwrap();
    let mutations = twin_dev.mutations() - before;
    assert!(mutations >= 5, "the sweep must be real: {mutations}");
    let answers = |h: &HistStreamQuantiles<u64, FaultDevice<MemDevice>>| {
        (1..=h.total_len())
            .step_by(7)
            .map(|r| {
                let o = h.rank_query(r).unwrap().unwrap();
                QueryOutcome {
                    io: IoSnapshot::default(),
                    ..o
                }
            })
            .collect::<Vec<_>>()
    };
    let expected = answers(&twin);

    for k in 0..mutations {
        let (mut h, dev) = build();
        dev.arm(Fault::FailOp(dev.mutations() + k));
        assert!(h.end_time_step().is_err(), "k = {k}");
        let stored: u64 = h
            .warehouse()
            .partitions_newest_first()
            .iter()
            .map(|p| p.run.len())
            .sum();
        assert_eq!(h.historical_len(), stored, "k = {k}");
        assert_eq!(h.warehouse().steps(), 2, "k = {k}");
        assert_eq!(h.stream_len(), 100, "k = {k}");

        h.end_time_step().unwrap();
        assert_eq!(h.warehouse().steps(), 3, "k = {k}");
        assert_eq!(answers(&h), expected, "k = {k}");
    }
}
