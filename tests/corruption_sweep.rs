//! Corruption and transient-failure sweeps for the self-healing storage
//! stack: bit-rot in EVERY run block must never produce a silent wrong
//! answer (each response is correct against an oracle or flagged
//! degraded with rank bounds widened by exactly the quarantined mass),
//! scrub repair must salvage everything except the rotted block, and
//! deterministic flaky reads must be fully masked by the retry layers
//! with zero query-visible failures.

use std::io;
use std::sync::Arc;

use hsq::core::{HistStreamQuantiles, HsqConfig, QueryOutcome, ShardedEngine};
use hsq::storage::{BlockDevice, Fault, FaultDevice, FileId, MemDevice, RetryDevice, RetryPolicy};

const EPS: f64 = 0.1;
const STEPS: u64 = 4;
const STEP_ITEMS: u64 = 124; // four 31-item checksummed blocks per step
const STREAM_ITEMS: u64 = 100; // eps * m = 10

fn value(seed: u64, i: u64) -> u64 {
    (i * 37 + seed * 101) % 5_000
}

/// A fresh engine over `seed`'s deterministic workload plus its sorted
/// oracle (history and live stream together).
fn build(seed: u64) -> (HistStreamQuantiles<u64, MemDevice>, Vec<u64>) {
    let cfg = HsqConfig::builder()
        .epsilon(EPS)
        .merge_threshold(3)
        .retry(RetryPolicy::immediate(4))
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
    let mut oracle = Vec::new();
    for s in 0..STEPS {
        let batch: Vec<u64> = (0..STEP_ITEMS)
            .map(|i| value(seed, s * STEP_ITEMS + i))
            .collect();
        oracle.extend_from_slice(&batch);
        h.ingest_step(&batch).unwrap();
    }
    for i in 0..STREAM_ITEMS {
        let v = value(seed, STEPS * STEP_ITEMS + i);
        oracle.push(v);
        h.stream_update(v);
    }
    oracle.sort_unstable();
    (h, oracle)
}

/// Flip one byte of a run block in place — the silent corruption the
/// per-block CRC trailer exists to catch.
fn rot(dev: &MemDevice, file: FileId, block: u64) {
    let mut buf = vec![0u8; dev.block_size()];
    let n = dev.read_block(file, block, &mut buf).unwrap();
    buf[n / 2] ^= 0x01;
    dev.write_block(file, block, &buf[..n]).unwrap();
}

/// No silent wrong answers: the returned value's true rank interval (in
/// the full oracle) must overlap the requested rank widened by
/// `eps_m + quarantined`, and the outcome's claimed interval must be
/// widened by **exactly** the quarantined mass.
fn assert_sound(oracle: &[u64], o: &QueryOutcome<u64>, r: u64, eps_m: u64) {
    let lt = oracle.partition_point(|&x| x < o.value) as u64;
    let le = oracle.partition_point(|&x| x <= o.value) as u64;
    let slack = eps_m + o.quarantined;
    assert!(
        lt < r + slack && le.max(lt + 1) >= r.saturating_sub(slack),
        "rank {r}: value {} has true ranks [{}, {}], outside +/-{slack}",
        o.value,
        lt + 1,
        le
    );
    assert_eq!(o.degraded, o.quarantined > 0);
    if o.estimated_rank >= eps_m {
        assert_eq!(
            o.rank_hi - o.rank_lo,
            2 * eps_m + o.quarantined,
            "bound widening must be exactly the quarantined mass"
        );
    }
}

#[test]
fn bit_rot_sweep_every_block_degrades_soundly_then_repairs() {
    let eps_m = (EPS * STREAM_ITEMS as f64).floor() as u64;
    for &seed in &[0u64, 7, 23] {
        // The layout is deterministic per seed: discover the
        // per-partition block counts once, then sweep every block.
        let (h0, _) = build(seed);
        let bs = h0.warehouse().device().block_size();
        let layout: Vec<u64> = h0
            .warehouse()
            .partitions_newest_first()
            .iter()
            .map(|p| p.run.len().div_ceil(p.run.items_per_block(bs) as u64))
            .collect();
        drop(h0);
        assert!(layout.iter().sum::<u64>() >= 16, "sweep must be real");

        for (pi, &blocks) in layout.iter().enumerate() {
            for b in 0..blocks {
                let ctx = format!("seed {seed} partition {pi} block {b}");
                let (mut h, oracle) = build(seed);
                let n = h.total_len();
                let dev = Arc::clone(h.warehouse().device());
                let (file, block_items) = {
                    let p = h.warehouse().partitions_newest_first()[pi];
                    let per = p.run.items_per_block(bs) as u64;
                    (p.run.file(), (p.run.len() - b * per).min(per))
                };
                rot(&dev, file, b);

                // Degraded-or-correct: every answer either matches the
                // oracle within eps*m or is flagged with exact widening.
                for r in [n / 4, n / 2, (3 * n) / 4] {
                    let o = h.rank_query(r).unwrap().unwrap();
                    assert_sound(&oracle, &o, r, eps_m);
                    if o.degraded {
                        assert_eq!(o.quarantined, h.warehouse().quarantined_mass(), "{ctx}");
                    }
                }

                // Scrub converges: quarantine (if a query did not
                // already), repair, then one provably clean pass.
                let mut passes = 0;
                while h.scrub(1_000_000).unwrap().quarantined_after > 0 {
                    passes += 1;
                    assert!(passes < 4, "scrub must converge ({ctx})");
                }
                let clean = h.scrub(1_000_000).unwrap();
                assert_eq!(clean.corrupt_blocks, 0, "{ctx}");
                assert_eq!(
                    h.warehouse().lost_items(),
                    block_items,
                    "exactly the rotted block is lost ({ctx})"
                );
                assert_eq!(h.total_len(), n - block_items, "{ctx}");

                // Post-repair: answers sound modulo the confirmed loss,
                // which is all that remains of the widening.
                let n2 = h.total_len();
                for r in [n2 / 4, n2 / 2, (3 * n2) / 4] {
                    let o = h.rank_query(r).unwrap().unwrap();
                    assert_eq!(o.quarantined, block_items, "{ctx}");
                    assert_sound(&oracle, &o, r, eps_m);
                }
            }
        }
    }
}

#[test]
fn strict_mode_refuses_quarantined_data_until_repaired() {
    let cfg = HsqConfig::builder()
        .epsilon(EPS)
        .merge_threshold(3)
        .strict(true)
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
    for s in 0..3u64 {
        h.ingest_step(&(0..100u64).map(|i| s * 100 + i).collect::<Vec<_>>())
            .unwrap();
    }
    for v in 300..350u64 {
        h.stream_update(v);
    }
    assert!(h.quantile(0.5).unwrap().is_some(), "healthy engine answers");

    // Quarantine one partition: accurate queries refuse outright.
    let file = h.warehouse().partitions_newest_first()[0].run.file();
    assert!(h.warehouse().quarantine(file));
    let err = h.quantile(0.5).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("strict"), "{err}");
    assert!(h.rank_query(10).is_err());
    assert!(h.quantile_in_window(1, 0.5).is_err());
    let err = h.heavy_hitters(0.05).unwrap_err();
    assert!(err.to_string().contains("strict"), "{err}");
    // Quick (in-memory) responses never touch disk and stay available.
    assert!(h.quantile_quick(0.5).is_some());

    // The partition was never actually corrupt: repair salvages all of
    // it, nothing is lost, and strict service resumes.
    while h.scrub(1_000_000).unwrap().quarantined_after > 0 {}
    assert_eq!(h.warehouse().lost_items(), 0);
    assert_eq!(h.warehouse().quarantined_mass(), 0);
    assert!(h.quantile(0.5).unwrap().is_some());
    assert!(h.heavy_hitters(0.05).is_ok());
}

#[test]
fn strict_mode_errors_when_corruption_is_discovered_mid_query() {
    let cfg = HsqConfig::builder()
        .epsilon(0.02)
        .merge_threshold(3)
        .strict(true)
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
    for step in 0..6u64 {
        let batch: Vec<u64> = (0..2_000).map(|i| i * 17 + step).collect();
        h.ingest_step(&batch).unwrap();
    }
    for v in 0..500u64 {
        h.stream_update(v);
    }
    // Rot every block of every partition: the first disk probe hits
    // corruption, the engine quarantines — and strict mode must turn
    // that into an error instead of a silently degraded answer.
    let dev = Arc::clone(h.warehouse().device());
    let rotted: Vec<(FileId, u64)> = h
        .warehouse()
        .partitions_newest_first()
        .iter()
        .map(|p| {
            let blocks = p
                .run
                .len()
                .div_ceil(p.run.items_per_block(dev.block_size()) as u64);
            (p.run.file(), blocks)
        })
        .collect();
    for &(file, blocks) in &rotted {
        for b in 0..blocks {
            rot(&dev, file, b);
        }
    }
    let err = h.quantile(0.5).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(
        h.warehouse().quarantined_mass() > 0,
        "the probe's discovery must be recorded"
    );
}

#[test]
fn transient_read_failures_are_retried_within_queries() {
    let cfg = HsqConfig::builder()
        .epsilon(0.05)
        .merge_threshold(3)
        .retry(RetryPolicy::immediate(16))
        .build();
    let fault = FaultDevice::new(MemDevice::new(256));
    let mut h = HistStreamQuantiles::<u64, _>::new(Arc::clone(&fault), cfg);
    for s in 0..4u64 {
        let batch: Vec<u64> = (0..400u64).map(|i| (i * 13 + s) % 3_000).collect();
        h.ingest_step(&batch).unwrap();
    }
    for v in 0..200u64 {
        h.stream_update(v * 15 % 3_000);
    }
    let baseline = h.quantile(0.5).unwrap().unwrap();

    // ~1 in 25 reads fails transiently; the engine's whole-probe retry
    // masks every schedule, bit-identically to the un-faulted answers.
    fault.arm(Fault::FlakyReads { seed: 5, rate: 25 });
    for _ in 0..10 {
        let o = h.rank_query(h.total_len() / 2).unwrap().unwrap();
        assert_eq!(o.value, baseline);
        assert!(!o.degraded, "transients must never quarantine");
    }

    // Every read failing exhausts the retry budget: the transient error
    // surfaces (cleanly) instead of looping forever...
    fault.arm(Fault::FlakyReads { seed: 5, rate: 1 });
    let err = h.quantile(0.5).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::Interrupted);
    // ...and service resumes once the device recovers.
    fault.revive();
    assert_eq!(h.quantile(0.5).unwrap().unwrap(), baseline);
}

#[test]
fn flaky_reads_sweep_sharded_windows_masked_with_zero_failures() {
    for &(seed, rate) in &[(3u64, 2u64), (11, 3), (29, 5)] {
        let cfg = HsqConfig::builder()
            .epsilon(0.05)
            .merge_threshold(3)
            .retry(RetryPolicy::immediate(32))
            .build();
        let mut faults: Vec<Arc<FaultDevice<MemDevice>>> = Vec::new();
        let mut engine = ShardedEngine::<u64, _>::with_shards(3, cfg, |_| {
            let f = FaultDevice::new(MemDevice::new(256));
            faults.push(Arc::clone(&f));
            RetryDevice::new(f, RetryPolicy::immediate(32))
        });
        for s in 0..6u64 {
            let batch: Vec<u64> = (0..600u64).map(|i| (i * 31 + s * 7) % 10_000).collect();
            engine.ingest_step(&batch).unwrap();
        }
        engine.stream_extend(&(0..300u64).map(|i| i * 33 % 10_000).collect::<Vec<_>>());

        // Arm the deterministic flaky schedule on every shard device,
        // then sweep windowed queries through a snapshot AND the live
        // engine: zero query-visible failures, no degradation.
        for f in &faults {
            f.arm(Fault::FlakyReads { seed, rate });
        }
        let snap = engine.snapshot();
        for w in snap.available_windows() {
            for phi in [0.25, 0.5, 0.9] {
                assert!(
                    snap.quantile_in_window(w, phi).unwrap().is_some(),
                    "seed {seed} rate {rate} window {w} phi {phi}"
                );
            }
            let o = snap.rank_in_window(w, 50).unwrap().unwrap();
            assert!(!o.degraded, "transients must never look like corruption");
        }
        for w in engine.available_windows() {
            assert!(engine.quantile_in_window(w, 0.5).unwrap().is_some());
        }
        assert!(engine.quantile(0.5).unwrap().is_some());

        // The masking was real work: the injected failures were absorbed
        // by the retry layer and counted.
        let retries: u64 = faults.iter().map(|f| f.stats().snapshot().retries).sum();
        assert!(
            retries > 0,
            "seed {seed} rate {rate}: flaky reads must have been retried"
        );
    }
}

/// `strict` is recorded in the scope a query pins, so every surface —
/// not just the live single engine — refuses over quarantined data,
/// while a scope pinned before the quarantine keeps answering.
#[test]
fn strict_is_honoured_by_sharded_and_snapshot_surfaces() {
    let build = |strict: bool| {
        let cfg = HsqConfig::builder()
            .epsilon(EPS)
            .merge_threshold(3)
            .strict(strict)
            .build();
        let mut e = ShardedEngine::<u64, _>::with_shards(2, cfg, |_| MemDevice::new(256));
        for s in 0..3u64 {
            e.ingest_step(&(0..200u64).map(|i| s * 200 + i).collect::<Vec<_>>())
                .unwrap();
        }
        e.stream_extend(&(600..660u64).collect::<Vec<_>>());
        e
    };
    let quarantine_newest = |e: &ShardedEngine<u64, MemDevice>| {
        let w = e.shard(0).warehouse();
        let p = w.partitions_newest_first()[0];
        assert!(w.quarantine(p.run.file()));
        p.run.len()
    };

    let strict = build(true);
    let pinned_before = strict.snapshot();
    quarantine_newest(&strict);
    for (what, res) in [
        ("rank_query", strict.rank_query(100)),
        ("rank_in_window", strict.rank_in_window(1, 10)),
        ("snapshot", strict.snapshot().rank_query(100)),
        ("shard snapshot", strict.shard(0).snapshot().rank_query(100)),
    ] {
        let err = res.expect_err(what);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        assert!(err.to_string().contains("strict mode"), "{what}: {err}");
    }
    let o = pinned_before.rank_query(100).unwrap().unwrap();
    assert!(
        !o.degraded,
        "a scope pinned before the quarantine is healthy"
    );

    let lenient = build(false);
    let mass = quarantine_newest(&lenient);
    let eps_m = (lenient.config().query_epsilon() * lenient.stream_len() as f64).floor() as u64;
    let o = lenient.rank_query(100).unwrap().unwrap();
    assert!(o.degraded);
    assert_eq!(o.quarantined, mass);
    assert_eq!(o.rank_hi, o.estimated_rank + eps_m + mass);
}

/// A sharded engine self-heals like a single one: rot on one shard
/// quarantines the partition on *that* shard, even though the same file
/// id names a healthy partition on another shard's device.
#[test]
fn sharded_queries_quarantine_the_rotted_shard_only() {
    let cfg = HsqConfig::builder().epsilon(EPS).merge_threshold(3).build();
    let mut e = ShardedEngine::<u64, _>::with_shards(2, cfg, |_| MemDevice::new(256));
    let mut oracle = Vec::new();
    for s in 0..STEPS {
        let batch: Vec<u64> = (0..2 * STEP_ITEMS)
            .map(|i| value(3, s * 1_000 + i))
            .collect();
        oracle.extend_from_slice(&batch);
        e.ingest_step(&batch).unwrap();
    }
    let live: Vec<u64> = (0..2 * STREAM_ITEMS).map(|i| value(5, i)).collect();
    oracle.extend_from_slice(&live);
    e.stream_extend(&live);
    oracle.sort_unstable();

    let newest = |i: usize| e.shard(i).warehouse().partitions_newest_first()[0].run;
    let (rotted, twin) = (newest(0), newest(1));
    assert_eq!(rotted.file(), twin.file(), "the file id must repeat");
    let dev = Arc::clone(e.shard(0).warehouse().device());
    let bs = dev.block_size();
    for b in 0..rotted.len().div_ceil(rotted.items_per_block(bs) as u64) {
        rot(&dev, rotted.file(), b);
    }

    let n = e.total_len();
    let eps_m = (e.config().query_epsilon() * e.stream_len() as f64).floor() as u64;
    for i in 1..=20u64 {
        let r = i * n / 20;
        let o = e.rank_query(r).unwrap().unwrap();
        assert_sound(&oracle, &o, r, eps_m);
        assert_eq!(o.quarantined, rotted.len(), "rank {r}");
    }
    assert!(e.shard(0).warehouse().is_quarantined(rotted.file()));
    assert!(!e.shard(1).warehouse().is_quarantined(twin.file()));
    assert_eq!(e.shard(1).warehouse().quarantined_mass(), 0);
}

/// Heavy hitters skip quarantined partitions, as quantile queries do:
/// once a rank query has quarantined the rotted newest partition, the
/// query answers over the healthy ones, and its counts are exact there.
#[test]
fn heavy_hitters_skip_quarantined_partitions() {
    let cfg = HsqConfig::builder().epsilon(EPS).merge_threshold(5).build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
    for s in 0..STEPS {
        let batch: Vec<u64> = (0..STEP_ITEMS)
            .map(|i| value(7, s * STEP_ITEMS + i))
            .collect();
        h.ingest_step(&batch).unwrap();
    }
    h.stream_extend(
        &(0..STREAM_ITEMS)
            .map(|i| value(7, STEPS * STEP_ITEMS + i))
            .collect::<Vec<_>>(),
    );
    let newest = h.warehouse().partitions_newest_first()[0].run;
    assert_eq!(
        newest.len(),
        STEP_ITEMS,
        "the newest partition is the last step"
    );
    let dev = Arc::clone(h.warehouse().device());
    for b in 0..newest
        .len()
        .div_ceil(newest.items_per_block(dev.block_size()) as u64)
    {
        rot(&dev, newest.file(), b);
    }
    let n = h.total_len();
    for i in 1..=20u64 {
        h.rank_query(i * n / 20).unwrap();
    }
    assert!(h.warehouse().is_quarantined(newest.file()));

    assert!(h.heavy_hitters(0.05).is_ok());
    // Threshold 1 reports every value: exact over the healthy steps and
    // the live stream, nothing from the quarantined step.
    let mut healthy: Vec<u64> = (0..(STEPS - 1) * STEP_ITEMS)
        .chain(STEPS * STEP_ITEMS..STEPS * STEP_ITEMS + STREAM_ITEMS)
        .map(|i| value(7, i))
        .collect();
    healthy.sort_unstable();
    let mut got: Vec<(u64, u64)> = h
        .heavy_hitters(1.0 / n as f64)
        .unwrap()
        .iter()
        .map(|hit| (hit.value, hit.count()))
        .collect();
    got.sort_unstable();
    let mut want: Vec<(u64, u64)> = healthy
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u64))
        .collect();
    want.sort_unstable();
    assert_eq!(got, want);
}
