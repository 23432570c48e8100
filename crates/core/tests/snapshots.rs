//! Concurrency tests: snapshot readers racing `end_time_step` archival.
//!
//! The engine itself is externally synchronized (`&mut self` ingestion),
//! so the race under test is the *snapshot lifetime*: a reader takes a
//! snapshot under a short lock, releases the lock, and keeps querying
//! while the writer archives steps and cascade merges retire the very
//! partition files the snapshot pins. Every read must see exactly the
//! snapshot-time state; no read may ever error on a deleted file.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hsq_core::{HistStreamQuantiles, HsqConfig, RetentionPolicy, ShardedEngine, SketchKind};
use hsq_storage::MemDevice;

/// Every test races each stream-sketch backend in turn.
const KINDS: [SketchKind; 2] = [SketchKind::Gk, SketchKind::Kll];

fn config(eps: f64, kappa: usize, kind: SketchKind) -> HsqConfig {
    HsqConfig::builder()
        .epsilon(eps)
        .merge_threshold(kappa)
        .sketch(kind)
        .build()
}

/// Writer archives disjoint ranges; readers snapshot mid-stream and check
/// that (a) totals are a consistent step boundary, (b) min/max quantiles
/// match the data that had been ingested at snapshot time, and (c) reads
/// keep working after the underlying partitions have been merged away.
#[test]
fn snapshot_reads_race_end_time_step() {
    const STEPS: u64 = 60;
    const STEP_ITEMS: u64 = 400;
    for kind in KINDS {
        // kappa = 2 merges aggressively: pinned runs retire constantly.
        let engine = Arc::new(Mutex::new(HistStreamQuantiles::<u64, _>::new(
            MemDevice::new(256),
            config(0.05, 2, kind),
        )));
        let stop = Arc::new(Mutex::new(false));

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut checked = 0u64;
                    let deadline = Instant::now() + Duration::from_secs(10);
                    loop {
                        if *stop.lock().unwrap() || Instant::now() > deadline {
                            break;
                        }
                        // Short lock: take the snapshot, then query lock-free.
                        let snap = engine.lock().unwrap().snapshot();
                        let n = snap.total_len();
                        if n == 0 {
                            continue;
                        }
                        // Writer archives whole steps with an empty live
                        // stream, so any snapshot sees a step boundary.
                        assert_eq!(n % STEP_ITEMS, 0, "{kind} mid-step snapshot: n = {n}");
                        let steps_seen = n / STEP_ITEMS;
                        // Data is the contiguous range 0..n (m = 0: exact).
                        let lo = snap.rank_query(1).unwrap().unwrap().value;
                        assert_eq!(lo, 0, "{kind} snapshot min after {steps_seen} steps");
                        let hi = snap.quantile(1.0).unwrap().unwrap();
                        assert_eq!(hi, n - 1, "{kind} snapshot max after {steps_seen} steps");
                        let med = snap.quantile(0.5).unwrap().unwrap();
                        assert!(
                            med.abs_diff(n / 2) <= 1,
                            "{kind} snapshot median {med} for n = {n}"
                        );
                        checked += 1;
                        // Hold the snapshot across a couple of writer steps so
                        // merges retire its files while we still read it.
                        thread::sleep(Duration::from_millis(1));
                        assert_eq!(snap.quantile(1.0).unwrap().unwrap(), n - 1);
                    }
                    checked
                })
            })
            .collect();

        for step in 0..STEPS {
            let batch: Vec<u64> = (step * STEP_ITEMS..(step + 1) * STEP_ITEMS).collect();
            engine.lock().unwrap().ingest_step(&batch).unwrap();
            // Give readers a chance to interleave between steps.
            thread::yield_now();
        }
        *stop.lock().unwrap() = true;

        let mut total_checked = 0;
        for r in readers {
            total_checked += r.join().expect("reader panicked");
        }
        assert!(
            total_checked > 0,
            "{kind} readers never observed a snapshot"
        );
        assert_eq!(
            engine.lock().unwrap().total_len(),
            STEPS * STEP_ITEMS,
            "{kind} writer lost data"
        );
    }
}

/// The same race through the sharded facade: cross-shard snapshots stay
/// consistent while all shards archive and merge concurrently.
#[test]
fn sharded_snapshot_reads_race_ingestion() {
    const STEPS: u64 = 30;
    const STEP_ITEMS: u64 = 600;
    for kind in KINDS {
        let engine = Arc::new(Mutex::new(ShardedEngine::<u64, _>::with_shards(
            4,
            config(0.05, 2, kind),
            |_| MemDevice::new(256),
        )));
        let stop = Arc::new(Mutex::new(false));

        let reader = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut checked = 0u64;
                let deadline = Instant::now() + Duration::from_secs(10);
                while !*stop.lock().unwrap() && Instant::now() < deadline {
                    let snap = engine.lock().unwrap().snapshot();
                    let n = snap.total_len();
                    if n == 0 {
                        continue;
                    }
                    assert_eq!(n % STEP_ITEMS, 0, "{kind} mid-step snapshot: n = {n}");
                    // Contiguous range 0..n, empty stream: exact answers.
                    let med = snap.quantile(0.5).unwrap().unwrap();
                    assert!(med.abs_diff(n / 2) <= 1, "{kind} median {med} for n = {n}");
                    let max = snap.quantile(1.0).unwrap().unwrap();
                    assert_eq!(max, n - 1);
                    checked += 1;
                    thread::sleep(Duration::from_millis(1));
                    assert_eq!(snap.quantile(1.0).unwrap().unwrap(), n - 1);
                }
                checked
            })
        };

        for step in 0..STEPS {
            let batch: Vec<u64> = (step * STEP_ITEMS..(step + 1) * STEP_ITEMS).collect();
            engine.lock().unwrap().ingest_step(&batch).unwrap();
            thread::yield_now();
        }
        *stop.lock().unwrap() = true;
        let checked = reader.join().expect("reader panicked");
        assert!(checked > 0, "{kind} reader never observed a snapshot");
    }
}

/// Expiry-under-query stress: reader threads hold engine snapshots while
/// an aggressive TTL policy retires the very partitions they pin. Every
/// snapshot's answers must be byte-for-byte unchanged by concurrent
/// expiry, and the retired files must stay on the device until the last
/// guard drops (deferred deletion), then disappear.
#[test]
fn snapshot_reads_race_retention_expiry() {
    const STEPS: u64 = 50;
    const STEP_ITEMS: u64 = 300;
    for kind in KINDS {
        // TTL of 3 steps; kappa = 8 is never reached (retention prunes level
        // 0 to 3 partitions each step), so every retirement a snapshot
        // defers comes from *expiry*, not cascade merges — and the TTL is
        // exact (expiry is partition-aligned, and partitions are one step).
        let cfg = HsqConfig::builder()
            .epsilon(0.05)
            .merge_threshold(8)
            .retention(RetentionPolicy::unbounded().with_max_age_steps(3))
            .sketch(kind)
            .build();
        let dev = MemDevice::new(256);
        let engine = Arc::new(Mutex::new(HistStreamQuantiles::<u64, _>::new(
            Arc::clone(&dev),
            cfg,
        )));
        let stop = Arc::new(Mutex::new(false));

        let readers: Vec<_> = (0..3)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut checked = 0u64;
                    let deadline = Instant::now() + Duration::from_secs(10);
                    loop {
                        if *stop.lock().unwrap() || Instant::now() > deadline {
                            break;
                        }
                        let snap = engine.lock().unwrap().snapshot();
                        let n = snap.total_len();
                        if n == 0 {
                            continue;
                        }
                        // Writer archives whole steps of STEP_ITEMS items; at
                        // most 3 steps are ever retained.
                        assert_eq!(n % STEP_ITEMS, 0, "{kind} mid-step snapshot: n = {n}");
                        assert!(n <= 3 * STEP_ITEMS, "{kind} TTL leaked: n = {n}");
                        // Freeze the snapshot's answers, then re-ask while the
                        // writer expires the pinned partitions underneath.
                        let phis = [0.1, 0.5, 1.0];
                        let before: Vec<u64> = phis
                            .iter()
                            .map(|&phi| snap.quantile(phi).unwrap().unwrap())
                            .collect();
                        let windows = snap.available_windows();
                        let win_before: Vec<Option<u64>> = windows
                            .iter()
                            .map(|&w| snap.quantile_in_window(w, 0.5).unwrap())
                            .collect();
                        thread::sleep(Duration::from_millis(2));
                        let after: Vec<u64> = phis
                            .iter()
                            .map(|&phi| snap.quantile(phi).unwrap().unwrap())
                            .collect();
                        let win_after: Vec<Option<u64>> = windows
                            .iter()
                            .map(|&w| snap.quantile_in_window(w, 0.5).unwrap())
                            .collect();
                        assert_eq!(before, after, "{kind} expiry changed a snapshot answer");
                        assert_eq!(
                            win_before, win_after,
                            "{kind} expiry changed a window answer"
                        );
                        checked += 1;
                    }
                    checked
                })
            })
            .collect();

        for step in 0..STEPS {
            let batch: Vec<u64> = (step * STEP_ITEMS..(step + 1) * STEP_ITEMS).collect();
            engine.lock().unwrap().ingest_step(&batch).unwrap();
            thread::yield_now();
        }
        *stop.lock().unwrap() = true;
        let mut total_checked = 0;
        for r in readers {
            total_checked += r.join().expect("reader panicked");
        }
        assert!(
            total_checked > 0,
            "{kind} readers never observed a snapshot"
        );

        // All guards dropped: deferred deletions ran. Only the ≤ 3 retained
        // partitions (≤ 3*300 items * 8 bytes, block-padded) may remain.
        let engine = engine.lock().unwrap();
        assert!(engine.historical_len() <= 3 * STEP_ITEMS);
        let retained_bytes = engine.warehouse().partition_bytes().unwrap();
        assert_eq!(
            dev.resident_bytes(),
            retained_bytes,
            "{kind} expired files must be deleted once the last snapshot guard drops"
        );
    }
}

/// Deterministic deferred-deletion check: a snapshot pins partitions, the
/// TTL expires them, and the files survive exactly until the last guard
/// drops — with answers stable throughout.
#[test]
fn expired_files_live_until_last_guard_drops() {
    for kind in KINDS {
        // kappa = 16 is never reached in 10 steps: partitions stay one step
        // each, so the 2-step TTL retires exactly the steps the snapshots
        // pin, and it is retention (not merging) doing the retiring.
        let cfg = HsqConfig::builder()
            .epsilon(0.1)
            .merge_threshold(16)
            .retention(RetentionPolicy::unbounded().with_max_age_steps(2))
            .sketch(kind)
            .build();
        let dev = MemDevice::new(256);
        let mut engine = HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg);
        for step in 0..4u64 {
            let batch: Vec<u64> = (step * 100..(step + 1) * 100).collect();
            engine.ingest_step(&batch).unwrap();
        }
        let snap1 = engine.snapshot();
        let snap2 = engine.snapshot();
        let med1 = snap1.quantile(0.5).unwrap().unwrap();
        let files_pinned = dev.num_files();

        // Expire everything both snapshots pin.
        for step in 4..10u64 {
            let batch: Vec<u64> = (step * 100..(step + 1) * 100).collect();
            engine.ingest_step(&batch).unwrap();
        }
        assert!(
            engine.historical_len() <= 200,
            "{kind} TTL must bound history"
        );
        // Pinned files still present and readable; answers unchanged.
        assert!(dev.num_files() >= files_pinned);
        assert_eq!(snap1.quantile(0.5).unwrap().unwrap(), med1);
        assert_eq!(snap2.quantile(0.5).unwrap().unwrap(), med1);

        // First guard drop: files still pinned by snap2.
        drop(snap1);
        assert_eq!(snap2.quantile(0.5).unwrap().unwrap(), med1);

        // Last guard drop: deferred deletions run; only retained bytes stay.
        drop(snap2);
        assert_eq!(
            dev.resident_bytes(),
            engine.warehouse().partition_bytes().unwrap(),
            "{kind} deferred deletions must run at the last guard drop"
        );
    }
}
