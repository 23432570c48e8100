//! Integration tests for the extensions beyond the paper's figures:
//! heavy hitters over the union, warehouse persistence/recovery, and
//! batch quantile queries.

use std::collections::HashMap;
use std::sync::Arc;

use hsq::core::{HistStreamQuantiles, HsqConfig};
use hsq::storage::{FileDevice, MemDevice};
use hsq::workload::{Dataset, TimeStepDriver};

#[test]
fn heavy_hitters_on_skewed_trace() {
    // The Zipf-skewed network trace has true heavy flow pairs; the query
    // must find every one of them with its exact count.
    let cfg = HsqConfig::builder()
        .epsilon(0.01)
        .merge_threshold(4)
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(1024), cfg);

    let mut truth: HashMap<u64, u64> = HashMap::new();
    let mut driver = TimeStepDriver::new(Dataset::NetTrace, 3, 5_000, 9);
    for _ in 0..8 {
        let batch = driver.next().unwrap();
        for &v in &batch {
            *truth.entry(v).or_insert(0) += 1;
        }
        h.ingest_step(&batch).unwrap();
    }
    for v in driver.next().unwrap() {
        *truth.entry(v).or_insert(0) += 1;
        h.stream_update(v);
    }

    let n = h.total_len();
    let phi = 0.002;
    let threshold = (phi * n as f64).ceil() as u64;
    let reported = h.heavy_hitters(phi).unwrap();

    // Exactness: reported counts are the truth.
    for hh in &reported {
        let t = truth.get(&hh.value).copied().unwrap_or(0);
        assert_eq!(hh.count(), t, "value {} miscounted", hh.value);
        assert!(t >= threshold, "value {} below {threshold}", hh.value);
    }
    // Completeness: every true heavy hitter is reported.
    for (&v, &c) in &truth {
        if c >= threshold {
            assert!(
                reported.iter().any(|hh| hh.value == v),
                "true heavy hitter {v} (count {c} >= {threshold}) missing"
            );
        }
    }
    assert!(!reported.is_empty(), "Zipf trace must have heavy hitters");
}

#[test]
fn persist_and_recover_engine_round_trip() {
    let dir = std::env::temp_dir().join(format!("hsq-ext-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = HsqConfig::builder()
        .epsilon(0.05)
        .merge_threshold(3)
        .build();

    let manifest;
    let expected: Vec<Option<u64>>;
    {
        let dev = FileDevice::new(&dir, 512).unwrap();
        let mut h = HistStreamQuantiles::<u64, _>::new(dev, cfg.clone());
        for batch in TimeStepDriver::new(Dataset::Normal, 5, 1_000, 8) {
            h.ingest_step(&batch).unwrap();
        }
        manifest = h.persist().unwrap();
        expected = h.quantiles(&[0.1, 0.5, 0.9]).unwrap();
    } // process "exit"

    let dev = FileDevice::new(&dir, 512).unwrap();
    let recovered = HistStreamQuantiles::<u64, _>::recover(dev, cfg, manifest).unwrap();
    assert_eq!(recovered.total_len(), 8_000);
    // With no live stream, recovered answers are identical.
    assert_eq!(recovered.quantiles(&[0.1, 0.5, 0.9]).unwrap(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_engine_keeps_streaming_and_archiving() {
    let dev = MemDevice::new(512);
    let cfg = HsqConfig::builder()
        .epsilon(0.05)
        .merge_threshold(3)
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg.clone());
    for batch in TimeStepDriver::new(Dataset::Uniform, 9, 1_000, 5) {
        h.ingest_step(&batch).unwrap();
    }
    let manifest = h.persist().unwrap();

    let mut h2 = HistStreamQuantiles::<u64, _>::recover(Arc::clone(&dev), cfg, manifest).unwrap();
    // Continue operating: stream + archive + query.
    for v in 0..1_000u64 {
        h2.stream_update(v);
    }
    assert_eq!(h2.total_len(), 6_000);
    h2.end_time_step().unwrap();
    h2.warehouse().check_invariants().unwrap();
    assert!(h2.quantile(0.5).unwrap().is_some());
}

#[test]
fn heavy_hitters_survive_mid_step_recovery() {
    // Three archived steps hold one 7; the live step is two thirds 7s.
    let dev = MemDevice::new(512);
    let cfg = HsqConfig::builder()
        .epsilon(0.05)
        .merge_threshold(3)
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg.clone());
    for s in 0..3u64 {
        let batch: Vec<u64> = (s * 1_000..(s + 1) * 1_000).collect();
        h.ingest_step(&batch).unwrap();
    }
    let mut live = vec![7u64; 2_000];
    live.extend(10_000..11_000u64);
    h.stream_extend(&live);
    let manifest = h.persist().unwrap();

    let h2 = HistStreamQuantiles::<u64, _>::recover(dev, cfg, manifest).unwrap();
    assert_eq!((h2.historical_len(), h2.stream_len()), (3_000, 3_000));
    let hits = h2.heavy_hitters(0.2).unwrap();
    assert_eq!(hits.len(), 1, "only 7 reaches 1,200 of 6,000: {hits:?}");
    assert_eq!(hits[0].value, 7);
    assert_eq!((hits[0].hist_count, hits[0].stream_count), (1, 2_000));
    assert_eq!(hits[0].count(), 2_001);
    assert_eq!(hits, h.heavy_hitters(0.2).unwrap());
}

#[test]
fn batch_quantiles_match_single_queries() {
    let cfg = HsqConfig::builder()
        .epsilon(0.02)
        .merge_threshold(4)
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(512), cfg);
    for batch in TimeStepDriver::new(Dataset::Wikipedia, 13, 2_000, 6) {
        h.ingest_step(&batch).unwrap();
    }
    for v in TimeStepDriver::new(Dataset::Wikipedia, 14, 2_000, 1)
        .next()
        .unwrap()
    {
        h.stream_update(v);
    }
    let phis = [0.01, 0.25, 0.5, 0.75, 0.99];
    let batch = h.quantiles(&phis).unwrap();
    for (i, &phi) in phis.iter().enumerate() {
        assert_eq!(batch[i], h.quantile(phi).unwrap(), "phi={phi}");
    }
}
