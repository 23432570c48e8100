//! End-to-end integration tests: the full pipeline (workload generator →
//! stream processor → warehouse → query engine) against an exact oracle,
//! on every evaluation dataset and on both device backends.

use std::sync::Arc;

use hsq::core::{HistStreamQuantiles, HsqConfig, SketchKind};
use hsq::sketch::ExactQuantiles;
use hsq::storage::{BlockDevice, FileDevice, MemDevice};
use hsq::workload::{Dataset, TimeStepDriver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PHIS: [f64; 7] = [0.01, 0.1, 0.25, 0.5, 0.75, 0.95, 0.99];

/// Drive `steps` time steps plus one live stream through the engine and
/// assert Theorem 2's bound (rank error <= eps*m) for all PHIS.
fn run_pipeline<D: BlockDevice>(
    dev: Arc<D>,
    dataset: Dataset,
    eps: f64,
    kappa: usize,
    steps: usize,
    step_size: usize,
) {
    let cfg = HsqConfig::builder()
        .epsilon(eps)
        .merge_threshold(kappa)
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(dev, cfg);
    let mut oracle = ExactQuantiles::new();

    let mut driver = TimeStepDriver::new(dataset, 7, step_size, steps + 1);
    for _ in 0..steps {
        let batch = driver.next().unwrap();
        oracle.extend(batch.iter().copied());
        h.ingest_step(&batch).unwrap();
    }
    // Live stream.
    for v in driver.next().unwrap() {
        oracle.insert(v);
        h.stream_update(v);
    }

    let n = oracle.len();
    let m = step_size as u64;
    assert_eq!(h.total_len(), n);
    let allowed_ranks = (eps * m as f64).ceil() + 1.0;

    for phi in PHIS {
        let v = h.quantile(phi).unwrap().unwrap();
        let err = oracle.relative_error(phi, v);
        let allowed_rel = allowed_ranks / (phi * n as f64);
        assert!(
            err <= allowed_rel,
            "{}: phi={phi} rel-err {err:.3e} > allowed {allowed_rel:.3e}",
            dataset.name()
        );
    }
}

#[test]
fn all_datasets_meet_theorem2_on_mem_device() {
    for dataset in Dataset::ALL {
        run_pipeline(MemDevice::new(1024), dataset, 0.02, 5, 12, 2_000);
    }
}

#[test]
fn normal_dataset_on_real_filesystem() {
    let dev = FileDevice::new_temp(1024).unwrap();
    run_pipeline(Arc::clone(&dev), Dataset::Normal, 0.05, 3, 8, 1_000);
    dev.cleanup().unwrap();
}

#[test]
fn file_and_mem_devices_agree_exactly() {
    // The same inputs must produce the same answers regardless of backend.
    let cfg = HsqConfig::builder()
        .epsilon(0.05)
        .merge_threshold(3)
        .build();
    let mem = MemDevice::new(512);
    let file = FileDevice::new_temp(512).unwrap();
    let mut h_mem = HistStreamQuantiles::<u64, _>::new(Arc::clone(&mem), cfg.clone());
    let mut h_file = HistStreamQuantiles::<u64, _>::new(Arc::clone(&file), cfg);

    let mut driver = TimeStepDriver::new(Dataset::Wikipedia, 3, 800, 7);
    for _ in 0..6 {
        let batch = driver.next().unwrap();
        h_mem.ingest_step(&batch).unwrap();
        h_file.ingest_step(&batch).unwrap();
    }
    for v in driver.next().unwrap() {
        h_mem.stream_update(v);
        h_file.stream_update(v);
    }
    for phi in PHIS {
        assert_eq!(
            h_mem.quantile(phi).unwrap(),
            h_file.quantile(phi).unwrap(),
            "backend divergence at phi={phi}"
        );
    }
    file.cleanup().unwrap();
}

#[test]
fn error_is_stream_proportional_not_total_proportional() {
    // The paper's headline: with history 50x the stream, absolute rank
    // error stays bounded by eps*m, so relative error shrinks as history
    // grows. Verify the absolute error against eps*m directly.
    let eps = 0.05;
    let cfg = HsqConfig::builder()
        .epsilon(eps)
        .merge_threshold(10)
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(1024), cfg);
    let mut all: Vec<u64> = Vec::new();

    let mut driver = TimeStepDriver::new(Dataset::Uniform, 11, 1_000, 51);
    for _ in 0..50 {
        let batch = driver.next().unwrap();
        all.extend(&batch);
        h.ingest_step(&batch).unwrap();
    }
    let stream: Vec<u64> = driver.next().unwrap();
    let m = stream.len() as u64;
    for v in stream {
        all.push(v);
        h.stream_update(v);
    }
    all.sort_unstable();
    let n = all.len() as u64;
    let allowed = (eps * m as f64).ceil() as u64 + 1; // NOT eps * N (50x larger)

    for phi in PHIS {
        let r = ((phi * n as f64).ceil() as u64).clamp(1, n);
        let v = h.quantile(phi).unwrap().unwrap();
        let hi = all.partition_point(|&x| x <= v) as u64;
        let lo = all.partition_point(|&x| x < v) as u64 + 1;
        let dist = if lo > hi {
            r.abs_diff(hi)
        } else if r < lo {
            lo - r
        } else {
            r.saturating_sub(hi)
        };
        assert!(
            dist <= allowed,
            "phi={phi}: absolute rank error {dist} exceeds eps*m = {allowed} (N = {n})"
        );
    }
}

#[test]
fn stream_reset_isolation_across_steps() {
    // After archiving, a fresh stream must not leak the old stream's
    // distribution through SS.
    let cfg = HsqConfig::builder().epsilon(0.1).merge_threshold(3).build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(512), cfg);
    // Step 1: all values low.
    h.ingest_step(&vec![10u64; 1000]).unwrap();
    // Live stream: all values high.
    for _ in 0..1000 {
        h.stream_update(1_000_000u64);
    }
    // Median of the union must be a low value boundary (1000 low + 1000
    // high -> rank 1000 is the last low element).
    let med = h.quantile(0.5).unwrap().unwrap();
    assert!(med <= 1_000_000, "median {med}");
    let q25 = h.quantile(0.25).unwrap().unwrap();
    assert!(q25 <= 10, "q25 {q25} should be in the low cluster");
    let q90 = h.quantile(0.9).unwrap().unwrap();
    assert!(q90 >= 1_000_000, "q90 {q90} should be in the high cluster");
}

#[test]
fn query_costs_match_lemma7_shape() {
    // Query disk reads should be logarithmic-ish, not linear in data size.
    let cfg = HsqConfig::builder()
        .epsilon(0.01)
        .merge_threshold(10)
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(512), cfg);
    let mut driver = TimeStepDriver::new(Dataset::Normal, 5, 4_000, 26);
    for _ in 0..25 {
        h.ingest_step(&driver.next().unwrap()).unwrap();
    }
    for v in driver.next().unwrap() {
        h.stream_update(v);
    }
    // 100k historical items = ~1563 blocks (64 items/block at 512B).
    let n_blocks = 100_000 / 64;
    let out = h.rank_query(h.total_len() / 2).unwrap().unwrap();
    assert!(
        out.io.total_reads() < n_blocks / 4,
        "query read {} blocks of {n_blocks} — not sublinear",
        out.io.total_reads()
    );
    assert!(
        out.io.total_reads() > 0,
        "non-trivial query must touch disk"
    );
}

#[test]
fn update_costs_match_lemma6_shape() {
    // Amortized update I/O per step ~ (blocks per batch) * (1 + merge
    // levels); it must stay far below rewriting the whole warehouse each
    // step (the strawman's cost).
    let cfg = HsqConfig::builder()
        .epsilon(0.05)
        .merge_threshold(4)
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(512), cfg);
    let step_items = 6_400u64; // 100 blocks per batch
    let steps = 32u64;
    let mut total_io = 0u64;
    let mut driver = TimeStepDriver::new(Dataset::Uniform, 9, step_items as usize, steps as usize);
    for batch in driver.by_ref() {
        total_io += h.ingest_step(&batch).unwrap().total_accesses();
    }
    let per_step = total_io / steps;
    let batch_blocks = 100u64;
    // log_4(32) = 2.5 merge levels; each level costs ~2x batch blocks
    // (read+write) amortized. Generous cap: 12x the batch write cost.
    assert!(
        per_step < batch_blocks * 12,
        "amortized {per_step} blocks/step exceeds Lemma 6 regime"
    );
    // And it must exceed the bare batch write (sorting is not free).
    assert!(
        per_step >= batch_blocks,
        "amortized {per_step} below write floor"
    );
}

/// Draws one value of a shape.
type Gen = fn(&mut StdRng) -> u64;

/// The two heavy-duplicate shapes behind GK's weighted-path regression:
/// a log-uniform head `⌊2^(20u)⌋` (value 1 holds ~5 % of the mass,
/// value 2 ~3 %, …) and a 20-value domain.
const HEAVY_SHAPES: [(&str, Gen); 2] = [
    ("log-uniform head", |rng| {
        2f64.powf(20.0 * rng.gen::<f64>()) as u64
    }),
    ("20 values", |rng| rng.gen::<u64>() % 20),
];

/// Theorem 2 on heavy duplicates, both backends, both live-ingest paths:
/// four archived steps, then a live step of 16 × 4,096 items fed once
/// through `stream_extend_weighted` (weight 1) and once through
/// `stream_extend`. Every one of 500 uniform ranks must land within
/// `query_epsilon · m` of the answer's occupied ranks in a sorted copy.
/// One thread per shape.
#[test]
fn heavy_duplicates_meet_theorem2_on_both_ingest_paths() {
    let failures: Vec<String> = std::thread::scope(|s| {
        let shapes: Vec<_> = HEAVY_SHAPES
            .into_iter()
            .map(|(shape, gen)| s.spawn(move || heavy_shape_failures(shape, gen)))
            .collect();
        shapes.into_iter().flat_map(|t| t.join().unwrap()).collect()
    });
    assert!(failures.is_empty(), "Theorem 2 broken: {failures:#?}");
}

/// One shape of [`heavy_duplicates_meet_theorem2_on_both_ingest_paths`]
/// under every backend and ingest path, seeds 1–10: a line per
/// combination with seeds over `ε·m`.
fn heavy_shape_failures(shape: &str, gen: Gen) -> Vec<String> {
    const BATCH: usize = 4_096;
    let mut failures = Vec::new();
    for kind in [SketchKind::Gk, SketchKind::Kll] {
        for weighted in [true, false] {
            let label = format!("{shape}/{kind}/weighted={weighted}");
            let (mut worst, mut failed) = (0f64, 0);
            for seed in 1..=10u64 {
                let cfg = HsqConfig::builder()
                    .epsilon(0.01)
                    .merge_threshold(4)
                    .sketch(kind)
                    .build();
                let eps = cfg.query_epsilon();
                let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(4096), cfg);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut all: Vec<u64> = Vec::new();
                for _ in 0..4 {
                    let step: Vec<u64> = (0..BATCH).map(|_| gen(&mut rng)).collect();
                    all.extend(&step);
                    h.ingest_step(&step).unwrap();
                }
                for _ in 0..16 {
                    let batch: Vec<u64> = (0..BATCH).map(|_| gen(&mut rng)).collect();
                    all.extend(&batch);
                    if weighted {
                        let pairs: Vec<(u64, u64)> = batch.iter().map(|&v| (v, 1)).collect();
                        h.stream_extend_weighted(&pairs);
                    } else {
                        h.stream_extend(&batch);
                    }
                }
                all.sort_unstable();
                let n = all.len() as u64;
                let eps_m = eps * h.stream_len() as f64;
                let mut ranks = StdRng::seed_from_u64(seed ^ 0xA5A5);
                let mut seed_worst = 0u64;
                for _ in 0..500 {
                    let r = ranks.gen_range(1..=n);
                    let v = h.rank_query(r).unwrap().unwrap().value;
                    let lo = all.partition_point(|&x| x < v) as u64 + 1;
                    let hi = all.partition_point(|&x| x <= v) as u64;
                    seed_worst = seed_worst.max(if r < lo { lo - r } else { r.saturating_sub(hi) });
                }
                worst = worst.max(seed_worst as f64 / eps_m);
                failed += usize::from(seed_worst as f64 > eps_m);
            }
            println!("{label}: worst {worst:.3} eps*m, {failed}/10 seeds over");
            if failed > 0 {
                failures.push(format!(
                    "{label}: {failed}/10 seeds over eps*m, worst {worst:.3}"
                ));
            }
        }
    }
    failures
}
