//! Web-service latency monitoring — the paper's §1 motivating workload.
//!
//! "The median latency is a measure of the 'typical' performance
//! experienced by users, and the 0.95-quantile and 0.99-quantile are used
//! to get a detailed insight on the performance that most users
//! experience."
//!
//! This example simulates two weeks of request latencies (log-normal with
//! a regime change on day 10), archives each day into the warehouse, and:
//!
//! 1. reports p50/p95/p99 over *all* data after every day;
//! 2. flags days whose recent-window median diverges from the all-time
//!    median — the integrated historical+streaming analysis that a DSMS
//!    alone cannot do;
//! 3. contrasts final accuracy with a pure-streaming GK sketch at equal
//!    memory, against an exact oracle.
//!
//! Run with: `cargo run --release --example web_latency`

use hsq::core::{HistStreamQuantiles, HsqConfig, PureStreaming, StreamingAlgo};
use hsq::sketch::ExactQuantiles;
use hsq::storage::MemDevice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One request latency in microseconds: log-normal (median ~20 ms), with
/// a 3x regression starting on `slow_from` day.
fn latency_us(rng: &mut StdRng, day: u64, slow_from: u64) -> u64 {
    let z = {
        // Box-Muller.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let base = ((20_000.0f64).ln() + 0.8 * z).exp();
    let factor = if day >= slow_from { 3.0 } else { 1.0 };
    (base * factor).round().max(1.0) as u64
}

fn main() {
    const REQUESTS_PER_DAY: usize = 30_000;
    const DAYS: u64 = 14;
    const SLOW_FROM: u64 = 10;

    let config = HsqConfig::builder()
        .epsilon(0.01)
        .merge_threshold(7)
        .build();
    let dev = MemDevice::new(4096);
    let mut hsq = HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), config);

    // Pure-streaming baseline with comparable memory, never reset.
    let mut baseline = PureStreaming::<u64, _>::with_memory(
        Arc::clone(&dev),
        StreamingAlgo::Gk,
        hsq.memory_words().max(2048),
        (DAYS as usize * REQUESTS_PER_DAY) as u64,
        7,
    );
    // Exact oracle for honest error reporting.
    let mut oracle = ExactQuantiles::new();
    let mut rng = StdRng::seed_from_u64(20161110);

    println!("day |       p50       p95       p99 | alert");
    println!("----+-------------------------------+------");
    for day in 0..DAYS {
        for _ in 0..REQUESTS_PER_DAY {
            let lat = latency_us(&mut rng, day, SLOW_FROM);
            hsq.stream_update(lat);
            baseline.insert(lat);
            oracle.insert(lat);
        }

        // Query over ALL data (history + today's live stream) before
        // archiving.
        let p50 = hsq.quantile(0.50).unwrap().unwrap();
        let p95 = hsq.quantile(0.95).unwrap().unwrap();
        let p99 = hsq.quantile(0.99).unwrap().unwrap();

        // Today (live stream only, window = 0 archived steps) versus the
        // all-time median: historical context for real-time alerting.
        let today_median = hsq.quantile_in_window(0, 0.5).unwrap().unwrap_or(p50);
        let alert = if today_median as f64 > 1.5 * p50 as f64 {
            "LATENCY REGRESSION vs history"
        } else {
            ""
        };
        println!("{day:>3} | {p50:>9} {p95:>9} {p99:>9} | {alert}");

        hsq.end_time_step().unwrap();
        baseline.end_time_step().unwrap();
    }

    println!("\nfinal accuracy vs exact oracle (N = {}):", oracle.len());
    for phi in [0.5, 0.95, 0.99] {
        let ours_quick = hsq.quantile_quick(phi).unwrap();
        let base = baseline.quantile(phi).unwrap();
        let err_quick = oracle.relative_error(phi, ours_quick);
        let err_base = oracle.relative_error(phi, base);
        let out = hsq
            .rank_query((phi * hsq.total_len() as f64).ceil() as u64)
            .unwrap()
            .unwrap();
        let err_acc = oracle.relative_error(phi, out.value);
        println!(
            "  phi={phi:4}: accurate {err_acc:.2e} ({} reads) | quick {err_quick:.2e} | pure-GK {err_base:.2e}",
            out.io.total_reads()
        );
    }
    println!(
        "\nmemory: hsq = {} words, pure-GK baseline = {} words",
        hsq.memory_words(),
        baseline.memory_words()
    );
}
