//! Quickstart: the one-minute tour of `hsq`.
//!
//! Builds a small warehouse over a few "days" of data, keeps a live
//! stream, and answers quantile queries over the union — the setup of the
//! paper's Figure 1.
//!
//! Run with: `cargo run --release --example quickstart`

use hsq::core::{HistStreamQuantiles, HsqConfig};
use hsq::storage::MemDevice;

fn main() {
    // epsilon = 0.01: every accurate quantile query is answered within
    // rank error 0.01 * m, where m is the size of the *current stream* —
    // not of the whole dataset. kappa = 4: at most 4 partitions per level.
    let config = HsqConfig::builder()
        .epsilon(0.01)
        .merge_threshold(4)
        .build();

    // Any BlockDevice works; MemDevice counts I/O without touching disk.
    // Swap in `FileDevice::new_temp(4096)` to run against real files.
    let dev = MemDevice::new(4096);
    let mut hsq = HistStreamQuantiles::<u64, _>::new(dev, config);

    // Five archived days, 20k values each.
    for day in 0..5u64 {
        for i in 0..20_000u64 {
            hsq.stream_update(pseudo_value(day * 20_000 + i));
        }
        let report = hsq.end_time_step().expect("archival failed");
        println!(
            "day {day}: archived 20000 values | load {} blk, sort {} blk, merge {} blk ({} level merges)",
            report.load_io.writes,
            report.sort_io.total_accesses(),
            report.merge_io.total_accesses(),
            report.merges,
        );
    }

    // Day 6 is still streaming.
    for i in 0..10_000u64 {
        hsq.stream_update(pseudo_value(100_000 + i));
    }

    println!(
        "\nstate: n = {} historical + m = {} streaming = N = {}",
        hsq.historical_len(),
        hsq.stream_len(),
        hsq.total_len()
    );
    println!(
        "memory: {} words across {} partitions + GK sketch\n",
        hsq.memory_words(),
        hsq.warehouse().num_partitions()
    );

    // Accurate queries (error <= eps * m = 100 ranks).
    for phi in [0.25, 0.5, 0.75, 0.95, 0.99] {
        let exact = hsq.quantile(phi).unwrap().unwrap();
        let quick = hsq.quantile_quick(phi).unwrap();
        println!("phi = {phi:4}: accurate = {exact:>12}  quick = {quick:>12}");
    }

    // Rank query with cost accounting.
    let out = hsq.rank_query(hsq.total_len() / 2).unwrap().unwrap();
    println!(
        "\nmedian by rank: {} ({} random reads, {} bisection steps)",
        out.value, out.io.rand_reads, out.bisection_steps
    );

    // Windowed queries over recent time steps.
    println!(
        "\navailable windows (archived steps): {:?}",
        hsq.available_windows()
    );
    for w in hsq.available_windows() {
        if let Some(med) = hsq.quantile_in_window(w, 0.5).unwrap() {
            println!("  median over last {w} archived day(s) + live stream: {med}");
        }
    }
}

/// Deterministic pseudo-random values (keeps the example reproducible).
fn pseudo_value(i: u64) -> u64 {
    let mut x = i
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x1234_5678);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x ^ (x >> 29)) % 1_000_000
}
