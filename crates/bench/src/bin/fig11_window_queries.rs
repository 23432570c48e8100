//! Figure 11 (a–b): query cost vs window size, Normal dataset, κ ∈ {3, 10}.
//!
//! Expected shape: the attainable window sizes are the suffix sums of the
//! partition layout (richer for larger κ); query cost grows with window
//! size (more data within the window).
//!
//! Run: `cargo run --release -p hsq-bench --bin fig11_window_queries [--full]`

use std::time::Instant;

use hsq_bench::*;
use hsq_workload::Dataset;

fn main() {
    let mut scale = Scale::from_args();
    scale.steps = scale.steps.max(100); // the paper's T = 100
    figure_header(
        "Figure 11: Query cost vs window size, Normal, kappa in {3, 10}",
        "T = 100 steps, memory 250 MB; windows aligned to partitions",
        &format!("T = {} steps x {} items", scale.steps, scale.step_items),
    );

    for kappa in [3usize, 10] {
        let mut engine = engine_for_budget(scale.memory_fixed, kappa, &scale);
        ingest(
            &mut engine,
            Dataset::Normal,
            29,
            scale.steps,
            scale.step_items,
            scale.step_items,
            false,
        );
        let windows = engine.available_windows();
        println!(
            "\nkappa = {kappa}: {} attainable window sizes: {windows:?}",
            windows.len()
        );
        println!(
            "{:>8} | {:>12} | {:>12} | {:>14}",
            "window", "query us", "disk reads", "window items"
        );
        println!("{}", "-".repeat(56));
        for &w in &windows {
            let t = Instant::now();
            let out = engine
                .rank_in_window(
                    w,
                    (0.5 * (w as f64 * scale.step_items as f64 + scale.step_items as f64)) as u64,
                )
                .unwrap()
                .expect("aligned window must answer");
            let us = t.elapsed().as_secs_f64() * 1e6;
            println!(
                "{:>8} | {:>12.1} | {:>12} | {:>14}",
                w,
                us,
                out.io.total_reads(),
                w * scale.step_items as u64 + scale.step_items as u64,
            );
        }
        println!("csv,fig11,kappa{kappa},window_steps,query_us,disk_reads");
    }
    println!(
        "\nShape check (paper): kappa = 10 offers many more window sizes than\n\
         kappa = 3; disk accesses increase with the window size."
    );
}
