//! CI bench-trend gate: diff a fresh `BENCH_headline.json` against the
//! committed baseline and fail on regressions.
//!
//! ```text
//! bench_trend <baseline.json> <fresh.json> [--threshold 0.25] [--timing-threshold 0.75]
//! ```
//!
//! Deterministic metrics (accuracy ratios, relative errors, disk reads,
//! memory words, probe counts) gate at `--threshold` (default 25%, the
//! repo's headline contract). The four CPU-cost metrics (`*ns_per_*`)
//! gate at `--timing-threshold` (default 75%) so a differently-sized CI
//! runner doesn't fail spuriously while real collapses still do. Any
//! baseline entry the fresh run lacks fails the gate too.
//!
//! Exit codes: 0 = pass, 1 = regression or missing metric, 2 =
//! usage/parse error.

use hsq_bench::trend::{compare, render_table, Json, Thresholds};

fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: bench_trend <baseline.json> <fresh.json> \
         [--threshold FRAC] [--timing-threshold FRAC]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_usage(&format!("cannot read {path}: {e}")));
    Json::parse(&raw).unwrap_or_else(|e| fail_usage(&format!("cannot parse {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut t = Thresholds::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                t.stable = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail_usage("--threshold needs a fraction"));
            }
            "--timing-threshold" => {
                i += 1;
                t.timing = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail_usage("--timing-threshold needs a fraction"));
            }
            other => files.push(other.to_string()),
        }
        i += 1;
    }
    let [baseline, fresh] = files.as_slice() else {
        fail_usage("expected exactly two files");
    };

    let report = compare(&load(baseline), &load(fresh), t);

    println!(
        "bench-trend: {} vs {} (stable gate {:.0}%, timing gate {:.0}%)\n",
        baseline,
        fresh,
        t.stable * 100.0,
        t.timing * 100.0
    );
    print!("{}", render_table(&report.deltas));

    if report.passed() {
        println!(
            "\nPASS: {} metrics compared, none missing, no regression beyond thresholds",
            report.deltas.len()
        );
        return;
    }
    let failed: Vec<_> = report.deltas.iter().filter(|d| d.failed).collect();
    println!(
        "\nFAIL: {} metric(s) regressed, {} missing:",
        failed.len(),
        report.missing.len()
    );
    for d in &failed {
        println!(
            "  {}: {:.6} -> {:.6} ({:+.1}%)",
            d.path,
            d.base,
            d.fresh,
            -d.regression * 100.0
        );
    }
    for m in &report.missing {
        println!("  {m}");
    }
    std::process::exit(1);
}
