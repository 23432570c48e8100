//! Network monitoring over historical + live traffic — the paper's
//! intrusion-detection / network-measurement motivation (§1: "to
//! determine the skewness in the TCP round trip time", "network
//! monitoring for intrusion detection").
//!
//! Simulates an ISP link: each time step is an hour of flow records
//! (source–destination pairs from a Zipf host popularity model, packed
//! into u64 — the same substitute trace the benchmark suite uses). The
//! monitor:
//!
//! 1. archives each hour into the warehouse;
//! 2. answers quartile/extreme-tail queries over the whole trace;
//! 3. uses partition-aligned *window queries* to compare the most recent
//!    hours against the long-run distribution — a shift in the flow-pair
//!    quantiles indicates traffic redistribution (e.g. a scan or DDoS
//!    concentrating on one destination);
//! 4. lists the top talkers — flow pairs frequent across the archived
//!    hours *and* the hour still streaming in.
//!
//! Run with: `cargo run --release --example network_monitor`

use hsq::core::{HistStreamQuantiles, HsqConfig};
use hsq::storage::MemDevice;
use hsq::workload::{DataGen, NetTraceGen};

fn main() {
    const FLOWS_PER_HOUR: usize = 25_000;
    const HOURS: u64 = 15; // the paper's trace covers ~15 hours

    let config = HsqConfig::builder()
        .epsilon(0.005)
        .merge_threshold(5)
        .build();
    let mut hsq = HistStreamQuantiles::<u64, _>::new(MemDevice::new(8192), config);

    let mut normal_traffic = NetTraceGen::new(42);
    // "Attack" traffic: a much more concentrated host distribution.
    let mut attack_traffic = NetTraceGen::with_params(7, 64, 2.0);

    println!("hour | q1(flow key)        median              q3                  | note");
    println!("-----+--------------------------------------------------------------+------");
    for hour in 0..HOURS {
        let attack = hour >= 12; // the last three hours carry attack traffic
        for _ in 0..FLOWS_PER_HOUR {
            let flow = if attack && normal_traffic.next_value().is_multiple_of(4) {
                attack_traffic.next_value()
            } else {
                normal_traffic.next_value()
            };
            hsq.stream_update(flow);
        }

        let q1 = hsq.quantile(0.25).unwrap().unwrap();
        let med = hsq.quantile(0.5).unwrap().unwrap();
        let q3 = hsq.quantile(0.75).unwrap().unwrap();

        // Current hour (live stream, 0 archived steps) vs all-time median:
        // key-space displacement signals concentration shifts.
        let hour_med = hsq.quantile_in_window(0, 0.5).unwrap().unwrap_or(med);
        let displacement = (hour_med.abs_diff(med)) as f64 / u64::MAX as f64;
        let note = if displacement > 0.02 {
            "TRAFFIC SHIFT (possible scan/ddos)"
        } else {
            ""
        };
        println!("{hour:>4} | {q1:>19} {med:>19} {q3:>19} | {note}");

        if hour + 1 < HOURS {
            hsq.end_time_step().unwrap();
        }
    }

    // Top talkers while the last hour is still live — the other primitive
    // the paper's intro calls for: flow pairs with at least 0.1% of all
    // traffic, counted exactly in the archived hours and the live one.
    let hitters = hsq.heavy_hitters(0.001).unwrap();
    println!("\ntop talkers (>= 0.1% of {} flows):", hsq.total_len());
    for h in hitters.iter().take(5) {
        println!(
            "  flow {:>20}: {:>6} archived + {:>5} streaming",
            h.value, h.hist_count, h.stream_count
        );
    }
    assert!(
        hitters.iter().any(|h| h.stream_count > 0),
        "the Zipf trace must have top talkers in the live hour"
    );
    hsq.end_time_step().unwrap();

    // Interquartile skewness of the full trace (the paper's RTT-skewness
    // use case, transplanted to flow keys).
    let q1 = hsq.quantile(0.25).unwrap().unwrap() as f64;
    let med = hsq.quantile(0.5).unwrap().unwrap() as f64;
    let q3 = hsq.quantile(0.75).unwrap().unwrap() as f64;
    let bowley_skew = ((q3 - med) - (med - q1)) / (q3 - q1);
    println!("\nfull-trace Bowley skewness of flow keys: {bowley_skew:.4}");

    // Windowed drill-down: how far back can we compare?
    println!(
        "window sizes available for drill-down: {:?}",
        hsq.available_windows()
    );
    for w in hsq.available_windows() {
        let wm = hsq.quantile_in_window(w, 0.5).unwrap().unwrap();
        println!("  median over last {w:>2} archived hour(s): {wm:>20}");
    }
    println!(
        "\nwarehouse: {} flows across {} partitions, {} words of summary memory",
        hsq.historical_len(),
        hsq.warehouse().num_partitions(),
        hsq.memory_words()
    );
}
