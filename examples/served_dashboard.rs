//! A networked quantile dashboard: two serving nodes, three tenants,
//! one coordinator-driven fan-in.
//!
//! The ROADMAP's north star is a fleet serving heavy traffic; this
//! example stands up the smallest real version of it, all on loopback:
//!
//! 1. **Two nodes** — each a [`hsq::service::QuantileServer`] hosting a
//!    2-shard engine over its own slice of the traffic (no shared
//!    state, plain `TcpListener`, no async runtime);
//! 2. **A coordinator** — ingests over the wire, then answers
//!    union-wide p50/p95/p99 by the same value-space bisection the
//!    in-process engine runs, each probe batched to both nodes in one
//!    round-trip;
//! 3. **Per-tenant sessions** — each tenant pins a snapshot epoch on
//!    every node and fetches the nodes' summary extracts once, so its
//!    dashboard queries settle in a handful of probe rounds (printed per
//!    query below), and a dashboard refresh on the same epoch sends none:
//!    the session remembers every probe it has already paid for.
//!
//! Run with: `cargo run --release --example served_dashboard`

use std::net::TcpListener;

use hsq::core::{HsqConfig, ShardedEngine};
use hsq::service::{Coordinator, QuantileServer, ServerHandle};
use hsq::storage::MemDevice;

const NODES: usize = 2;
const SHARDS_PER_NODE: usize = 2;
const HOURS: u64 = 4;
const REQUESTS_PER_HOUR: usize = 30_000;
const TENANTS: [u64; 3] = [101, 202, 303];
const PHIS: [f64; 3] = [0.5, 0.95, 0.99];

/// One request latency in microseconds (deterministic, heavy-tailed).
fn latency_us(i: u64) -> u64 {
    let mut x = i
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 32;
    let base = 5_000 + x % 45_000;
    let tail = if x.is_multiple_of(97) {
        (x >> 7) % 400_000
    } else {
        0
    };
    base + tail
}

fn spawn_node() -> ServerHandle {
    let config = HsqConfig::builder()
        .epsilon(0.005)
        .merge_threshold(4)
        .build();
    let engine =
        ShardedEngine::<u64, _>::with_shards(SHARDS_PER_NODE, config, |_| MemDevice::new(8192));
    QuantileServer::new(engine)
        .spawn(TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .expect("spawn server")
}

fn main() {
    // Stand the fleet up.
    let nodes: Vec<ServerHandle> = (0..NODES).map(|_| spawn_node()).collect();
    let addrs: Vec<_> = nodes.iter().map(|n| n.addr()).collect();
    println!(
        "fleet up: {NODES} nodes x {SHARDS_PER_NODE} shards at {:?}\n",
        addrs
    );
    let mut coord = Coordinator::<u64>::connect(&addrs).expect("connect fleet");

    // Ingest over the wire: every "hour", traffic is split between the
    // nodes (by request parity — any disjoint split works; ranks add),
    // then archived fleet-wide.
    for hour in 0..HOURS {
        let mut parts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); NODES];
        for i in 0..REQUESTS_PER_HOUR as u64 {
            let v = latency_us(hour << 32 | i);
            parts[(i % NODES as u64) as usize].push((v, 1));
        }
        for (node, part) in parts.iter().enumerate() {
            coord.ingest(node, part).expect("ingest");
        }
        if hour + 1 < HOURS {
            coord.end_step().expect("end step");
            println!("hour {hour}: archived {REQUESTS_PER_HOUR} samples across the fleet");
        } else {
            println!("hour {hour}: {REQUESTS_PER_HOUR} samples still streaming");
        }
    }

    // Three tenant dashboards, each with its own pinned session. The
    // first query fetches the summary extracts; the rest are pure probe
    // rounds.
    for &tenant in &TENANTS {
        let mut session = coord.session(tenant).expect("open session");
        println!(
            "\n[tenant {tenant}] session over N = {} (stream weight m = {})",
            session.total_len(),
            session.stream_len()
        );
        let mut first = Vec::new();
        for phi in PHIS {
            let served = session.quantile(phi).expect("quantile").expect("non-empty");
            println!(
                "  p{:<4} = {:>7} us   ({} probe rounds, {} round trips, \
                 rank within [{}, {}])",
                phi * 100.0,
                served.outcome.value,
                served.probe_rounds,
                served.round_trips,
                served.outcome.rank_lo,
                served.outcome.rank_hi,
            );
            first.push(served.outcome);
        }
        // The dashboard refreshes: same φs, same pinned epoch. Every probe
        // is answered from the session's memo, so nothing goes on the wire.
        for (phi, want) in PHIS.into_iter().zip(&first) {
            let served = session.quantile(phi).expect("quantile").expect("non-empty");
            assert_eq!(&served.outcome, want, "repeated p{} changed", phi * 100.0);
            assert_eq!(
                served.probe_rounds,
                0,
                "repeated p{} sent probes",
                phi * 100.0
            );
            assert_eq!(served.round_trips, 0);
        }
        println!("  refresh of p50/p95/p99: 0 probe rounds (remembered probes)");
        let quick = session
            .quantile_quick(0.99)
            .expect("quick")
            .expect("non-empty");
        println!("  p99 quick = {quick:>5} us   (0 probe rounds — local summary)");
    }

    // Windowed view: the newest archived hour plus the live stream.
    let mut session = coord.session(TENANTS[0]).expect("reopen session");
    if let Some(served) = session.quantile_in_window(1, 0.95).expect("window query") {
        println!(
            "\n[tenant {}] windowed p95 (newest step + live stream) = {} us \
             ({} probe rounds)",
            TENANTS[0], served.outcome.value, served.probe_rounds
        );
    }

    for n in nodes {
        n.shutdown();
    }
    println!("\nfleet drained and shut down cleanly");
}
