//! Property harness for weighted ingestion.
//!
//! The weighted contract under test: feeding `(item, w)` pairs through
//! the weighted ingestion paths is equivalent to feeding `w` replicated
//! copies through the unweighted paths — same `m` (now the summed
//! weight `W`), same archived bytes, and quantile answers within the
//! Theorem 2 `ε·W` bound of exact-over-replicated — for the single
//! engine, sharded engines at 1/2/8 shards, and windowed queries.

use hsq_core::{HistStreamQuantiles, HsqConfig, ShardedEngine, SketchKind};
use hsq_sketch::AnySketch;
use hsq_storage::MemDevice;

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    }
}

/// Deterministic `(value, weight)` pairs with weights in `1..=max_w`.
fn gen_pairs(seed: u64, len: usize, max_w: u64) -> Vec<(u64, u64)> {
    let mut gen = lcg(seed);
    (0..len)
        .map(|_| {
            let v = gen() % 1_000_000;
            let w = gen() % max_w + 1;
            (v, w)
        })
        .collect()
}

fn replicate(pairs: &[(u64, u64)]) -> Vec<u64> {
    let mut out = Vec::new();
    for &(v, w) in pairs {
        out.extend(std::iter::repeat_n(v, w as usize));
    }
    out
}

/// Rank distance from target `r` to the rank interval of `v` in `sorted`
/// (zero when `v`'s occupied interval covers `r`).
fn rank_distance(sorted: &[u64], v: u64, r: u64) -> u64 {
    let hi = sorted.partition_point(|&x| x <= v) as u64;
    let lo = sorted.partition_point(|&x| x < v) as u64 + 1;
    if lo > hi {
        return r.abs_diff(hi);
    }
    if r < lo {
        lo - r
    } else {
        r.saturating_sub(hi)
    }
}

fn config(eps: f64, kind: SketchKind) -> HsqConfig {
    HsqConfig::builder()
        .epsilon(eps)
        .merge_threshold(3)
        .sketch(kind)
        .build()
}

fn assert_within(sorted: &[u64], v: u64, phi: f64, allowed: u64, label: &str) {
    let n = sorted.len() as u64;
    let r = ((phi * n as f64).ceil() as u64).clamp(1, n);
    let dist = rank_distance(sorted, v, r);
    assert!(
        dist <= allowed,
        "{label} phi={phi}: value {v} off by {dist} ranks (allowed {allowed})"
    );
}

/// Single engine: weighted ingest across archived steps and a live
/// stream answers within `ε·W` of exact over the replicated expansion,
/// under both backends.
#[test]
fn weighted_engine_matches_replicated_both_backends() {
    let eps = 0.05;
    for kind in [SketchKind::Gk, SketchKind::Kll] {
        let mut w_eng = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), config(eps, kind));
        let mut r_eng = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), config(eps, kind));
        let mut all: Vec<u64> = Vec::new();
        for step in 0..3u64 {
            let pairs = gen_pairs(step * 31 + 1, 400, 6);
            let expanded = replicate(&pairs);
            w_eng.stream_extend_weighted(&pairs);
            r_eng.stream_extend(&expanded);
            all.extend(&expanded);
            w_eng.end_time_step().unwrap();
            r_eng.end_time_step().unwrap();
        }
        // Live stream: batch then scalar weighted updates.
        let live = gen_pairs(777, 500, 6);
        w_eng.stream_extend_weighted(&live[..300]);
        for &(v, w) in &live[300..] {
            w_eng.stream_update_weighted(v, w);
        }
        let live_expanded = replicate(&live);
        r_eng.stream_extend(&live_expanded);
        all.extend(&live_expanded);

        let big_w: u64 = live.iter().map(|&(_, w)| w).sum();
        assert_eq!(w_eng.stream_len(), big_w, "{kind}: m must be summed weight");
        assert_eq!(w_eng.total_len(), r_eng.total_len(), "{kind}");
        all.sort_unstable();
        let allowed = (eps * big_w as f64).ceil() as u64 + 1;
        for phi_pct in [1u32, 10, 50, 90, 100] {
            let phi = phi_pct as f64 / 100.0;
            let v = w_eng.quantile(phi).unwrap().unwrap();
            assert_within(&all, v, phi, allowed, &format!("{kind}/weighted"));
        }
    }
}

/// Sharded engines at 1, 2 and 8 shards keep the `ε·W` bound under
/// weighted ingestion, and weighted routing agrees with unweighted
/// (the shard hash ignores the weight).
#[test]
fn weighted_sharded_matches_replicated() {
    let eps = 0.1;
    for kind in [SketchKind::Gk, SketchKind::Kll] {
        let pairs = gen_pairs(0x5EED ^ kind as u64, 1500, 5);
        let mut all = replicate(&pairs);
        let big_w = all.len() as u64;
        all.sort_unstable();
        let allowed = (eps * big_w as f64).ceil() as u64 + 1;
        for shards in [1usize, 2, 8] {
            let mut e = ShardedEngine::<u64, _>::with_shards(shards, config(eps, kind), |_| {
                MemDevice::new(256)
            });
            e.stream_extend_weighted(&pairs);
            assert_eq!(e.stream_len(), big_w, "{kind}/shards={shards}");
            for phi_pct in [5u32, 50, 95] {
                let phi = phi_pct as f64 / 100.0;
                let v = e.quantile(phi).unwrap().unwrap();
                assert_within(
                    &all,
                    v,
                    phi,
                    allowed,
                    &format!("{kind}/shards={shards}/weighted"),
                );
            }
        }
    }
}

/// Windowed queries over weighted-ingested steps answer within `ε·W` of
/// exact over the replicated window contents.
#[test]
fn weighted_windowed_matches_replicated() {
    let eps = 0.1;
    for kind in [SketchKind::Gk, SketchKind::Kll] {
        let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), config(eps, kind));
        let mut step_data: Vec<Vec<u64>> = Vec::new();
        for step in 0..5u64 {
            let pairs = gen_pairs(step * 7 + 3, 200, 4);
            h.stream_extend_weighted(&pairs);
            h.end_time_step().unwrap();
            step_data.push(replicate(&pairs));
        }
        let live = gen_pairs(999, 250, 4);
        h.stream_extend_weighted(&live);
        let live_expanded = replicate(&live);
        let m = live_expanded.len() as u64;
        let allowed = (eps * m as f64).ceil() as u64 + 1;
        for w in h.available_windows() {
            let mut win: Vec<u64> = step_data[step_data.len() - w as usize..]
                .iter()
                .flatten()
                .copied()
                .collect();
            win.extend(&live_expanded);
            win.sort_unstable();
            for phi_pct in [10u32, 50, 90] {
                let phi = phi_pct as f64 / 100.0;
                let v = h.quantile_in_window(w, phi).unwrap().unwrap();
                assert_within(&win, v, phi, allowed, &format!("{kind}/window={w}"));
            }
        }
    }
}

/// The heavy-duplicate shapes GK's weighted merge once broke its
/// invariant on: a log-uniform head `⌊2^(20u)⌋` and a 20-value domain.
fn heavy_values(shape: u8, seed: u64, len: usize) -> Vec<u64> {
    let mut gen = lcg(seed);
    (0..len)
        .map(|_| match shape {
            0 => 2f64.powf(20.0 * (gen() as f64 / (1u64 << 31) as f64)) as u64,
            _ => gen() % 20,
        })
        .collect()
}

/// Every engine entry point of the live step keeps GK's invariant
/// `g + Δ ≤ ⌊2εm⌋` after every batch of 4,096 items on heavy heads
/// (the sketch runs at ε₂/2 = 0.00125 for ε = 0.01), and the step's
/// answers stay within `ε·m` of exact.
#[test]
fn heavy_heads_keep_the_gk_invariant_on_every_entry_point() {
    type Feed = fn(&mut HistStreamQuantiles<u64, MemDevice>, &[u64]);
    let feeds: [(&str, Feed); 4] = [
        ("stream_extend_weighted", |h, b| {
            h.stream_extend_weighted(&b.iter().map(|&v| (v, 1)).collect::<Vec<_>>())
        }),
        ("stream_update_weighted", |h, b| {
            b.iter().for_each(|&v| h.stream_update_weighted(v, 1))
        }),
        ("stream_extend", |h, b| h.stream_extend(b)),
        ("stream_update", |h, b| {
            b.iter().for_each(|&v| h.stream_update(v))
        }),
    ];
    for shape in 0..2u8 {
        let values = heavy_values(shape, 11 + shape as u64, 4 * 4_096);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (name, feed) in feeds {
            let mut h = HistStreamQuantiles::<u64, _>::new(
                MemDevice::new(4096),
                config(0.01, SketchKind::Gk),
            );
            for (i, batch) in values.chunks(4_096).enumerate() {
                feed(&mut h, batch);
                let AnySketch::Gk(gk) = h.stream().sketch() else {
                    panic!("the configured backend is GK");
                };
                if let Err(e) = gk.check_invariants() {
                    panic!("shape {shape}/{name}: batch {i}: {e}");
                }
            }
            let allowed = (h.config().query_epsilon() * h.stream_len() as f64) as u64;
            for pct in 1..=50u32 {
                let phi = pct as f64 / 50.0;
                let v = h.quantile(phi).unwrap().unwrap();
                assert_within(&sorted, v, phi, allowed, &format!("shape {shape}/{name}"));
            }
        }
    }
}
