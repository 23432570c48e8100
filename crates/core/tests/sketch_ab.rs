//! A/B property harness for the pluggable sketch layer: the GK and KLL
//! backends are driven against [`hsq_sketch::ExactQuantiles`] over
//! deterministic pseudo-random streams, across batch sizes, shard
//! counts, windowed queries, and persist/recover round-trips of both
//! sketch serializations. Every configuration must meet the same
//! Theorem 2 `ε·m` union guarantee — backend choice may change the
//! constants, never the contract.

use std::sync::Arc;

use hsq_core::{HistStreamQuantiles, HsqConfig, ShardedEngine, SketchKind};
use hsq_sketch::ExactQuantiles;
use hsq_storage::MemDevice;

const KINDS: [SketchKind; 2] = [SketchKind::Gk, SketchKind::Kll];

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    }
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

/// Assert `engine`'s answers bracket the exact ranks within `ε·m` at a
/// sweep of quantile fractions.
fn assert_union_bound(
    h: &HistStreamQuantiles<u64, MemDevice>,
    all_sorted: &[u64],
    eps: f64,
    m: u64,
    label: &str,
) {
    let n = all_sorted.len() as u64;
    let allowed = (eps * m as f64).ceil() as u64 + 1;
    for phi_pct in [1u32, 10, 25, 50, 75, 90, 99, 100] {
        let phi = phi_pct as f64 / 100.0;
        let r = ((phi * n as f64).ceil() as u64).clamp(1, n);
        let v = h.quantile(phi).unwrap().unwrap();
        let dist = rank_distance(all_sorted, v, r);
        assert!(
            dist <= allowed,
            "{label} phi={phi}: value {v} off by {dist} ranks (allowed {allowed}, m={m})"
        );
    }
}

/// Both backends meet the union guarantee for scalar updates and every
/// batch size the radix ingest path distinguishes (tiny, sub-radix,
/// block-ish, above `RADIX_MIN_LEN`).
#[test]
fn both_backends_meet_union_bound_across_batch_sizes() {
    let eps = 0.05;
    for kind in KINDS {
        for batch in [1usize, 7, 64, 513] {
            let mut gen = lcg(0xA5A5 + batch as u64);
            let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), config(eps, kind));
            let mut all: Vec<u64> = Vec::new();
            for _ in 0..4 {
                let step: Vec<u64> = (0..700).map(|_| gen() % 1_000_000).collect();
                all.extend(&step);
                h.ingest_step(&step).unwrap();
            }
            let stream: Vec<u64> = (0..1_100).map(|_| gen() % 1_000_000).collect();
            for c in stream.chunks(batch) {
                if batch == 1 {
                    h.stream_update(c[0]);
                } else {
                    h.stream_extend(c);
                }
            }
            all.extend(&stream);
            all.sort_unstable();
            assert_eq!(h.stream().sketch().kind(), kind);
            assert_union_bound(
                &h,
                &all,
                eps,
                stream.len() as u64,
                &format!("{kind}/batch={batch}"),
            );
        }
    }
}

/// Sharded engines under either backend stay within `ε·m` of exact for
/// shard counts {1, 2, 8} — the cross-shard merge must not lose the
/// per-shard sketch bounds.
#[test]
fn both_backends_meet_union_bound_sharded() {
    let eps = 0.1;
    for kind in KINDS {
        let mut gen = lcg(0xBEEF);
        let batches: Vec<Vec<u64>> = (0..3)
            .map(|_| (0..500).map(|_| gen() % 1_000_000).collect())
            .collect();
        let stream: Vec<u64> = (0..900).map(|_| gen() % 1_000_000).collect();
        let mut all: Vec<u64> = batches.iter().flatten().copied().collect();
        all.extend(&stream);
        all.sort_unstable();
        let n = all.len() as u64;
        let m = stream.len() as u64;
        let allowed = (eps * m as f64).ceil() as u64 + 1;
        for shards in [1usize, 2, 8] {
            let mut e = ShardedEngine::<u64, _>::with_shards(shards, config(eps, kind), |_| {
                MemDevice::new(256)
            });
            for b in &batches {
                e.ingest_step(b).unwrap();
            }
            e.stream_extend(&stream);
            assert_eq!(e.total_len(), n);
            for phi_pct in [5u32, 50, 95] {
                let phi = phi_pct as f64 / 100.0;
                let r = ((phi * n as f64).ceil() as u64).clamp(1, n);
                let v = e.quantile(phi).unwrap().unwrap();
                let dist = rank_distance(&all, v, r);
                assert!(
                    dist <= allowed,
                    "{kind}/shards={shards} phi={phi}: off by {dist} > {allowed}"
                );
            }
        }
    }
}

/// Windowed queries (live stream + last `w` archived steps) meet the
/// same bound under either backend.
#[test]
fn both_backends_meet_union_bound_windowed() {
    let eps = 0.1;
    for kind in KINDS {
        let mut gen = lcg(0xD1CE);
        let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), config(eps, kind));
        let steps: Vec<Vec<u64>> = (0..5)
            .map(|_| (0..300).map(|_| gen() % 100_000).collect())
            .collect();
        for s in &steps {
            h.ingest_step(s).unwrap();
        }
        let stream: Vec<u64> = (0..400).map(|_| gen() % 100_000).collect();
        h.stream_extend(&stream);
        let m = stream.len() as u64;
        let allowed = (eps * m as f64).ceil() as u64 + 1;
        for w in h.available_windows() {
            let mut win: Vec<u64> = steps[steps.len() - w as usize..]
                .iter()
                .flatten()
                .copied()
                .collect();
            win.extend(&stream);
            win.sort_unstable();
            let n = win.len() as u64;
            for phi_pct in [10u32, 50, 90] {
                let phi = phi_pct as f64 / 100.0;
                let r = ((phi * n as f64).ceil() as u64).clamp(1, n);
                let v = h.quantile_in_window(w, phi).unwrap().unwrap();
                let dist = rank_distance(&win, v, r);
                assert!(
                    dist <= allowed,
                    "{kind}/window={w} phi={phi}: off by {dist} > {allowed}"
                );
            }
        }
    }
}

/// Engine persist/recover round-trips both sketch serializations
/// mid-step: the recovered engine answers identically, keeps absorbing
/// the stream, and still meets the bound against exact.
#[test]
fn persist_recover_roundtrips_both_serializations() {
    let eps = 0.05;
    for kind in KINDS {
        let cfg = config(eps, kind);
        let mut gen = lcg(0xF00D ^ kind as u64);
        let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(512), cfg.clone());
        let mut exact = ExactQuantiles::<u64>::new();
        for _ in 0..3 {
            let step: Vec<u64> = (0..600).map(|_| gen() % 1_000_000).collect();
            exact.extend(step.iter().copied());
            h.ingest_step(&step).unwrap();
        }
        // Leave the stream mid-step so the manifest carries live sketch
        // state in `kind`'s serialization.
        let pre: Vec<u64> = (0..500).map(|_| gen() % 1_000_000).collect();
        exact.extend(pre.iter().copied());
        h.stream_extend(&pre);
        let manifest = h.persist().unwrap();
        let dev = Arc::clone(h.warehouse().device());

        let mut r = HistStreamQuantiles::<u64, _>::recover(dev, cfg, manifest).unwrap();
        assert_eq!(r.stream().sketch().kind(), kind);
        assert_eq!(r.total_len(), h.total_len());
        assert_eq!(r.stream_len(), h.stream_len());
        for phi_pct in [1u32, 25, 50, 75, 100] {
            let phi = phi_pct as f64 / 100.0;
            assert_eq!(
                r.quantile(phi).unwrap(),
                h.quantile(phi).unwrap(),
                "{kind}: recovered engine diverges at phi={phi}"
            );
        }
        // The recovered engine keeps streaming within bounds.
        let post: Vec<u64> = (0..500).map(|_| gen() % 1_000_000).collect();
        exact.extend(post.iter().copied());
        r.stream_extend(&post);
        let m = (pre.len() + post.len()) as u64;
        let n = exact.len();
        let allowed = (eps * m as f64).ceil() as u64 + 1;
        for phi_pct in [10u32, 50, 90] {
            let phi = phi_pct as f64 / 100.0;
            let v = r.quantile(phi).unwrap().unwrap();
            // relative_error is |closest rank of v - ceil(phi*n)| / (phi*n);
            // scale back to a rank distance to compare against eps*m.
            let dist = (exact.relative_error(phi, v) * phi * n as f64).round() as u64;
            assert!(
                dist <= allowed,
                "{kind}: post-recovery phi={phi} off by {dist} > {allowed}"
            );
        }
    }
}

/// State persisted under one backend recovers under a build configured
/// for the other: answers are preserved verbatim, and the configured
/// backend takes over at the next step boundary.
#[test]
fn cross_backend_recovery_preserves_answers() {
    let eps = 0.05;
    for (wrote, reopens) in [
        (SketchKind::Gk, SketchKind::Kll),
        (SketchKind::Kll, SketchKind::Gk),
    ] {
        let mut gen = lcg(0xCAFE);
        let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(512), config(eps, wrote));
        for _ in 0..2 {
            let step: Vec<u64> = (0..400).map(|_| gen() % 1_000_000).collect();
            h.ingest_step(&step).unwrap();
        }
        let stream: Vec<u64> = (0..300).map(|_| gen() % 1_000_000).collect();
        h.stream_extend(&stream);
        let manifest = h.persist().unwrap();
        let dev = Arc::clone(h.warehouse().device());

        let mut r =
            HistStreamQuantiles::<u64, _>::recover(dev, config(eps, reopens), manifest).unwrap();
        // The serialized sketch keeps its own kind until a step boundary.
        assert_eq!(r.stream().sketch().kind(), wrote);
        for phi_pct in [5u32, 50, 95] {
            let phi = phi_pct as f64 / 100.0;
            assert_eq!(r.quantile(phi).unwrap(), h.quantile(phi).unwrap());
        }
        r.end_time_step().unwrap();
        assert_eq!(r.stream().sketch().kind(), reopens);
    }
}
