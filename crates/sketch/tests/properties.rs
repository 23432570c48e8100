//! Property-based tests for the quantile sketches: the error guarantees
//! hold on *arbitrary* inputs, not just the unit tests' fixtures.

use hsq_sketch::{ExactQuantiles, GkSketch, KllSketch, QDigest, RankEstimate, ReservoirQuantiles};
use proptest::prelude::*;

fn exact_rank(data: &[u64], v: u64) -> u64 {
    data.iter().filter(|&&x| x <= v).count() as u64
}

/// The rank distance from `r` to the closest rank occupied by `v` in `data`
/// (0 if `v` covers rank `r`, accounting for duplicates).
fn rank_distance(data: &[u64], v: u64, r: u64) -> u64 {
    let hi = exact_rank(data, v);
    let lo = data.iter().filter(|&&x| x < v).count() as u64 + 1;
    if r < lo {
        lo - r
    } else {
        r.saturating_sub(hi)
    }
}

/// The per-target GK scan that `rank_queries`' one sweep replaced, kept
/// as its oracle: every target walks the tuple list from the first tuple
/// and answers the tuple before the first with `rmax > r + ⌊εn⌋`.
fn gk_scan(gk: &GkSketch<u64>, r: u64) -> Option<RankEstimate<u64>> {
    let n = gk.len();
    if n == 0 {
        return None;
    }
    let r = r.clamp(1, n);
    let slack = (gk.epsilon() * n as f64).floor() as u64;
    let mut rmin = 0u64;
    let mut prev = None;
    for (value, g, delta) in gk.tuple_parts() {
        rmin += g;
        let cur = RankEstimate {
            value,
            rmin,
            rmax: rmin + delta,
        };
        if cur.rmax > r + slack {
            return Some(prev.unwrap_or(cur));
        }
        prev = Some(cur);
    }
    prev
}

/// The per-target KLL lookup the forward cursor replaced, kept as its
/// oracle: compile the ladder into `(value, cumulative weight)` pairs,
/// binary-search each target for the first pair reaching it, and bound
/// the estimated rank of that value's copy nearest the target.
fn kll_scan(kll: &KllSketch<u64>, r: u64) -> Option<RankEstimate<u64>> {
    let n = kll.len();
    if n == 0 {
        return None;
    }
    let mut pairs: Vec<(u64, u64)> = kll
        .raw_levels()
        .iter()
        .enumerate()
        .flat_map(|(h, lvl)| lvl.iter().map(move |&v| (v, 1u64 << h)))
        .collect();
    pairs.sort_unstable_by_key(|p| p.0);
    let mut items: Vec<(u64, u64)> = Vec::new();
    let mut cum = 0u64;
    for (v, w) in pairs {
        cum += w;
        match items.last_mut() {
            Some(last) if last.0 == v => last.1 = cum,
            _ => items.push((v, cum)),
        }
    }
    let r = r.clamp(1, n);
    let idx = items.partition_point(|&(_, c)| c < r).min(items.len() - 1);
    let (value, c) = items[idx];
    let c_before = if idx == 0 { 0 } else { items[idx - 1].1 };
    let nearest = r.clamp(c_before + 1, c);
    let err = kll.tracked_err();
    Some(RankEstimate {
        value,
        rmin: nearest.saturating_sub(err).max(1),
        rmax: (nearest + err).min(n),
    })
}

/// Ascending rank targets for a sketch of `n` items: seeded draws over
/// `[0, n + 8]`, plus 0, `n`, `n + 1` and `u64::MAX`, with repeats.
fn ascending_targets(n: u64, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 11
    };
    let count = next() % 64;
    let mut ts: Vec<u64> = (0..count).map(|_| next() % (n + 9)).collect();
    ts.extend([0, 0, n, n, n + 1, u64::MAX]);
    let repeats: Vec<u64> = ts.iter().copied().step_by(3).collect();
    ts.extend(repeats);
    ts.sort_unstable();
    ts
}

/// One stream shape for the sweep oracles: 0 uniform, 1 duplicate-heavy
/// (8 distinct values), 2 weighted pairs. The `data` length range
/// reaches empty and `n < β₂` streams.
fn shaped_pairs(data: &[u64], shape: u8) -> Vec<(u64, u64)> {
    data.iter()
        .map(|&v| match shape {
            1 => (v % 8, 1),
            2 => (v % 1_000, v % 37 + 1),
            _ => (v, 1),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GK's one-sweep `rank_queries` answers every ascending target
    /// exactly like the per-target scan, on uniform, duplicate-heavy and
    /// weighted sketches, tiny and empty ones included; so does the
    /// one-target `rank_query`.
    #[test]
    fn gk_rank_queries_match_per_target_scan(
        data in proptest::collection::vec(any::<u64>(), 0..3000),
        shape in 0u8..3,
        eps_milli in 2u64..200,
        seed in any::<u64>(),
    ) {
        let eps = eps_milli as f64 / 1000.0;
        let pairs = shaped_pairs(&data, shape);
        let mut gk = GkSketch::new(eps);
        if shape == 2 {
            let mut batch = pairs.clone();
            for chunk in batch.chunks_mut(701) {
                gk.insert_weighted_batch(chunk);
            }
        } else {
            let mut values: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            for chunk in values.chunks_mut(701) {
                gk.insert_batch(chunk);
            }
        }
        let targets = ascending_targets(gk.len(), seed);
        let swept = gk.rank_queries(&targets);
        let scanned: Vec<_> = targets.iter().filter_map(|&r| gk_scan(&gk, r)).collect();
        prop_assert_eq!(&swept, &scanned, "shape {} n {}", shape, gk.len());
        for &r in targets.iter().step_by(7) {
            prop_assert_eq!(gk.rank_query(r), gk_scan(&gk, r));
        }
    }

    /// KLL's compiled view answers every ascending target with one
    /// forward cursor exactly like a binary search per target.
    #[test]
    fn kll_rank_queries_match_per_target_search(
        data in proptest::collection::vec(any::<u64>(), 0..6000),
        shape in 0u8..3,
        eps_milli in 20u64..300,
        seed in any::<u64>(),
    ) {
        let eps = eps_milli as f64 / 1000.0;
        let pairs = shaped_pairs(&data, shape);
        let mut kll = KllSketch::new(eps);
        if shape == 2 {
            for chunk in pairs.chunks(701) {
                kll.insert_weighted_batch(chunk);
            }
        } else {
            let values: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            values.chunks(701).for_each(|chunk| kll.insert_batch(chunk));
        }
        let targets = ascending_targets(kll.len(), seed);
        let cum = kll.cumulative();
        let scanned: Vec<_> = targets.iter().filter_map(|&r| kll_scan(&kll, r)).collect();
        prop_assert_eq!(&cum.rank_queries(&targets), &scanned, "shape {} n {}", shape, kll.len());
        prop_assert_eq!(&kll.rank_queries(&targets), &scanned);
        for &r in targets.iter().step_by(7) {
            prop_assert_eq!(cum.rank_query(r), kll_scan(&kll, r));
        }
    }

    /// GK answers every rank query within eps*n, on arbitrary data.
    #[test]
    fn gk_error_bound(
        data in proptest::collection::vec(any::<u64>(), 1..4000),
        eps_milli in 5u64..200,
    ) {
        let eps = eps_milli as f64 / 1000.0;
        let mut gk = GkSketch::new(eps);
        for &v in &data {
            gk.insert(v);
        }
        gk.check_invariants().unwrap();
        let n = data.len() as u64;
        let slack = (eps * n as f64).floor() as u64 + 1;
        for r in [1, n / 4 + 1, n / 2 + 1, (3 * n / 4).max(1), n] {
            let est = gk.rank_query(r).unwrap();
            let dist = rank_distance(&data, est.value, r);
            prop_assert!(
                dist <= slack,
                "rank {r}: value {} off by {dist} (allowed {slack}, n={n})",
                est.value
            );
        }
    }

    /// GK tracked bounds always contain the true rank of the answer.
    #[test]
    fn gk_tracked_bounds_sound(
        data in proptest::collection::vec(0u64..10_000, 1..3000),
    ) {
        let mut gk = GkSketch::new(0.01);
        for &v in &data {
            gk.insert(v);
        }
        let n = data.len() as u64;
        for r in [1, n / 3 + 1, n] {
            let est = gk.rank_query(r).unwrap();
            let lo = data.iter().filter(|&&x| x < est.value).count() as u64 + 1;
            let hi = exact_rank(&data, est.value);
            // The tracked interval must intersect the occupied rank range.
            prop_assert!(
                est.rmin <= hi && lo <= est.rmax,
                "tracked [{},{}] vs occupied [{},{}]",
                est.rmin, est.rmax, lo, hi
            );
        }
    }

    /// QDigest error stays within bits*n/k on arbitrary data.
    #[test]
    fn qdigest_error_bound(
        data in proptest::collection::vec(0u64..(1 << 16), 1..4000),
        k in 64u64..2048,
    ) {
        let bits = 16;
        let mut qd = QDigest::with_compression(k, bits);
        for &v in &data {
            qd.insert(v);
        }
        qd.compress();
        let n = data.len() as u64;
        let slack = ((bits as f64) * n as f64 / k as f64).ceil() as u64 + 1;
        for r in [1, n / 2 + 1, n] {
            let v = qd.rank_query(r).unwrap();
            let dist = {
                // q-digest may answer values not in the data; use rank bounds.
                let hi = exact_rank(&data, v);
                let lo = data.iter().filter(|&&x| x < v).count() as u64 + 1;
                if r < lo { lo - r } else { r.saturating_sub(hi) }
            };
            prop_assert!(dist <= slack, "rank {r}: answer {v} off by {dist} > {slack}");
        }
    }

    /// QDigest size bound 3k holds after compress, for any data.
    #[test]
    fn qdigest_size_bound(
        data in proptest::collection::vec(0u64..(1 << 20), 1..5000),
    ) {
        let k = 100;
        let mut qd = QDigest::with_compression(k, 20);
        for &v in &data {
            qd.insert(v);
        }
        qd.compress();
        let n = data.len() as u64;
        if n / k >= 1 {
            prop_assert!(
                qd.num_nodes() as u64 <= 3 * k,
                "{} nodes > 3k = {}",
                qd.num_nodes(),
                3 * k
            );
        }
    }

    /// QDigest merge: count preserved, error within the merged bound.
    #[test]
    fn qdigest_merge_sound(
        a_data in proptest::collection::vec(0u64..(1 << 14), 1..1500),
        b_data in proptest::collection::vec(0u64..(1 << 14), 1..1500),
    ) {
        let mut a = QDigest::with_error(0.05, 14);
        let mut b = QDigest::with_error(0.05, 14);
        for &v in &a_data { a.insert(v); }
        for &v in &b_data { b.insert(v); }
        a.merge(&b);
        prop_assert_eq!(a.len(), (a_data.len() + b_data.len()) as u64);
        let mut all = a_data;
        all.extend(b_data);
        let n = all.len() as u64;
        let slack = (2.0 * 0.05 * n as f64).ceil() as u64 + 1;
        let med = a.rank_query(n / 2 + 1).unwrap();
        let dist = {
            let hi = exact_rank(&all, med);
            let lo = all.iter().filter(|&&x| x < med).count() as u64 + 1;
            let r = n / 2 + 1;
            if r < lo { lo - r } else { r.saturating_sub(hi) }
        };
        prop_assert!(dist <= slack, "merged median off by {dist} > {slack}");
    }

    /// Exact oracle agrees with a straightforward sort-based computation.
    #[test]
    fn exact_oracle_is_exact(
        data in proptest::collection::vec(any::<u64>(), 1..1000),
        phi_milli in 1u64..=1000,
    ) {
        let phi = phi_milli as f64 / 1000.0;
        let mut ex = ExactQuantiles::from_data(data.clone());
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let r = ((phi * data.len() as f64).ceil() as usize).clamp(1, data.len());
        prop_assert_eq!(ex.quantile(phi), Some(sorted[r - 1]));
        prop_assert_eq!(ex.rank_of(sorted[r - 1]), exact_rank(&data, sorted[r - 1]));
    }

    /// Reservoir sample is always a sub-multiset of the data.
    #[test]
    fn reservoir_is_submultiset(
        data in proptest::collection::vec(any::<u64>(), 1..2000),
        cap in 1usize..128,
        seed in any::<u64>(),
    ) {
        let mut rq = ReservoirQuantiles::with_seed(cap, seed);
        for &v in &data {
            rq.insert(v);
        }
        let q = rq.quantile(0.5).unwrap();
        prop_assert!(data.contains(&q), "sampled value {q} not in data");
        prop_assert!(rq.sample_size() <= cap.min(data.len()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched insertion provides the same rank-bound guarantees as
    /// sequential insertion: on identical data, both sketches' tracked
    /// bounds contain the true rank, are no wider than `2εn`, and both
    /// answer every rank query within `εn`.
    #[test]
    fn insert_batch_matches_sequential_guarantees(
        data in proptest::collection::vec(0u64..1_000_000, 1..4000),
        chunk in 1usize..700,
        eps_milli in 10u64..200,
    ) {
        let eps = eps_milli as f64 / 1000.0;
        let mut seq = GkSketch::new(eps);
        for &v in &data {
            seq.insert(v);
        }
        let mut bat = GkSketch::new(eps);
        let mut work = data.clone();
        for c in work.chunks_mut(chunk) {
            bat.insert_batch(c);
        }
        seq.check_invariants().unwrap();
        bat.check_invariants().unwrap();
        prop_assert_eq!(seq.len(), bat.len());
        prop_assert_eq!(seq.min(), bat.min());
        prop_assert_eq!(seq.max(), bat.max());

        let n = data.len() as u64;
        let width_cap = (2.0 * eps * n as f64).floor() as u64 + 1;
        for probe in [0u64, 250_000, 500_000, 750_000, 1_000_000] {
            let truth = exact_rank(&data, probe);
            for (label, gk) in [("seq", &seq), ("batch", &bat)] {
                let (lo, hi) = gk.rank_bounds_of(probe);
                prop_assert!(
                    lo <= truth && truth <= hi,
                    "{label}: probe {probe} truth {truth} outside [{lo},{hi}]"
                );
                prop_assert!(hi - lo <= width_cap, "{label}: bounds too wide [{lo},{hi}]");
            }
        }
        let slack = (eps * n as f64).floor() as u64 + 1;
        for r in [1, n / 3 + 1, n / 2 + 1, n] {
            for (label, gk) in [("seq", &seq), ("batch", &bat)] {
                let est = gk.rank_query(r).unwrap();
                let dist = rank_distance(&data, est.value, r);
                prop_assert!(
                    dist <= slack,
                    "{label}: rank {r} -> {} off by {dist} > {slack}",
                    est.value
                );
            }
        }
    }

    /// A batch of one *is* the scalar path: interleaving the two APIs on
    /// the same sketch stays internally consistent.
    #[test]
    fn scalar_is_batch_of_one(
        data in proptest::collection::vec(any::<u64>(), 1..2000),
    ) {
        let mut a = GkSketch::new(0.05);
        let mut b = GkSketch::new(0.05);
        for &v in &data {
            a.insert(v);
            b.insert_sorted_batch(&[v]);
        }
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(a.num_tuples(), b.num_tuples());
        for probe in data.iter().step_by(97) {
            prop_assert_eq!(a.rank_bounds_of(*probe), b.rank_bounds_of(*probe));
        }
    }

    /// One batch into an empty sketch tracks every rank exactly (all
    /// gaps 1, all Δ 0): the batch path's best case.
    #[test]
    fn single_batch_into_empty_sketch_is_exact(
        mut data in proptest::collection::vec(0u64..100_000, 1..1500),
    ) {
        let mut gk = GkSketch::new(0.01);
        gk.insert_batch(&mut data);
        gk.check_invariants().unwrap();
        data.sort_unstable();
        // Compression may batch duplicates, but bounds stay exact on
        // distinct probes because the input fit in a single exact batch.
        for probe in data.iter().step_by(53) {
            let (lo, hi) = gk.rank_bounds_of(*probe);
            let truth = data.partition_point(|&x| x <= *probe) as u64;
            prop_assert!(lo <= truth && truth <= hi);
        }
        let sizes = gk.num_tuples() as u64;
        prop_assert!(sizes <= data.len() as u64);
    }

    /// Batched insertion keeps the sketch space-bounded: after interleaved
    /// large batches, tuple count stays well below n.
    #[test]
    fn insert_batch_space_bounded(
        seed in any::<u64>(),
        chunk in 32usize..2048,
    ) {
        let n = 60_000u64;
        let mut x = seed | 1;
        let mut data: Vec<u64> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x >> 11
            })
            .collect();
        let mut gk = GkSketch::new(0.01);
        for c in data.chunks_mut(chunk) {
            gk.insert_batch(c);
        }
        gk.check_invariants().unwrap();
        prop_assert!(
            gk.num_tuples() < 6000,
            "batched GK summary too large: {} tuples",
            gk.num_tuples()
        );
    }
}
