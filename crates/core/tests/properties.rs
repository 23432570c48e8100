//! Property-based tests for the core algorithm: the paper's lemmas hold
//! on arbitrary data layouts, batch counts, and parameters.

use std::sync::Arc;

use hsq_core::query::{bisect_summed_rank, ProbeState};
use hsq_core::summary::SummaryBuilder;
use hsq_core::{
    CombinedSummary, HistStreamQuantiles, HsqConfig, QueryContext, ShardedEngine, SourceView,
    StreamProcessor, Warehouse,
};
use hsq_core::{PartitionSummary, SketchKind, SummaryEntry};
use hsq_sketch::{AnySketch, ExactQuantiles, GkSketch, KllSketch};
use hsq_storage::{items_per_block, write_run, BlockDevice, FileId, MemDevice, RunWriter};
use proptest::prelude::*;

/// Every engine-building test runs once per stream-sketch backend.
const KINDS: [SketchKind; 2] = [SketchKind::Gk, SketchKind::Kll];

/// Rank distance from target `r` to the rank(s) of `v`: zero if `v`'s
/// occupied rank interval covers `r`; for values not in the data the rank
/// is exactly `|{x <= v}|`.
fn rank_distance(sorted: &[u64], v: u64, r: u64) -> u64 {
    let hi = sorted.partition_point(|&x| x <= v) as u64;
    let lo = sorted.partition_point(|&x| x < v) as u64 + 1;
    if lo > hi {
        return r.abs_diff(hi); // v not present: rank(v) = hi
    }
    if r < lo {
        lo - r
    } else {
        r.saturating_sub(hi)
    }
}

/// `(values, lower, upper, total)` of a combined summary.
type TsParts = (Vec<u64>, Vec<u64>, Vec<u64>, u64);

fn ts_parts(ts: &CombinedSummary<u64>) -> TsParts {
    (
        (0..ts.len()).map(|i| ts.value(i)).collect(),
        (0..ts.len()).map(|i| ts.lower(i)).collect(),
        (0..ts.len()).map(|i| ts.upper(i)).collect(),
        ts.total(),
    )
}

/// The per-source two-pointer `CombinedSummary::build` the one-sort sweep
/// replaced, kept as its oracle: one pass over every `TS` value per source.
fn per_source_build(sources: &[SourceView<u64>]) -> TsParts {
    let total: u64 = sources.iter().map(|s| s.total()).sum();
    let mut values: Vec<u64> = sources
        .iter()
        .flat_map(|s| s.entries().iter().map(|&(v, _, _)| v))
        .collect();
    values.sort_unstable();
    let mut lower = vec![0u64; values.len()];
    let mut upper = vec![0u64; values.len()];
    for src in sources {
        let entries = src.entries();
        let mut ptr = 0usize;
        for (i, &x) in values.iter().enumerate() {
            while ptr < entries.len() && entries[ptr].0 <= x {
                ptr += 1;
            }
            if ptr > 0 {
                lower[i] += entries[ptr - 1].1;
            }
            if ptr < entries.len() {
                upper[i] += entries[ptr].2.saturating_sub(1);
            } else {
                upper[i] += src.total();
            }
        }
    }
    (values, lower, upper, total)
}

/// One random source view: 0–300 entries, values from ≤ 8 distinct ones
/// (`narrow`) or the whole domain, either partition-shaped `(r, r)` or
/// stream-shaped `(rmin, rmax)`, with empty views, `total = 0` views and
/// `hi = 0` entries all reachable.
fn random_view(next: &mut impl FnMut() -> u64, narrow: bool) -> SourceView<u64> {
    let len = if next().is_multiple_of(8) {
        0
    } else {
        (next() % 301) as usize
    };
    let total = match next() % 4 {
        0 => 0,
        1 => next() % 20,
        _ => next() % (1 << 40),
    };
    let mut values: Vec<u64> = (0..len)
        .map(|_| if narrow { next() % 8 } else { next() })
        .collect();
    values.sort_unstable();
    let partition_shaped = next().is_multiple_of(2);
    let mut ranks = |n: usize| {
        let mut r: Vec<u64> = (0..n).map(|_| next() % (total + 1)).collect();
        r.sort_unstable();
        r
    };
    let entries: Vec<(u64, u64, u64)> = if partition_shaped {
        let r = ranks(len);
        values.iter().zip(&r).map(|(&v, &r)| (v, r, r)).collect()
    } else {
        // Pointwise min / max of two nondecreasing sequences are both
        // nondecreasing, so the interval ends stay monotone.
        let (a, b) = (ranks(len), ranks(len));
        values
            .iter()
            .zip(a.iter().zip(&b))
            .map(|(&v, (&a, &b))| (v, a.min(b), a.max(b)))
            .collect()
    };
    SourceView::try_from_raw(entries, total).expect("generated views are valid")
}

/// The per-target GK scan the one-sweep extract replaced: walk the tuple
/// list from the first tuple to the one before the first with
/// `rmax > r + ⌊εn⌋`. Returns `(value, rmin, rmax)`.
fn gk_scan(gk: &GkSketch<u64>, r: u64) -> (u64, u64, u64) {
    let n = gk.len();
    let r = r.clamp(1, n);
    let slack = (gk.epsilon() * n as f64).floor() as u64;
    let mut rmin = 0u64;
    let mut prev = None;
    for (v, g, delta) in gk.tuple_parts() {
        rmin += g;
        let cur = (v, rmin, rmin + delta);
        if cur.2 > r + slack {
            return prev.unwrap_or(cur);
        }
        prev = Some(cur);
    }
    prev.expect("non-empty sketch")
}

/// The per-target KLL lookup the forward cursor replaced: compile the
/// ladder into `(value, cumulative weight)` pairs, binary-search `r`, and
/// bound the estimated rank of that value's copy nearest `r`.
fn kll_search(kll: &KllSketch<u64>, r: u64) -> (u64, u64, u64) {
    let n = kll.len();
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
    let (v, c) = items[idx];
    let c_before = if idx == 0 { 0 } else { items[idx - 1].1 };
    let nearest = r.clamp(c_before + 1, c);
    let err = kll.tracked_err();
    (
        v,
        nearest.saturating_sub(err).max(1),
        (nearest + err).min(n),
    )
}

/// `StreamProcessor::summary` as it was before the one-sweep extract, kept
/// as its oracle: one rank query per `β₂` target, anchor the extremes,
/// sort by `(value, rmin)`, then the two monotonize passes.
fn per_target_extract(sketch: &AnySketch<u64>, eps2: f64, beta2: usize) -> Vec<(u64, u64, u64)> {
    let m = sketch.len();
    if m == 0 {
        return Vec::new();
    }
    let (min, max) = (sketch.min().unwrap(), sketch.max().unwrap());
    let mut entries = vec![(min, 1, 1)];
    for i in 1..beta2 as u64 {
        let target = (((i as f64) * eps2 * m as f64).floor() as u64).clamp(1, m);
        entries.push(match sketch {
            AnySketch::Gk(gk) => gk_scan(gk, target),
            AnySketch::Kll(kll) => kll_search(kll, target),
        });
        if target == m {
            break;
        }
    }
    if entries.last().map(|e| e.0) != Some(max) {
        entries.push((max, m, m));
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut run = 0u64;
    for e in &mut entries {
        run = run.max(e.1);
        e.1 = run;
    }
    let mut run = u64::MAX;
    for e in entries.iter_mut().rev() {
        run = run.min(e.2);
        e.2 = run;
    }
    entries
}

/// Every stored byte of `file`, block by block.
fn raw_blocks(dev: &MemDevice, file: FileId) -> Vec<Vec<u8>> {
    (0..dev.num_blocks(file).unwrap())
        .map(|b| {
            let mut buf = vec![0u8; dev.block_size()];
            let n = dev.read_block(file, b, &mut buf).unwrap();
            buf.truncate(n);
            buf
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 2: accurate queries within eps*m on arbitrary batched data.
    #[test]
    fn accurate_query_error_bound(
        batches in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 10..400), 1..8),
        stream in proptest::collection::vec(0u64..1_000_000, 1..400),
        kappa in 2usize..6,
        eps_pct in 2u32..20,
        phi_pct in 1u32..=100,
    ) {
        for kind in KINDS {
            let eps = eps_pct as f64 / 100.0;
            let cfg = HsqConfig::builder().epsilon(eps).merge_threshold(kappa).sketch(kind).build();
            let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
            let mut all: Vec<u64> = Vec::new();
            for b in &batches {
                all.extend(b);
                h.ingest_step(b).unwrap();
            }
            for &v in &stream {
                all.push(v);
                h.stream_update(v);
            }
            all.sort_unstable();
            let n = all.len() as u64;
            let m = stream.len() as u64;
            let phi = phi_pct as f64 / 100.0;
            let r = ((phi * n as f64).ceil() as u64).clamp(1, n);
            let v = h.quantile(phi).unwrap().unwrap();
            let allowed = (eps * m as f64).ceil() as u64 + 1;
            let dist = rank_distance(&all, v, r);
            prop_assert!(
                dist <= allowed,
                "{kind} phi={phi}: value {v} off by {dist} ranks (allowed {allowed}, m={m})"
            );
        }
    }

    /// Lemma 3: quick responses within 1.5*eps*N.
    #[test]
    fn quick_query_error_bound(
        batches in proptest::collection::vec(
            proptest::collection::vec(0u64..100_000, 20..300), 1..6),
        stream in proptest::collection::vec(0u64..100_000, 1..300),
        kappa in 2usize..5,
    ) {
        for kind in KINDS {
            let eps = 0.1;
            let cfg = HsqConfig::builder().epsilon(eps).merge_threshold(kappa).sketch(kind).build();
            let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
            let mut all: Vec<u64> = Vec::new();
            for b in &batches {
                all.extend(b);
                h.ingest_step(b).unwrap();
            }
            for &v in &stream {
                all.push(v);
                h.stream_update(v);
            }
            all.sort_unstable();
            let n = all.len() as u64;
            let allowed = (1.5 * eps * n as f64).ceil() as u64 + 1;
            for r in [1, n / 2, n] {
                let v = h.rank_query_quick(r.max(1)).unwrap();
                let dist = rank_distance(&all, v, r.max(1));
                prop_assert!(dist <= allowed, "{kind} r={r}: off by {dist} > {allowed}");
            }
        }
    }

    /// Lemma 2: L_i <= rank(TS[i]) <= U_i and U_i - L_i <= eps*N on
    /// arbitrary layouts.
    #[test]
    fn lemma2_bounds_on_arbitrary_data(
        batches in proptest::collection::vec(
            proptest::collection::vec(0u64..50_000, 5..200), 1..6),
        stream in proptest::collection::vec(0u64..50_000, 0..200),
        kappa in 2usize..5,
    ) {
        let eps = 0.2;
        let cfg = HsqConfig::builder().epsilon(eps).merge_threshold(kappa).build();
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(256), cfg.clone());
        let mut all: Vec<u64> = Vec::new();
        for b in &batches {
            all.extend(b);
            w.add_batch(b.clone()).unwrap();
        }
        all.extend(&stream);
        all.sort_unstable();
        let n = all.len() as u64;
        for kind in KINDS {
            let mut sp = StreamProcessor::with_kind(kind, cfg.epsilon2, cfg.beta2);
            for &v in &stream {
                sp.update(v);
            }
            let ss = sp.summary();
            let mut sources: Vec<SourceView<u64>> = w
                .partitions_newest_first()
                .iter()
                .map(|p| SourceView::from_partition(&p.summary))
                .collect();
            sources.push(SourceView::from_stream(&ss));
            let ts = CombinedSummary::build(&sources);
            for i in 0..ts.len() {
                let v = ts.value(i);
                let rank = all.partition_point(|&x| x <= v) as u64;
                prop_assert!(
                    ts.lower(i) <= rank && rank <= ts.upper(i),
                    "{kind} TS[{i}]={v}: rank {rank} outside [{}, {}]",
                    ts.lower(i),
                    ts.upper(i)
                );
                prop_assert!(
                    ts.upper(i) - ts.lower(i) <= (eps * n as f64).ceil() as u64 + 1,
                    "{kind} width violation at {i}"
                );
            }
        }
    }

    /// The one-sort `CombinedSummary::build` equals the per-source
    /// two-pointer build on values, every `Lᵢ`/`Uᵢ` and the total, for 0–64
    /// sources of any shape, and shuffling the sources (a coordinator
    /// concatenates extracts in node order) changes nothing.
    #[test]
    fn combined_summary_matches_per_source_oracle(
        seed in any::<u64>(),
        count in 0usize..=64,
        narrow in any::<bool>(),
    ) {
        let mut x = seed;
        let mut next = || {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut sources: Vec<SourceView<u64>> =
            (0..count).map(|_| random_view(&mut next, narrow)).collect();
        let built = ts_parts(&CombinedSummary::build(&sources));
        prop_assert_eq!(&built, &per_source_build(&sources), "{} sources", count);
        for i in (1..sources.len()).rev() {
            sources.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        prop_assert_eq!(&ts_parts(&CombinedSummary::build(&sources)), &built, "shuffled");
    }

    /// The one-sweep `StreamProcessor::summary` is byte-identical to the
    /// per-target extract on both backends: uniform, duplicate-heavy and
    /// weighted streams, mixed ingest paths, and streams shorter than `β₂`
    /// or empty.
    #[test]
    fn stream_summary_matches_per_target_extract(
        data in proptest::collection::vec(any::<u64>(), 0..5000),
        shape in 0u8..3,
        eps_pct in 1u32..30,
    ) {
        for kind in KINDS {
            let cfg = HsqConfig::builder().epsilon(eps_pct as f64 / 100.0).build();
            let mut sp = StreamProcessor::<u64>::with_kind(kind, cfg.epsilon2, cfg.beta2);
            let (head, tail) = data.split_at(data.len() / 4);
            match shape {
                0 => {
                    head.iter().for_each(|&v| sp.update(v));
                    sp.ingest_batch(&mut tail.to_vec());
                }
                1 => {
                    head.iter().for_each(|&v| sp.update(v % 8));
                    sp.ingest_batch(&mut tail.iter().map(|v| v % 8).collect::<Vec<_>>());
                }
                _ => {
                    head.iter().for_each(|&v| sp.update_weighted(v % 500, v % 29));
                    let mut pairs: Vec<(u64, u64)> =
                        tail.iter().map(|&v| (v % 500, v % 29)).collect();
                    sp.ingest_weighted_batch(&mut pairs);
                }
            }
            let ss = sp.summary();
            let got: Vec<(u64, u64, u64)> =
                ss.entries().iter().map(|e| (e.value, e.rmin, e.rmax)).collect();
            let want = per_target_extract(sp.sketch(), cfg.epsilon2, cfg.beta2);
            prop_assert_eq!(got, want, "{} shape {} m {}", sp.sketch().kind(), shape, sp.len());
            prop_assert_eq!(ss.stream_len(), sp.len());
        }
    }

    /// Warehouse invariants hold across any update sequence; the stored
    /// multiset equals the input multiset.
    #[test]
    fn warehouse_preserves_multiset(
        batches in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..150), 1..12),
        kappa in 2usize..5,
    ) {
        let cfg = HsqConfig::builder().epsilon(0.25).merge_threshold(kappa).build();
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(128), cfg);
        let mut expect: Vec<u64> = Vec::new();
        for b in &batches {
            expect.extend(b);
            w.add_batch(b.clone()).unwrap();
            w.check_invariants().unwrap();
        }
        expect.sort_unstable();
        let mut got: Vec<u64> = Vec::new();
        for p in w.partitions_newest_first() {
            got.extend(p.run.read_all(&**w.device()).unwrap());
        }
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Window queries equal exact quantiles of the window's data (within
    /// eps*m, and exactly when the stream is empty).
    #[test]
    fn window_query_matches_window_data(
        step_vals in proptest::collection::vec(
            proptest::collection::vec(0u64..10_000, 10..60), 3..10),
        kappa in 2usize..5,
    ) {
        for kind in KINDS {
            let cfg = HsqConfig::builder().epsilon(0.1).merge_threshold(kappa).sketch(kind).build();
            let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(128), cfg);
            for b in &step_vals {
                h.ingest_step(b).unwrap();
            }
            for w in h.available_windows() {
                let mut win_data: Vec<u64> = step_vals
                    [(step_vals.len() - w as usize)..]
                    .iter()
                    .flatten()
                    .copied()
                    .collect();
                win_data.sort_unstable();
                let med = h.quantile_in_window(w, 0.5).unwrap().unwrap();
                // Stream empty -> m = 0 -> exact (Definition 1).
                let r = (0.5 * win_data.len() as f64).ceil() as u64;
                let dist = rank_distance(&win_data, med, r);
                prop_assert!(dist == 0, "{kind} window {w}: median {med} off by {dist}");
            }
        }
    }

    /// One algorithm, three surfaces: the live engine, its pinned
    /// snapshot and a 1-shard sharded snapshot over the same data return
    /// the same outcome for every rank, full union and every aligned
    /// window — reads and bytes read included; only `io`'s seq/rand split
    /// is left out, since it depends on the device's previous read
    /// position — and each answer meets Theorem 2.
    #[test]
    fn surfaces_agree_on_every_outcome(
        steps in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 10..300), 1..9),
        stream in proptest::collection::vec(0u64..1_000_000, 1..300),
        kappa in 2usize..4,
    ) {
        for kind in KINDS {
            let cfg = HsqConfig::builder()
                .epsilon(0.05)
                .merge_threshold(kappa)
                .sketch(kind)
                .build();
            let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg.clone());
            let mut e =
                ShardedEngine::<u64, _>::with_shards(1, cfg.clone(), |_| MemDevice::new(256));
            for s in &steps {
                h.ingest_step(s).unwrap();
                e.ingest_step(s).unwrap();
            }
            h.stream_extend(&stream);
            e.stream_extend(&stream);
            let snap = h.snapshot();
            let sharded = e.snapshot();
            let m = stream.len() as u64;
            let allowed = (cfg.query_epsilon() * m as f64).ceil() as u64 + 1;
            let key = |o: hsq_core::QueryOutcome<u64>| (
                o.value, o.estimated_rank, o.bisection_steps,
                o.rank_lo, o.rank_hi, o.degraded, o.quarantined,
                o.io.total_reads(), o.io.bytes_read,
            );

            let windows = h.available_windows();
            prop_assert_eq!(&windows, &snap.available_windows());
            prop_assert_eq!(&windows, &sharded.available_windows());
            for window in std::iter::once(None).chain(windows.into_iter().map(Some)) {
                let history = match window {
                    None => &steps[..],
                    Some(w) => &steps[steps.len() - w as usize..],
                };
                let mut exact = ExactQuantiles::from_data(
                    history.iter().flatten().chain(&stream).copied().collect());
                let n = exact.len();
                for r in [1, n / 7 + 1, n / 3, n / 2, 2 * n / 3, n - n / 9, n] {
                    let (live, pinned, fan_in) = match window {
                        None => (h.rank_query(r), snap.rank_query(r), sharded.rank_query(r)),
                        Some(w) => (
                            h.rank_in_window(w, r),
                            snap.rank_in_window(w, r),
                            sharded.rank_in_window(w, r),
                        ),
                    };
                    let live = live.unwrap().unwrap();
                    let got = key(pinned.unwrap().unwrap());
                    prop_assert_eq!(key(live), got, "{kind} {:?} r={}", window, r);
                    let got = key(fan_in.unwrap().unwrap());
                    prop_assert_eq!(key(live), got, "{kind} {:?} r={}", window, r);
                    // Theorem 2: some true rank of the value is within eps*m of r.
                    let r = r.clamp(1, n);
                    // (An absent value holds exactly the rank `hi`.)
                    let hi = exact.rank_of(live.value);
                    let below = live.value.checked_sub(1).map_or(0, |p| exact.rank_of(p));
                    let lo = (below + 1).min(hi);
                    let dist = if r < lo { lo - r } else { r.saturating_sub(hi) };
                    prop_assert!(
                        dist <= allowed,
                        "{kind} {:?} r={}: value {} off by {} ranks (allowed {})",
                        window, r, live.value, dist, allowed
                    );
                }
            }
        }
    }
}

/// Summary-seeded bisection never takes more steps than the same
/// bisection seeded from the whole universe (Algorithm 8 unoptimized),
/// and strictly fewer somewhere, on both backends over four seeded scenes
/// of ten archived steps plus a live one.
#[test]
fn summary_seeding_monotone_vs_domain_for_seed_matrix() {
    for kind in KINDS {
        for (seed, step_items) in [(0u64, 400), (7, 400), (23, 400), (12345, 300)] {
            let mut x = seed | 1;
            let mut gen = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 33
            };
            let cfg = HsqConfig::builder()
                .epsilon(0.05)
                .merge_threshold(3)
                .sketch(kind)
                .build();
            let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg.clone());
            for _ in 0..10 {
                let batch: Vec<u64> = (0..step_items).map(|_| gen()).collect();
                h.ingest_step(&batch).unwrap();
            }
            let stream: Vec<u64> = (0..step_items).map(|_| gen()).collect();
            h.stream_extend(&stream);

            let ss = h.stream().summary();
            let ctx = QueryContext::new(
                &**h.warehouse().device(),
                h.warehouse().partitions_newest_first(),
                &ss,
                cfg.epsilon(),
                cfg.cache_blocks,
            );
            let eps_m = (cfg.epsilon() * ss.stream_len() as f64).floor() as u64;
            let n = h.total_len();
            let mut strictly_fewer = false;
            for r in [1, n / 10, n / 4, n / 2, 3 * n / 4, 9 * n / 10, n] {
                let s = ctx.accurate_rank(r).unwrap().unwrap().bisection_steps;
                let mut state = ProbeState::default();
                let mut fan = ctx.fan_in(&mut state);
                let (_, _, d) = bisect_summed_rank(r, eps_m, u64::MIN, u64::MAX, &mut fan).unwrap();
                assert!(
                    s <= d,
                    "{kind} seed {seed} r={r}: summary {s} steps > domain {d}"
                );
                strictly_fewer |= s < d;
            }
            assert!(
                strictly_fewer,
                "{kind} seed {seed}: summary seeding never saved a bisection step"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Heavy hitters: exact counts and complete detection on arbitrary
    /// data with planted frequencies, down to φ = 0.001, with the live
    /// step fed through every ingest path.
    #[test]
    fn heavy_hitters_sound_and_complete(
        batches in proptest::collection::vec(
            proptest::collection::vec(0u64..50, 20..200), 1..6),
        values in proptest::collection::vec(0u64..50, 0..200),
        weights in proptest::collection::vec(1u64..4, 200..201),
        phi_milli in 1u64..300,
    ) {
        use std::collections::HashMap;
        let stream: Vec<(u64, u64)> = values.into_iter().zip(weights).collect();
        for kind in KINDS {
            let cfg = HsqConfig::builder().epsilon(0.05).merge_threshold(3).sketch(kind).build();
            let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
            let mut truth: HashMap<u64, u64> = HashMap::new();
            for b in &batches {
                for &v in b {
                    *truth.entry(v).or_insert(0) += 1;
                }
                h.ingest_step(b).unwrap();
            }
            for &(v, w) in &stream {
                *truth.entry(v).or_insert(0) += w;
            }
            // Thirds of the live step through each path: plain batch,
            // weighted batch, scalar updates (one per unit of weight).
            let third = stream.len() / 3;
            let plain: Vec<u64> = stream[..third]
                .iter()
                .flat_map(|&(v, w)| std::iter::repeat_n(v, w as usize))
                .collect();
            h.stream_extend(&plain);
            h.stream_extend_weighted(&stream[third..2 * third]);
            for &(v, w) in &stream[2 * third..] {
                for _ in 0..w {
                    h.stream_update(v);
                }
            }
            let n = h.total_len();
            let phi = phi_milli as f64 / 1000.0;
            let threshold = ((phi * n as f64).ceil() as u64).max(1);
            let reported = h.heavy_hitters(phi).unwrap();
            for hh in &reported {
                let t = truth.get(&hh.value).copied().unwrap_or(0);
                prop_assert_eq!(hh.count(), t, "{kind} value {}: counted {}", hh.value, hh.count());
                prop_assert!(t >= threshold, "{kind} value {} below {threshold}", hh.value);
            }
            for (&v, &c) in &truth {
                if c >= threshold {
                    prop_assert!(
                        reported.iter().any(|hh| hh.value == v),
                        "{kind} missing heavy hitter {v} (count {c} >= {threshold})"
                    );
                }
            }
        }
    }

    /// Manifest persistence: recover is lossless for any update history.
    #[test]
    fn manifest_roundtrip_lossless(
        batches in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..120), 1..10),
        kappa in 2usize..5,
    ) {
        let cfg = HsqConfig::builder().epsilon(0.2).merge_threshold(kappa).build();
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(128), cfg.clone());
        for b in &batches {
            w.add_batch(b.clone()).unwrap();
        }
        let manifest = hsq_core::manifest::persist(&w).unwrap();
        let r: Warehouse<u64, _> =
            hsq_core::manifest::recover(Arc::clone(w.device()), cfg, manifest).unwrap();
        prop_assert_eq!(r.steps(), w.steps());
        prop_assert_eq!(r.total_len(), w.total_len());
        prop_assert_eq!(r.available_windows(), w.available_windows());
        let before: Vec<Vec<u64>> = w
            .partitions_newest_first()
            .iter()
            .map(|p| p.run.read_all(&**w.device()).unwrap())
            .collect();
        let after: Vec<Vec<u64>> = r
            .partitions_newest_first()
            .iter()
            .map(|p| p.run.read_all(&**r.device()).unwrap())
            .collect();
        prop_assert_eq!(before, after);
        // Summaries identical too.
        let se: Vec<usize> = w
            .partitions_newest_first()
            .iter()
            .map(|p| p.summary.entries().len())
            .collect();
        let re: Vec<usize> = r
            .partitions_newest_first()
            .iter()
            .map(|p| p.summary.entries().len())
            .collect();
        prop_assert_eq!(se, re);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched ingestion (`stream_extend` + sorted-segment archival)
    /// produces **byte-identical** on-disk runs to the scalar path, for
    /// any mix of batch sizes and interleaved scalar updates.
    #[test]
    fn batched_end_time_step_is_byte_identical(
        steps in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 1..400), 1..6),
        chunk in 1usize..150,
        kappa in 2usize..5,
    ) {
        for kind in KINDS {
            let cfg = HsqConfig::builder()
                .epsilon(0.05)
                .merge_threshold(kappa)
                .sketch(kind)
                .build();
            let mut scalar = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg.clone());
            let mut batched = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
            for (si, step) in steps.iter().enumerate() {
                for &v in step {
                    scalar.stream_update(v);
                }
                scalar.end_time_step().unwrap();
                // Batched side: alternate stream_extend chunks with a few
                // scalar updates to exercise the mixed staging tail.
                for (ci, c) in step.chunks(chunk).enumerate() {
                    if (si + ci) % 3 == 0 && c.len() > 1 {
                        batched.stream_update(c[0]);
                        batched.stream_extend(&c[1..]);
                    } else {
                        batched.stream_extend(c);
                    }
                }
                batched.end_time_step().unwrap();
            }
            prop_assert_eq!(scalar.total_len(), batched.total_len());

            let sp = scalar.warehouse().partitions_newest_first();
            let bp = batched.warehouse().partitions_newest_first();
            prop_assert_eq!(sp.len(), bp.len());
            let sdev = &**scalar.warehouse().device();
            let bdev = &**batched.warehouse().device();
            for (a, b) in sp.iter().zip(&bp) {
                prop_assert_eq!(a.run.len(), b.run.len());
                prop_assert_eq!((a.first_step, a.last_step), (b.first_step, b.last_step));
                prop_assert_eq!(a.summary.entries(), b.summary.entries());
                // Compare the raw device blocks, not just decoded items.
                let nblocks = sdev.num_blocks(a.run.file()).unwrap();
                prop_assert_eq!(nblocks, bdev.num_blocks(b.run.file()).unwrap());
                let mut abuf = vec![0u8; sdev.block_size()];
                let mut bbuf = vec![0u8; bdev.block_size()];
                for blk in 0..nblocks {
                    let alen = sdev.read_block(a.run.file(), blk, &mut abuf).unwrap();
                    let blen = bdev.read_block(b.run.file(), blk, &mut bbuf).unwrap();
                    prop_assert_eq!(alen, blen, "{kind} block {} length differs", blk);
                    let (a, b) = (&abuf[..alen], &bbuf[..blen]);
                    prop_assert_eq!(a, b, "{kind} block {} bytes differ", blk);
                }
            }
        }
    }

    /// Batched and scalar ingestion answer queries identically-well: both
    /// stay within the Theorem 2 bound on the same data.
    #[test]
    fn batched_queries_meet_theorem2(
        batches in proptest::collection::vec(
            proptest::collection::vec(0u64..500_000, 10..300), 1..6),
        stream in proptest::collection::vec(0u64..500_000, 1..300),
        chunk in 1usize..120,
    ) {
        for kind in KINDS {
            let cfg = HsqConfig::builder().epsilon(0.1).merge_threshold(3).sketch(kind).build();
            let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
            let mut all: Vec<u64> = Vec::new();
            for b in &batches {
                all.extend(b);
                h.ingest_step(b).unwrap();
            }
            for c in stream.chunks(chunk) {
                h.stream_extend(c);
            }
            all.extend(&stream);
            all.sort_unstable();
            let n = all.len() as u64;
            let m = stream.len() as u64;
            let allowed = (0.1 * m as f64).ceil() as u64 + 1;
            for r in [1, n / 2, n] {
                let out = h.rank_query(r.max(1)).unwrap().unwrap();
                let dist = rank_distance(&all, out.value, r.max(1));
                prop_assert!(dist <= allowed, "{kind} r={r}: off by {dist} > {allowed}");
            }
        }
    }

    /// Radix-sorted batch archival is **byte-identical** to
    /// comparison-sorted archival: feeding pre-comparison-sorted batches
    /// (the radix kernel is a no-op on sorted input, so both engines
    /// store the multiset the comparison sort produced) matches an engine
    /// that radix-sorts raw batches, block for block — through cascade
    /// merges included.
    #[test]
    fn radix_archival_is_byte_identical(
        steps in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..600), 1..7),
        kappa in 2usize..5,
    ) {
        for kind in KINDS {
            let cfg = HsqConfig::builder()
                .epsilon(0.05)
                .merge_threshold(kappa)
                .sketch(kind)
                .build();
            let mut radix = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg.clone());
            let mut comparison = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
            for step in &steps {
                // Radix side: raw batch, sorted by the radix path whenever the
                // segment crosses RADIX_MIN_LEN.
                radix.stream_extend(step);
                radix.end_time_step().unwrap();
                // Comparison side: the batch pre-sorted with the stdlib
                // comparison sort (stream_extend's own sort then sees sorted
                // input and cannot reorder anything).
                let mut sorted = step.clone();
                sorted.sort_unstable();
                comparison.stream_extend(&sorted);
                comparison.end_time_step().unwrap();
            }
            let rp = radix.warehouse().partitions_newest_first();
            let cp = comparison.warehouse().partitions_newest_first();
            prop_assert_eq!(rp.len(), cp.len());
            let rdev = &**radix.warehouse().device();
            let cdev = &**comparison.warehouse().device();
            for (a, b) in rp.iter().zip(&cp) {
                prop_assert_eq!(a.run.len(), b.run.len());
                prop_assert_eq!(a.summary.entries(), b.summary.entries());
                let nblocks = rdev.num_blocks(a.run.file()).unwrap();
                prop_assert_eq!(nblocks, cdev.num_blocks(b.run.file()).unwrap());
                let mut abuf = vec![0u8; rdev.block_size()];
                let mut bbuf = vec![0u8; cdev.block_size()];
                for blk in 0..nblocks {
                    let alen = rdev.read_block(a.run.file(), blk, &mut abuf).unwrap();
                    let blen = cdev.read_block(b.run.file(), blk, &mut bbuf).unwrap();
                    prop_assert_eq!(alen, blen);
                    let (a, b) = (&abuf[..alen], &bbuf[..blen]);
                    prop_assert_eq!(a, b, "{kind} block {} bytes differ", blk);
                }
            }
        }
    }

    /// The slice appenders are the per-item appenders they replaced: for
    /// any split of a sorted vector into slices (empty ones included),
    /// `SummaryBuilder::push_slice` builds the summary the
    /// one-call-per-item tap built (that loop is kept below as the
    /// oracle), and `RunWriter::push_slice` writes the file one
    /// whole-vector `write_run` writes, byte for byte.
    #[test]
    fn slice_paths_match_item_paths(
        mut data in proptest::collection::vec(0u64..5_000, 0..4000),
        cuts in proptest::collection::vec(0usize..4000, 0..40),
        eps1_permille in 1u32..500,
        beta1 in 2usize..300,
        block in 0usize..3,
    ) {
        data.sort_unstable();
        let eta = data.len() as u64;
        let eps1 = eps1_permille as f64 / 1000.0;
        let block_size = [64usize, 100, 4096][block];
        let per = items_per_block::<u64>(block_size) as u64;
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
        cuts.extend([0, data.len()]);
        cuts.sort_unstable(); // repeated cut points = empty slices

        // Oracle: Algorithm 2's target ranks, tapped one item at a time.
        let mut targets: Vec<u64> = Vec::new();
        if eta > 0 {
            targets.push(1);
            targets.extend((1..beta1 as u64).map(|i| {
                ((i as f64 * eps1 * eta as f64).floor() as u64).clamp(1, eta)
            }));
            targets.push(eta);
            targets.sort_unstable();
            targets.dedup();
        }
        let mut entries = Vec::new();
        let (mut pos, mut next) = (0u64, 0usize);
        for &v in &data {
            pos += 1;
            while next < targets.len() && targets[next] == pos {
                entries.push(SummaryEntry { value: v, rank: pos, block: (pos - 1) / per });
                next += 1;
            }
        }
        let expected = PartitionSummary::from_raw_parts(entries, eta);

        let dev = MemDevice::new(block_size);
        let mut sb = SummaryBuilder::new(eta, eps1, beta1, block_size);
        let mut writer = RunWriter::new(&*dev).unwrap();
        for w in cuts.windows(2) {
            sb.push_slice(&data[w[0]..w[1]]);
            writer.push_slice(&data[w[0]..w[1]]).unwrap();
        }
        prop_assert_eq!(sb.finish(), expected);

        let split = writer.finish().unwrap();
        let whole = write_run(&*dev, &data).unwrap();
        prop_assert_eq!((split.len(), split.min(), split.max()), (whole.len(), whole.min(), whole.max()));
        prop_assert_eq!(raw_blocks(&dev, split.file()), raw_blocks(&dev, whole.file()));
    }

    /// Mergeability: a ShardedEngine with N shards answers every quantile
    /// within the same eps*m guarantee as a single engine fed the
    /// identical stream — for N in {1, 2, 8} on arbitrary data.
    #[test]
    fn sharded_meets_single_engine_guarantee(
        batches in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 10..300), 1..6),
        stream in proptest::collection::vec(0u64..1_000_000, 1..300),
        kappa in 2usize..5,
        phi_pct in 1u32..=100,
    ) {
        for kind in KINDS {
            let eps = 0.1;
            let phi = phi_pct as f64 / 100.0;
            let mut all: Vec<u64> = batches.iter().flatten().copied().collect();
            all.extend(&stream);
            all.sort_unstable();
            let n = all.len() as u64;
            let m = stream.len() as u64;
            let r = ((phi * n as f64).ceil() as u64).clamp(1, n);
            // The guarantee both layouts must meet (Theorem 2).
            let allowed = (eps * m as f64).ceil() as u64 + 1;

            let cfg = HsqConfig::builder().epsilon(eps).merge_threshold(kappa).sketch(kind).build();
            let mut single = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg.clone());
            for b in &batches {
                single.ingest_step(b).unwrap();
            }
            single.stream_extend(&stream);
            let sv = single.quantile(phi).unwrap().unwrap();
            let sdist = rank_distance(&all, sv, r);
            prop_assert!(sdist <= allowed, "{kind} single: off by {sdist} > {allowed}");

            for shards in [1usize, 2, 8] {
                let mut e = hsq_core::ShardedEngine::<u64, _>::with_shards(
                    shards,
                    cfg.clone(),
                    |_| MemDevice::new(256),
                );
                for b in &batches {
                    e.ingest_step(b).unwrap();
                }
                e.stream_extend(&stream);
                prop_assert_eq!(e.total_len(), n);
                let v = e.quantile(phi).unwrap().unwrap();
                let dist = rank_distance(&all, v, r);
                prop_assert!(
                    dist <= allowed,
                    "{kind} shards={shards} phi={phi}: value {v} off by {dist} ranks \
                     (allowed {allowed}, m={m})"
                );
            }
        }
    }
}
