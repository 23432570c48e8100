//! The paper's headline claim, at the paper's ratio: with history ~100×
//! the stream (N/m = 101), a quantile query on `T` is answered "with
//! accuracy about 100 times better than the best streaming algorithms
//! while using the same amount of main memory, with the additional cost
//! of a few hundred disk accesses" (§1.2).
//!
//! Run: `cargo run --release -p hsq-bench --bin headline`
//!
//! Besides the console report, writes `BENCH_headline.json` (override the
//! path with `HSQ_BENCH_JSON`) with the headline metrics plus scalar vs.
//! batched ingestion throughput, so the perf trajectory is tracked across
//! PRs.

use std::io::Write as _;
use std::net::TcpListener;
use std::time::Instant;

use hsq_bench::*;
use hsq_core::baseline::StreamingAlgo;
use hsq_core::{
    CombinedSummary, HistStreamQuantiles, HsqConfig, QueryContext, RetentionPolicy, SeedMode,
    ShardedEngine, SourceView,
};
use hsq_service::{
    Coordinator, FaultConnector, FaultPlan, FleetConfig, NetFault, NetRetryPolicy, QuantileServer,
    TcpConnector,
};
use hsq_storage::{
    merge_runs, sort_items, write_run, BlockDevice, Fault, FaultDevice, FileId, MemDevice,
    RetryDevice, RetryPolicy,
};
use hsq_workload::Dataset;
use std::sync::Arc;

/// Radix vs comparison batch sort at the ingest batch size. Min-of-k
/// timing over many distinct batches (the noise-robust microbench
/// estimator); the batch content is the headline ingest's own Uniform
/// dataset. Returns `(radix_elems_per_sec, comparison_elems_per_sec,
/// speedup)`.
fn radix_metrics() -> (f64, f64, f64) {
    const BATCH: usize = 4096;
    const BATCHES: usize = 64;
    const REPEATS: usize = 7;
    let data: Vec<Vec<u64>> = (0..BATCHES)
        .map(|i| Dataset::Uniform.generator(500 + i as u64).take_vec(BATCH))
        .collect();
    let mut buf = vec![0u64; BATCH];
    let total = (BATCH * BATCHES) as f64;

    let mut radix_best = f64::MAX;
    let mut comparison_best = f64::MAX;
    for _ in 0..REPEATS {
        let t = Instant::now();
        for d in &data {
            buf.copy_from_slice(d);
            sort_items(&mut buf);
        }
        radix_best = radix_best.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for d in &data {
            buf.copy_from_slice(d);
            buf.sort_unstable();
        }
        comparison_best = comparison_best.min(t.elapsed().as_secs_f64());
    }
    let radix_eps = total / radix_best;
    let comparison_eps = total / comparison_best;
    (radix_eps, comparison_eps, radix_eps / comparison_eps)
}

/// CPU cost of the step-close merge kernel: nanoseconds per item of one
/// `merge_runs` over the level-0 cascade of the `ingest_heavy` benchmark
/// workload (11 runs × 65,536 `Uniform` items, 4096-byte blocks), read,
/// verified, merged, checksummed and written on a `MemDevice`. Min-of-k.
fn merge_ns_per_item() -> f64 {
    const RUNS: usize = 11;
    const RUN_ITEMS: usize = 65_536;
    const REPEATS: usize = 7;
    let dev = MemDevice::new(4096);
    let runs: Vec<_> = (0..RUNS)
        .map(|i| {
            let mut data = Dataset::Uniform
                .generator(900 + i as u64)
                .take_vec(RUN_ITEMS);
            sort_items(&mut data);
            write_run(&*dev, &data).expect("write run")
        })
        .collect();
    let mut best = f64::MAX;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let merged = merge_runs(&*dev, &runs).expect("merge");
        best = best.min(t.elapsed().as_secs_f64());
        merged.delete(&*dev).expect("delete");
    }
    best * 1e9 / (RUNS * RUN_ITEMS) as f64
}

/// CPU cost of opening an epoch's combined summary: nanoseconds per `TS`
/// entry of one `CombinedSummary::build` over the `sharded_weighted`
/// benchmark shape — 56 partition views of 201 exact-rank entries plus 4
/// stream views of 401 interval entries, values from seeded `Uniform`
/// draws. Min-of-k.
fn combined_build_ns_per_entry() -> f64 {
    const PARTITIONS: u64 = 56;
    const PARTITION_ENTRIES: usize = 201;
    const PARTITION_LEN: u64 = 16_384;
    const STREAMS: u64 = 4;
    const STREAM_ENTRIES: usize = 401;
    const STREAM_LEN: u64 = 4_096;
    const REPEATS: usize = 7;
    let sorted_values = |seed: u64, n: usize| {
        let mut v = Dataset::Uniform.generator(seed).take_vec(n);
        v.sort_unstable();
        v
    };
    let mut sources: Vec<SourceView<u64>> = (0..PARTITIONS)
        .map(|p| {
            let last = PARTITION_ENTRIES as u64 - 1;
            let entries = sorted_values(1_500 + p, PARTITION_ENTRIES)
                .into_iter()
                .enumerate()
                .map(|(i, v)| {
                    let r = (i as u64 * PARTITION_LEN / last).max(1);
                    (v, r, r)
                })
                .collect();
            SourceView::from_raw(entries, PARTITION_LEN)
        })
        .collect();
    sources.extend((0..STREAMS).map(|s| {
        let last = STREAM_ENTRIES as u64 - 1;
        let slack = STREAM_LEN / last;
        let entries = sorted_values(1_600 + s, STREAM_ENTRIES)
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                let r = (i as u64 * STREAM_LEN / last).max(1);
                (
                    v,
                    r.saturating_sub(slack).max(1),
                    (r + slack).min(STREAM_LEN),
                )
            })
            .collect();
        SourceView::from_raw(entries, STREAM_LEN)
    }));
    let mut best = f64::MAX;
    let mut delta = 0;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let ts = CombinedSummary::build(std::hint::black_box(&sources));
        best = best.min(t.elapsed().as_secs_f64());
        delta = ts.len();
    }
    best * 1e9 / delta as f64
}

fn percentile(sorted: &[u32], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 * p) as usize).min(sorted.len() - 1);
    sorted[idx] as f64
}

/// Query-path metrics: bisection probe counts with summary vs domain
/// bracket seeding (p50/p99 over a rank sweep), and per-query latency of
/// a snapshot per query vs one `ShardedSnapshot` reused for a dashboard's
/// worth of queries (reuse asserted faster in-bin).
fn query_metrics() -> (f64, f64, f64, f64, f64, f64) {
    const STEPS: u64 = 40;
    const STEP_ITEMS: usize = 8192;
    let cfg = HsqConfig::builder()
        .epsilon(0.01)
        .merge_threshold(10)
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(4096), cfg);
    for s in 0..STEPS {
        let batch = Dataset::Uniform.generator(700 + s).take_vec(STEP_ITEMS);
        h.ingest_step(&batch).expect("ingest");
    }
    h.stream_extend(&Dataset::Uniform.generator(999).take_vec(STEP_ITEMS));

    // Probe counts: the same rank sweep under both seed modes.
    let n = h.total_len();
    let ranks: Vec<u64> = (1..=100).map(|i| (n * i) / 101 + 1).collect();
    let ss = h.stream().summary();
    let cfg = h.config().clone();
    let run_sweep = |mode: SeedMode| -> Vec<u32> {
        let mut steps: Vec<u32> = ranks
            .iter()
            .map(|&r| {
                QueryContext::new(
                    &**h.warehouse().device(),
                    h.warehouse().partitions_newest_first(),
                    &ss,
                    cfg.epsilon(),
                    cfg.cache_blocks,
                )
                .with_seed_mode(mode)
                .accurate_rank(r)
                .expect("query")
                .expect("non-empty")
                .bisection_steps
            })
            .collect();
        steps.sort_unstable();
        steps
    };
    let summary_steps = run_sweep(SeedMode::Summary);
    let domain_steps = run_sweep(SeedMode::Domain);
    let (s_p50, s_p99) = (
        percentile(&summary_steps, 0.50),
        percentile(&summary_steps, 0.99),
    );
    let (d_p50, d_p99) = (
        percentile(&domain_steps, 0.50),
        percentile(&domain_steps, 0.99),
    );
    assert!(
        s_p50 < d_p50 && s_p99 < d_p99,
        "summary seeding must take strictly fewer probes: p50 {s_p50} vs {d_p50}, p99 {s_p99} vs {d_p99}"
    );

    // Cached cross-shard summaries: per-query snapshots vs one reused
    // snapshot answering the same dashboard batch.
    let cfg = HsqConfig::builder()
        .epsilon(0.01)
        .merge_threshold(10)
        .build();
    let mut sharded = ShardedEngine::<u64, _>::with_shards(4, cfg, |_| MemDevice::new(4096));
    for s in 0..20u64 {
        let batch = Dataset::Uniform.generator(800 + s).take_vec(4096);
        sharded.ingest_step(&batch).expect("ingest");
    }
    sharded.stream_extend(&Dataset::Uniform.generator(888).take_vec(4096));
    let phis: Vec<f64> = (1..=40).map(|i| i as f64 / 41.0).collect();
    let mut fresh_best = f64::MAX;
    let mut reused_best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        for &phi in &phis {
            let _ = sharded.snapshot().quantile(phi).expect("query");
        }
        fresh_best = fresh_best.min(t.elapsed().as_secs_f64());
        let snap = sharded.snapshot();
        let t = Instant::now();
        for &phi in &phis {
            let _ = snap.quantile(phi).expect("query");
        }
        reused_best = reused_best.min(t.elapsed().as_secs_f64());
    }
    let fresh_secs = fresh_best / phis.len() as f64;
    let reused_secs = reused_best / phis.len() as f64;
    assert!(
        reused_secs < fresh_secs,
        "snapshot reuse must be faster than per-query snapshots ({:.2}x)",
        fresh_secs / reused_secs
    );

    (s_p50, s_p99, d_p50, d_p99, fresh_secs, reused_secs)
}

/// Served-path metrics: a two-node loopback fleet behind a
/// [`Coordinator`], answering the same rank sweep a single in-process
/// engine answers over the identical union of data. Gates the probe
/// economy of the wire path (p50 probe rounds ≤ 4, every answer's rank
/// interval containing a true rank of the returned value) and measures
/// the latency tax of going through TCP versus the in-process
/// reused-snapshot path. Returns `(p50_probe_rounds,
/// round_trips_per_query, served_query_seconds,
/// inprocess_query_seconds)`.
fn service_metrics() -> (f64, f64, f64, f64) {
    const NODES: usize = 2;
    const SHARDS_PER_NODE: usize = 2;
    const STEPS: u64 = 12;
    const STEP_ITEMS: usize = 4096;
    const REPEATS: usize = 3;
    let cfg = || {
        HsqConfig::builder()
            .epsilon(0.01)
            .merge_threshold(10)
            .build()
    };

    let handles: Vec<_> = (0..NODES)
        .map(|_| {
            let engine = ShardedEngine::<u64, _>::with_shards(SHARDS_PER_NODE, cfg(), |_| {
                MemDevice::new(4096)
            });
            QuantileServer::new(engine)
                .spawn(TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
                .expect("spawn server")
        })
        .collect();
    let addrs: Vec<_> = handles.iter().map(|h| h.addr()).collect();
    let mut coord = Coordinator::<u64>::connect(&addrs).expect("connect fleet");

    // Identical union on the wire and in-process: each node ingests its
    // own slice, the local engine ingests the concatenation.
    let mut local = ShardedEngine::<u64, _>::with_shards(NODES * SHARDS_PER_NODE, cfg(), |_| {
        MemDevice::new(4096)
    });
    let mut all_values: Vec<u64> = Vec::with_capacity(NODES * STEPS as usize * STEP_ITEMS);
    for s in 0..STEPS {
        let mut union = Vec::with_capacity(NODES * STEP_ITEMS);
        for (node, _) in addrs.iter().enumerate() {
            let batch = Dataset::Uniform
                .generator(1300 + s * NODES as u64 + node as u64)
                .take_vec(STEP_ITEMS);
            let pairs: Vec<(u64, u64)> = batch.iter().map(|&v| (v, 1)).collect();
            coord.ingest(node, &pairs).expect("ingest");
            union.extend_from_slice(&batch);
        }
        all_values.extend_from_slice(&union);
        if s + 1 < STEPS {
            coord.end_step().expect("end step");
            local.ingest_step(&union).expect("local ingest");
        } else {
            local.stream_extend(&union);
        }
    }
    all_values.sort_unstable();

    let mut session = coord.session(7).expect("open session");
    let n = session.total_len();
    assert_eq!(n, all_values.len() as u64, "fleet and local union differ");
    let ranks: Vec<u64> = (1..=40).map(|i| (n * i) / 41 + 1).collect();

    // First query per path is the warm-up (summary extract fetch /
    // combined-summary build); the timed sweeps ride the cached path.
    let _ = session.rank_query(ranks[0]).expect("warm");
    let mut rounds: Vec<u32> = Vec::with_capacity(ranks.len());
    let mut trips = 0u64;
    let mut served_best = f64::MAX;
    for rep in 0..REPEATS {
        let t = Instant::now();
        for &r in &ranks {
            let served = session
                .rank_query(r)
                .expect("served query")
                .expect("non-empty");
            if rep == 0 {
                rounds.push(served.probe_rounds);
                trips += served.round_trips;
                // The answer must honor the paper's guarantee: the
                // reported rank interval contains a true rank of the
                // returned value in the union.
                let v = served.outcome.value;
                let lt = all_values.partition_point(|&x| x < v) as u64;
                let le = all_values.partition_point(|&x| x <= v) as u64;
                assert!(
                    served.outcome.rank_lo <= le && lt < served.outcome.rank_hi,
                    "served rank interval [{}, {}] misses true ranks [{}, {}] of {v}",
                    served.outcome.rank_lo,
                    served.outcome.rank_hi,
                    lt + 1,
                    le,
                );
            }
        }
        served_best = served_best.min(t.elapsed().as_secs_f64());
    }
    rounds.sort_unstable();
    let p50_rounds = percentile(&rounds, 0.50);
    assert!(
        p50_rounds <= 4.0,
        "served bisection should settle in ≤ 4 probe rounds at p50, took {p50_rounds}"
    );
    let trips_per_query = trips as f64 / ranks.len() as f64;

    let snap = local.snapshot();
    let _ = snap.rank_query(ranks[0]).expect("warm");
    let mut inproc_best = f64::MAX;
    for _ in 0..REPEATS {
        let t = Instant::now();
        for &r in &ranks {
            let _ = snap.rank_query(r).expect("local query").expect("non-empty");
        }
        inproc_best = inproc_best.min(t.elapsed().as_secs_f64());
    }
    for h in handles {
        h.shutdown();
    }

    (
        p50_rounds,
        trips_per_query,
        served_best / ranks.len() as f64,
        inproc_best / ranks.len() as f64,
    )
}

/// Failover metrics: the same query sweep against a 2-groups × 2-replicas
/// loopback fleet, three ways. *Healthy*: all replicas up. *Failover*:
/// every group's preferred replica is partitioned away from the first op,
/// so every read is served by the surviving replica — answers must stay
/// byte-identical to healthy, and the timed sweep prices what failover
/// costs once it has settled. *Degraded*: both replicas of group 0 are
/// lost after the session opens; answers must widen their upper bound by
/// exactly the lost group's recorded weight (asserted in-bench — the
/// widening is deterministic, not a tuning knob). Returns
/// `(healthy_query_seconds, failover_query_seconds,
/// degraded_extra_width_frac)`.
fn failover_metrics() -> (f64, f64, f64) {
    const GROUPS: usize = 2;
    const REPLICAS: usize = 2;
    const STEPS: u64 = 8;
    const STEP_ITEMS: usize = 2048;
    const REPEATS: usize = 3;
    let cfg = || {
        HsqConfig::builder()
            .epsilon(0.01)
            .merge_threshold(10)
            .build()
    };
    let policy = NetRetryPolicy::fast();

    // Spawn the fleet; the coordinator's replicated writes feed every
    // replica of a group the same slice.
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    let mut group_addrs = Vec::new();
    for _ in 0..GROUPS {
        let mut g = Vec::new();
        for _ in 0..REPLICAS {
            let engine = ShardedEngine::<u64, _>::with_shards(1, cfg(), |_| MemDevice::new(4096));
            let handle = QuantileServer::new(engine)
                .spawn(TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
                .expect("spawn server");
            let addr = handle.addr().to_string();
            handles.push(handle);
            addrs.push(addr.clone());
            g.push(addr);
        }
        group_addrs.push(g);
    }
    let fleet = FleetConfig::new(group_addrs).expect("fleet config");
    let connect = |plan: Arc<FaultPlan>| {
        let connector = Arc::new(FaultConnector::new(
            Arc::new(TcpConnector::from_policy(&policy)),
            plan,
            addrs.clone(),
        ));
        Coordinator::<u64>::connect_fleet_with(&fleet, connector, policy).expect("connect fleet")
    };

    let mut coord = connect(FaultPlan::clean());
    let mut group0_weight = 0u64;
    for s in 0..STEPS {
        for g in 0..GROUPS {
            let batch = Dataset::Uniform
                .generator(2600 + s * GROUPS as u64 + g as u64)
                .take_vec(STEP_ITEMS);
            let pairs: Vec<(u64, u64)> = batch.iter().map(|&v| (v, 1)).collect();
            coord.ingest(g, &pairs).expect("ingest");
            if g == 0 {
                group0_weight += STEP_ITEMS as u64;
            }
        }
        if s + 1 < STEPS {
            coord.end_step().expect("end step");
        }
    }
    drop(coord);

    // Timed sweep of one session; returns (best seconds/query, answers).
    let sweep = |coord: &mut Coordinator<u64>, tenant: u64| {
        let mut session = coord.session(tenant).expect("open session");
        let n = session.total_len();
        let ranks: Vec<u64> = (1..=20).map(|i| (n * i) / 21 + 1).collect();
        let _ = session.rank_query(ranks[0]).expect("warm");
        let mut answers = Vec::new();
        let mut best = f64::MAX;
        for rep in 0..REPEATS {
            let t = Instant::now();
            for &r in &ranks {
                let q = session.rank_query(r).expect("query").expect("non-empty");
                if rep == 0 {
                    answers.push(q);
                }
            }
            best = best.min(t.elapsed().as_secs_f64() / ranks.len() as f64);
        }
        answers
            .iter()
            .for_each(|q| assert_eq!(q.missing_weight, 0, "unexpected degradation"));
        (best, answers)
    };

    // Counting run: learn the op budget so the degraded partition can be
    // armed after the session opens.
    let count_plan = FaultPlan::clean();
    let mut coord = connect(Arc::clone(&count_plan));
    let (_, _) = sweep(&mut coord, 40);
    let ops = count_plan.ops();
    drop(coord);

    let mut coord = connect(FaultPlan::clean());
    let (healthy_secs, healthy) = sweep(&mut coord, 41);
    drop(coord);

    // Partition every group's preferred replica from the very first op:
    // construction, session, and all reads fail over to the survivors.
    let preferred: Vec<usize> = (0..GROUPS).map(|g| g * REPLICAS).collect();
    let mut coord = connect(FaultPlan::script(vec![NetFault::Partition {
        replicas: preferred,
        from: 0,
        to: u64::MAX,
    }]));
    let (failover_secs, failed_over) = sweep(&mut coord, 42);
    assert!(coord.failovers() > 0, "failover path was not exercised");
    drop(coord);
    assert_eq!(healthy.len(), failed_over.len());
    for (h, f) in healthy.iter().zip(&failed_over) {
        assert_eq!(
            (h.outcome.value, h.outcome.rank_lo, h.outcome.rank_hi),
            (f.outcome.value, f.outcome.rank_lo, f.outcome.rank_hi),
            "failover answers must be byte-identical to healthy"
        );
    }

    // Lose all of group 0 right after the sweep's session is pinned: the
    // remaining queries degrade, widening rank_hi by exactly the missing
    // group's weight.
    let mut coord = connect(FaultPlan::script(vec![NetFault::Partition {
        replicas: vec![0, 1],
        from: ops / 8,
        to: u64::MAX,
    }]));
    let mut session = coord.session(43).expect("open session");
    let n = session.total_len();
    let ranks: Vec<u64> = (1..=20).map(|i| (n * i) / 21 + 1).collect();
    let mut extra = Vec::new();
    for &r in &ranks {
        let q = session.rank_query(r).expect("query").expect("non-empty");
        if q.outcome.degraded {
            assert_eq!(q.missing_weight, group0_weight, "missing weight");
            let eps_m = (session.query_epsilon() * session.stream_len() as f64).floor() as u64;
            assert_eq!(
                q.outcome.rank_hi,
                q.outcome.estimated_rank + eps_m + group0_weight,
                "degraded upper bound must widen by exactly the lost weight"
            );
            extra.push(q.missing_weight as f64);
        }
    }
    assert!(!extra.is_empty(), "degraded path was not exercised");
    let total: u64 = group0_weight * GROUPS as u64;
    let extra_width_frac = extra.iter().sum::<f64>() / extra.len() as f64 / total as f64;
    drop(session);
    drop(coord);

    for h in handles {
        h.shutdown();
    }
    (healthy_secs, failover_secs, extra_width_frac)
}

/// Self-healing storage metrics. Rot one block in every partition of a
/// warehouse; scrub must detect all of them (`detection_hit_rate`, gated
/// at 1.0) and repair by salvaging every other block
/// (`salvage_hit_rate` — deterministic given the layout). Also measures
/// clean-scrub verify throughput, and a deterministic flaky-read
/// schedule masked by a `RetryDevice`: retries per query are exact given
/// the seed, and query latency under flakiness is the noisy companion.
/// Returns `(detection_hit_rate, salvage_hit_rate, scrub_blocks_per_sec,
/// flaky_retry_disk_reads_per_query, flaky_query_seconds)`.
fn robustness_metrics() -> (f64, f64, f64, f64, f64) {
    const STEPS: u64 = 10;
    const STEP_ITEMS: usize = 8192;
    let cfg = HsqConfig::builder()
        .epsilon(0.01)
        .merge_threshold(10)
        .retry(RetryPolicy::immediate(32))
        .build();
    fn ingest<D: BlockDevice>(h: &mut HistStreamQuantiles<u64, D>) {
        for s in 0..STEPS {
            let batch = Dataset::Uniform.generator(1_300 + s).take_vec(STEP_ITEMS);
            h.ingest_step(&batch).expect("ingest");
        }
        h.stream_extend(&Dataset::Uniform.generator(1_399).take_vec(STEP_ITEMS));
    }

    // Detection + salvage: one rotted block per partition.
    let dev = MemDevice::new(4096);
    let mut h = HistStreamQuantiles::<u64, _>::new(std::sync::Arc::clone(&dev), cfg.clone());
    ingest(&mut h);
    let layout: Vec<(FileId, u64)> = h
        .warehouse()
        .partitions_newest_first()
        .iter()
        .map(|p| {
            let per = p.run.items_per_block(dev.block_size()) as u64;
            (p.run.file(), p.run.len().div_ceil(per))
        })
        .collect();
    for (i, &(file, blocks)) in layout.iter().enumerate() {
        let block = (i as u64 * 7) % blocks;
        let mut buf = vec![0u8; dev.block_size()];
        let n = dev.read_block(file, block, &mut buf).expect("read");
        buf[n / 2] ^= 0x01;
        dev.write_block(file, block, &buf[..n]).expect("write");
    }
    let found = h.scrub(u64::MAX).expect("scrub");
    let detection = found.corrupt_blocks as f64 / layout.len() as f64;
    assert!(
        (detection - 1.0).abs() < f64::EPSILON,
        "scrub must detect every rotted block: {}/{}",
        found.corrupt_blocks,
        layout.len()
    );
    let healed = h.scrub(u64::MAX).expect("scrub");
    assert_eq!(healed.quarantined_after, 0, "repair must clear quarantine");
    let salvage = healed.items_salvaged as f64 / (healed.items_salvaged + healed.items_lost) as f64;

    // Clean-scrub verify throughput over the repaired warehouse.
    let t = Instant::now();
    let clean = h.scrub(u64::MAX).expect("scrub");
    let scrub_bps = clean.blocks_verified as f64 / t.elapsed().as_secs_f64();
    assert_eq!(
        clean.corrupt_blocks, 0,
        "repaired warehouse must verify clean"
    );

    // Flaky reads masked below the engine: deterministic schedule, exact
    // retry counts, zero query-visible failures.
    let fault = FaultDevice::new(MemDevice::new(4096));
    let rdev = RetryDevice::new(std::sync::Arc::clone(&fault), RetryPolicy::immediate(32));
    let mut h = HistStreamQuantiles::<u64, _>::new(rdev, cfg);
    ingest(&mut h);
    fault.arm(Fault::FlakyReads { seed: 9, rate: 4 });
    let n = h.total_len();
    let ranks: Vec<u64> = (1..=50).map(|i| (n * i) / 51 + 1).collect();
    let before = fault.stats().snapshot().retries;
    let t = Instant::now();
    for &r in &ranks {
        let o = h.rank_query(r).expect("query").expect("non-empty");
        assert!(!o.degraded, "transients must never quarantine");
    }
    let flaky_secs = t.elapsed().as_secs_f64() / ranks.len() as f64;
    let retries = (fault.stats().snapshot().retries - before) as f64 / ranks.len() as f64;
    assert!(retries > 0.0, "the flaky schedule must have fired");

    (detection, salvage, scrub_bps, retries, flaky_secs)
}

/// Elements/second of the scalar and batched stream-ingest paths on a
/// uniform u64 stream (the batched pipeline's headline speedup).
fn ingest_throughput() -> (f64, f64) {
    let n = 1 << 19;
    let data: Vec<u64> = Dataset::Uniform.generator(77).take_vec(n);
    let engine = || {
        let cfg = HsqConfig::builder()
            .epsilon(0.01)
            .merge_threshold(10)
            .build();
        HistStreamQuantiles::<u64, _>::new(MemDevice::new(4096), cfg)
    };
    let mut h = engine();
    let t = Instant::now();
    for &v in &data {
        h.stream_update(v);
    }
    let scalar = n as f64 / t.elapsed().as_secs_f64();
    let mut h = engine();
    let t = Instant::now();
    for chunk in data.chunks(4096) {
        h.stream_extend(chunk);
    }
    let batched = n as f64 / t.elapsed().as_secs_f64();
    (scalar, batched)
}

/// One backend's row in the sketch A/B section.
struct SketchRow {
    name: &'static str,
    update_eps: f64,
    batch_eps: f64,
    max_rel_err: f64,
    merge_secs: f64,
    memory_words: usize,
    /// Weighted-insert throughput in *weight units* (expanded elements)
    /// per second — the headline win of native weighted ingestion.
    weighted_wps: f64,
    /// Observed max rank error of the weighted sketch against exact over
    /// the replicated expansion, in units of `ε·W` (gated `< 1`).
    weighted_max_rel_err: f64,
}

/// Pluggable-sketch A/B: for each backend (GK, KLL) at the same ε,
/// scalar update throughput, batched insert throughput (chunks of 4096
/// through the radix sort path), observed max rank error against exact
/// in units of the promised `ε·n` (asserted `< 1` for both backends —
/// the union guarantee's in-bin gate), the cost of an 8-way shard
/// merge, and the memory footprint.
fn sketch_metrics() -> Vec<SketchRow> {
    use hsq_sketch::{AnySketch, QuantileSketch, SketchKind};
    const EPS: f64 = 0.01;
    const N: usize = 1 << 19;
    const SHARDS: usize = 8;
    let data: Vec<u64> = Dataset::Uniform.generator(4242).take_vec(N);
    let mut sorted = data.clone();
    sorted.sort_unstable();

    let mut rows = Vec::new();
    for kind in [SketchKind::Gk, SketchKind::Kll] {
        // Scalar updates.
        let mut s = AnySketch::<u64>::new(kind, EPS);
        let t = Instant::now();
        for &v in &data {
            s.insert(v);
        }
        let update_eps = N as f64 / t.elapsed().as_secs_f64();

        // Batched inserts at the engine's ingest chunk size.
        let mut b = AnySketch::<u64>::new(kind, EPS);
        let mut buf = data.clone();
        let t = Instant::now();
        for chunk in buf.chunks_mut(4096) {
            b.insert_batch(chunk);
        }
        let batch_eps = N as f64 / t.elapsed().as_secs_f64();

        // Observed accuracy of the scalar-built sketch vs exact ranks,
        // normalized by the promised eps*n: > 1 would break Theorem 2's
        // union bound, so both backends gate on it in-bin.
        let mut max_dist = 0u64;
        for i in 1..=200u64 {
            let r = (N as u64 * i) / 201 + 1;
            let est = s.rank_query(r).expect("non-empty sketch");
            let lo = sorted.partition_point(|&x| x < est.value) as u64 + 1;
            let hi = sorted.partition_point(|&x| x <= est.value) as u64;
            let dist = if r < lo { lo - r } else { r.saturating_sub(hi) };
            max_dist = max_dist.max(dist);
        }
        // The promise is dist <= eps*n (+1 rank of discreteness slack).
        assert!(
            max_dist as f64 <= EPS * N as f64 + 1.0,
            "{kind}: observed rank error {max_dist} breaks the eps*n = {} bound",
            EPS * N as f64
        );
        let max_err = max_dist as f64 / (EPS * N as f64);

        // Merge cost: fold 8 shard sketches (N/8 items each) into one.
        let shards: Vec<AnySketch<u64>> = (0..SHARDS)
            .map(|i| {
                let mut sh = AnySketch::<u64>::new(kind, EPS);
                let mut chunk = data[i * (N / SHARDS)..(i + 1) * (N / SHARDS)].to_vec();
                sh.insert_batch(&mut chunk);
                sh
            })
            .collect();
        let t = Instant::now();
        let mut merged = AnySketch::<u64>::new(kind, EPS);
        for sh in &shards {
            merged.merge_from(sh);
        }
        let merge_secs = t.elapsed().as_secs_f64();
        assert_eq!(merged.len(), N as u64, "{kind}: merge lost items");

        // Weighted inserts: geometric weights (mean ~8.5 weight units per
        // pair), ingested natively. Throughput counts *weight units* —
        // the replicated-equivalent element rate — and the observed rank
        // error against exact-over-replicated gates within eps*W.
        const PAIRS: usize = 1 << 17;
        let mut lcg = 0x1357_9BDFu64;
        let pairs: Vec<(u64, u64)> = data[..PAIRS]
            .iter()
            .map(|&v| {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (v, (lcg >> 33) % 16 + 1)
            })
            .collect();
        let big_w: u64 = pairs.iter().map(|&(_, w)| w).sum();
        let mut ws = AnySketch::<u64>::new(kind, EPS);
        let mut buf = pairs.clone();
        let t = Instant::now();
        for chunk in buf.chunks_mut(4096) {
            ws.insert_weighted_batch(chunk);
        }
        let weighted_wps = big_w as f64 / t.elapsed().as_secs_f64();
        assert_eq!(ws.len(), big_w, "{kind}: weighted mass lost");
        let mut replicated: Vec<u64> = Vec::with_capacity(big_w as usize);
        for &(v, w) in &pairs {
            replicated.extend(std::iter::repeat_n(v, w as usize));
        }
        replicated.sort_unstable();
        let mut weighted_max_dist = 0u64;
        for i in 1..=200u64 {
            let r = (big_w * i) / 201 + 1;
            let est = ws.rank_query(r).expect("non-empty sketch");
            let lo = replicated.partition_point(|&x| x < est.value) as u64 + 1;
            let hi = replicated.partition_point(|&x| x <= est.value) as u64;
            let dist = if r < lo { lo - r } else { r.saturating_sub(hi) };
            weighted_max_dist = weighted_max_dist.max(dist);
        }
        assert!(
            weighted_max_dist as f64 <= EPS * big_w as f64 + 1.0,
            "{kind}: weighted rank error {weighted_max_dist} breaks the eps*W = {} bound",
            EPS * big_w as f64
        );
        let weighted_max_rel_err = weighted_max_dist as f64 / (EPS * big_w as f64);

        rows.push(SketchRow {
            name: kind.as_str(),
            update_eps,
            batch_eps,
            max_rel_err: max_err,
            merge_secs,
            memory_words: s.memory_words(),
            weighted_wps,
            weighted_max_rel_err,
        });
    }
    rows
}

/// Retention metrics: steady-state partition bytes of an engine
/// ingesting indefinitely under a byte-cap policy (deterministic given
/// the seed), and the cost of sliding-window queries over the retained
/// horizon. Returns `(byte_cap, steady_state_bytes, window_query_secs,
/// window_reads_per_query)`.
fn retention_metrics() -> (u64, u64, f64, f64) {
    let cap: u64 = 256 << 10; // 256 KiB on a 4096-byte-block device
    let cfg = HsqConfig::builder()
        .epsilon(0.01)
        .merge_threshold(10)
        .retention(RetentionPolicy::unbounded().with_max_bytes(cap))
        .build();
    let dev = MemDevice::new(4096);
    let mut h = HistStreamQuantiles::<u64, _>::new(std::sync::Arc::clone(&dev), cfg);
    let steps = 200usize;
    let step_items = 4096usize;
    let data: Vec<u64> = Dataset::Uniform.generator(42).take_vec(steps * step_items);
    let mut steady = 0u64;
    for (s, chunk) in data.chunks(step_items).enumerate() {
        h.ingest_step(chunk).expect("ingest");
        let bytes = h.warehouse().partition_bytes().expect("bytes");
        assert!(bytes <= cap, "step {s}: {bytes} bytes over the {cap} cap");
        if s >= steps / 2 {
            steady = steady.max(bytes); // past warmup: the steady state
        }
    }

    // Windowed-query cost over every aligned window, p50/p99 each.
    let windows = h.available_windows();
    let before = dev.stats().snapshot();
    let t = Instant::now();
    let mut queries = 0u32;
    for &w in &windows {
        for phi in [0.5, 0.99] {
            let _ = h.quantile_in_window(w, phi).expect("window query");
            queries += 1;
        }
    }
    let secs = t.elapsed().as_secs_f64() / queries as f64;
    let reads = (dev.stats().snapshot() - before).total_reads() as f64 / queries as f64;
    (cap, steady, secs, reads)
}

fn main() {
    // Full paper ratio: T = 100 archived steps + one live step.
    let scale = Scale {
        steps: 100,
        step_items: 50_000,
        block_size: 4096,
        memory_levels: [96 << 10; 5],
        memory_fixed: 96 << 10,
        repeats: 3,
    };
    let kappa = 10;
    let budget = scale.memory_fixed;
    figure_header(
        "Headline (paper section 1.2): accuracy at equal memory, N/m = 101",
        "~100x better accuracy than the best streaming algorithm; a few hundred disk accesses",
        &format!(
            "{} steps x {} items + {}-item stream, {} KB memory, kappa = {kappa}",
            scale.steps,
            scale.step_items,
            scale.step_items,
            budget >> 10
        ),
    );

    let mut records = Vec::new();
    for dataset in [Dataset::Normal, Dataset::NetTrace] {
        let mut s = build_scenario(dataset, budget, kappa, 2024, &scale);
        let ours = accurate_relative_error(&mut s);
        let (query_secs, reads) = query_cost(&s);
        let (gk, _, gk_words) =
            run_pure_streaming(StreamingAlgo::Gk, dataset, budget, kappa, 2024, &scale);
        println!(
            "\n{}: ours {ours:.3e} vs pure-GK {gk:.3e}  ->  {:.0}x better, {reads:.0} disk reads/query",
            dataset.name(),
            gk / ours.max(1e-12),
        );
        println!(
            "   memory: ours {} words, GK {} words (same budget)",
            s.engine.memory_words(),
            gk_words
        );
        records.push(format!(
            concat!(
                "    {{\"dataset\": \"{}\", \"accurate_rel_err\": {:.6e}, ",
                "\"pure_gk_rel_err\": {:.6e}, \"accuracy_ratio\": {:.2}, ",
                "\"disk_reads_per_query\": {:.1}, \"query_seconds\": {:.6}, ",
                "\"memory_words\": {}, \"gk_memory_words\": {}}}"
            ),
            dataset.name(),
            ours,
            gk,
            gk / ours.max(1e-12),
            reads,
            query_secs,
            s.engine.memory_words(),
            gk_words,
        ));
    }

    let (scalar_eps, batched_eps) = ingest_throughput();
    println!(
        "\ningest throughput: scalar {:.2} Melem/s, batched(4096) {:.2} Melem/s ({:.1}x)",
        scalar_eps / 1e6,
        batched_eps / 1e6,
        batched_eps / scalar_eps.max(1.0),
    );

    let (radix_eps, comparison_eps, radix_speedup) = radix_metrics();
    println!(
        "batch sort (4096): radix {:.1} Melem/s vs comparison {:.1} Melem/s ({radix_speedup:.2}x)",
        radix_eps / 1e6,
        comparison_eps / 1e6,
    );

    let merge_ns = merge_ns_per_item();
    println!("step-close merge (11 x 65536): {merge_ns:.1} ns/item");

    let sketch_rows = sketch_metrics();
    for r in &sketch_rows {
        println!(
            "sketch[{}]: update {:.2} Melem/s, batch(4096) {:.2} Melem/s, \
             weighted {:.2} Mweight/s (err {:.2} eps*W), \
             max err {:.2} eps*n, 8-way merge {:.0} us, {} words",
            r.name,
            r.update_eps / 1e6,
            r.batch_eps / 1e6,
            r.weighted_wps / 1e6,
            r.weighted_max_rel_err,
            r.max_rel_err,
            r.merge_secs * 1e6,
            r.memory_words,
        );
    }

    let (q_s_p50, q_s_p99, q_d_p50, q_d_p99, fresh_secs, reused_secs) = query_metrics();
    let build_ns = combined_build_ns_per_entry();
    println!(
        "query: bisection probes p50/p99 {q_s_p50:.0}/{q_s_p99:.0} summary-seeded vs \
         {q_d_p50:.0}/{q_d_p99:.0} domain-seeded; \
         snapshot per query {:.0} us vs reused {:.0} us; \
         combined-summary build (56 x 201 + 4 x 401) {build_ns:.1} ns/entry",
        fresh_secs * 1e6,
        reused_secs * 1e6,
    );

    let (byte_cap, steady_bytes, window_secs, window_reads) = retention_metrics();
    println!(
        "retention: steady-state {} KB under a {} KB cap; window queries {:.0} us, {:.1} reads",
        steady_bytes >> 10,
        byte_cap >> 10,
        window_secs * 1e6,
        window_reads,
    );

    let (detection, salvage, scrub_bps, flaky_retries, flaky_secs) = robustness_metrics();
    println!(
        "robustness: scrub detected {:.0}% of rotted blocks, salvaged {:.1}% on repair, \
         verify {:.0} blocks/s; flaky reads cost {:.2} retries/query ({:.0} us/query), \
         zero visible failures",
        detection * 100.0,
        salvage * 100.0,
        scrub_bps,
        flaky_retries,
        flaky_secs * 1e6,
    );

    let (served_p50_rounds, trips_per_query, served_secs, inproc_secs) = service_metrics();
    println!(
        "service: 2 nodes x 2 shards over loopback, {served_p50_rounds:.0} probe rounds p50, \
         {trips_per_query:.1} round trips/query; served {:.0} us/query vs {:.0} us in-process \
         ({:.1}x wire tax)",
        served_secs * 1e6,
        inproc_secs * 1e6,
        served_secs / inproc_secs.max(1e-9),
    );

    let (healthy_secs, failover_secs, extra_width_frac) = failover_metrics();
    println!(
        "failover: 2 groups x 2 replicas, preferred replicas partitioned away: \
         {:.0} us/query vs {:.0} us healthy ({:.2}x), answers byte-identical; \
         whole-group loss widens bounds by {:.0}% of the union (exactly the lost weight)",
        failover_secs * 1e6,
        healthy_secs * 1e6,
        failover_secs / healthy_secs.max(1e-9),
        extra_width_frac * 100.0,
    );

    let path =
        std::env::var("HSQ_BENCH_JSON").unwrap_or_else(|_| "BENCH_headline.json".to_string());
    let sketch_json = sketch_rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"update_elems_per_sec\": {:.0}, ",
                    "\"batch_4096_elems_per_sec\": {:.0}, ",
                    "\"weighted_insert_weight_per_sec\": {:.0}, ",
                    "\"weighted_max_rel_err\": {:.4}, \"max_rel_err\": {:.4}, ",
                    "\"merge_8way_seconds\": {:.8}, \"memory_words\": {}}}"
                ),
                r.name,
                r.update_eps,
                r.batch_eps,
                r.weighted_wps,
                r.weighted_max_rel_err,
                r.max_rel_err,
                r.merge_secs,
                r.memory_words
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"headline\",\n  \"steps\": {},\n  \"step_items\": {},\n",
            "  \"memory_bytes\": {},\n  \"kappa\": {},\n  \"datasets\": [\n{}\n  ],\n",
            "  \"ingest\": {{\"scalar_elems_per_sec\": {:.0}, ",
            "\"batched_4096_elems_per_sec\": {:.0}, \"speedup\": {:.2}, ",
            "\"radix_sort_elems_per_sec\": {:.0}, ",
            "\"comparison_sort_elems_per_sec\": {:.0}, \"radix_speedup\": {:.2}, ",
            "\"merge_ns_per_item\": {:.1}}},\n",
            "  \"sketch\": {{\"epsilon\": 0.01, \"elems\": 524288, \"backends\": [\n{}\n  ]}},\n",
            "  \"query\": {{\"summary_p50_probes\": {:.1}, \"summary_p99_probes\": {:.1}, ",
            "\"domain_p50_probes\": {:.1}, \"domain_p99_probes\": {:.1}, ",
            "\"combined_build_ns_per_entry\": {:.1}, ",
            "\"fresh_snapshot_query_seconds\": {:.8}, ",
            "\"reused_snapshot_query_seconds\": {:.8}}},\n",
            "  \"retention\": {{\"byte_cap\": {}, \"steady_state_bytes\": {}, ",
            "\"window_query_seconds\": {:.6}, \"window_disk_reads_per_query\": {:.1}}},\n",
            "  \"robustness\": {{\"detection_hit_rate\": {:.3}, ",
            "\"salvage_hit_rate\": {:.3}, \"scrub_blocks_per_sec\": {:.0}, ",
            "\"flaky_retry_disk_reads_per_query\": {:.2}, ",
            "\"flaky_query_seconds\": {:.8}}},\n",
            "  \"service\": {{\"nodes\": 2, \"shards_per_node\": 2, ",
            "\"served_p50_probe_rounds\": {:.1}, ",
            "\"round_trips_per_query\": {:.2}, ",
            "\"served_query_seconds\": {:.8}, ",
            "\"inprocess_query_seconds\": {:.8}, ",
            "\"failover\": {{\"groups\": 2, \"replicas\": 2, ",
            "\"healthy_query_seconds\": {:.8}, ",
            "\"failover_query_seconds\": {:.8}, ",
            "\"degraded_extra_width_frac\": {:.4}}}}}\n}}\n"
        ),
        scale.steps,
        scale.step_items,
        budget,
        kappa,
        records.join(",\n"),
        scalar_eps,
        batched_eps,
        batched_eps / scalar_eps.max(1.0),
        radix_eps,
        comparison_eps,
        radix_speedup,
        merge_ns,
        sketch_json,
        q_s_p50,
        q_s_p99,
        q_d_p50,
        q_d_p99,
        build_ns,
        fresh_secs,
        reused_secs,
        byte_cap,
        steady_bytes,
        window_secs,
        window_reads,
        detection,
        salvage,
        scrub_bps,
        flaky_retries,
        flaky_secs,
        served_p50_rounds,
        trips_per_query,
        served_secs,
        inproc_secs,
        healthy_secs,
        failover_secs,
        extra_width_frac,
    );
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
