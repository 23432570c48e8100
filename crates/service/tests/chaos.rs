//! Deterministic network-chaos sweep over a loopback fleet.
//!
//! The harness mirrors the storage layer's crash-point discipline: a
//! clean run through a [`FaultPlan`] with nothing armed *learns* how
//! many transport ops (`M`) and frame receives (`R`) a full
//! construct → session → query workload performs; the sweep then
//! replays the workload once per schedule point — `DropConn(n)` and
//! `Delay(n)` for every op `n < M`, `TornFrame(m)` for every receive
//! `m < R`, a kill-one-replica `Partition` starting at every op index,
//! and `SlowNode` timeouts — asserting:
//!
//! * **zero visible failures** whenever a replica of every group
//!   survives: every [`ServedQuery`] byte-matches the healthy
//!   baseline's (value, ranks, bisection steps, probe rounds, round
//!   trips), failovers and retries fully hidden under the session API;
//! * **correct widened bounds** when every replica of a group is down:
//!   the degraded interval is exactly `±ε·m_reachable` further widened
//!   by the missing group's recorded weight, it contains a true rank of
//!   the served value over the reachable union, and `strict` mode
//!   refuses with the typed error instead;
//! * a fleet whose *only* replica set is lost fails **loudly** (typed
//!   errors), never with a silently wrong answer;
//! * the session's probe memo never outlives a membership change: a rank
//!   repeated after a group loss is re-probed and degraded.
//!
//! Fleets: 1×1 (no replication: transient faults must still be
//! invisible via reconnect), 2×2, and 3×2. Seeds {0, 7, 23} vary the
//! ingested data and the queried ranks; each fleet shape is its own test,
//! so a test-name filter splits the sweep.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hsq_core::{HsqConfig, ShardedEngine};
use hsq_service::{
    strict_refusal_weight, Coordinator, FaultConnector, FaultPlan, FleetConfig, NetFault,
    NetRetryPolicy, QuantileServer, ServedQuery, ServerHandle, TcpConnector,
};
use hsq_storage::MemDevice;
use hsq_workload::{Dataset, SampledTelemetryGen};

const EPS: f64 = 0.02;
const STEP_ITEMS: usize = 250;
const STEPS: usize = 2; // archived steps; a live stream tail follows
const MAX_WEIGHT: u64 = 4;
const QUERIES: usize = 3;
const POLICY: NetRetryPolicy = NetRetryPolicy::fast();

fn config() -> HsqConfig {
    HsqConfig::builder()
        .epsilon(EPS)
        .merge_threshold(4)
        .cache_blocks(16)
        .build()
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Data seeds every sweep runs.
const SEEDS: [u64; 3] = [0, 7, 23];

static NEXT_TENANT: AtomicU64 = AtomicU64::new(1000);

fn next_tenant() -> u64 {
    NEXT_TENANT.fetch_add(1, Ordering::SeqCst)
}

/// A spawned fleet plus everything the assertions need to know about
/// what it holds.
struct Fleet {
    handles: Vec<ServerHandle>,
    /// Flattened replica addresses, group-major — the fault plans'
    /// replica indices point into this.
    addrs: Vec<String>,
    config: FleetConfig,
    /// All `(item, weight)` pairs ingested per group.
    group_data: Vec<Vec<(u64, u64)>>,
    /// The live-stream (unarchived) weight per group.
    group_stream_weight: Vec<u64>,
    epsilon: f64,
}

impl Fleet {
    /// Spawn `groups × replicas` single-shard nodes, feed every replica
    /// of a group identical data (the coordinator's replicated writes),
    /// and record the oracle.
    fn spawn(groups: usize, replicas: usize, seed: u64) -> Fleet {
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        let mut group_addrs = Vec::new();
        for _ in 0..groups {
            let mut g = Vec::new();
            for _ in 0..replicas {
                let engine =
                    ShardedEngine::<u64, _>::with_shards(1, config(), |_| MemDevice::new(4096));
                let handle = QuantileServer::new(engine)
                    .spawn(TcpListener::bind("127.0.0.1:0").unwrap())
                    .unwrap();
                let addr = handle.addr().to_string();
                handles.push(handle);
                addrs.push(addr.clone());
                g.push(addr);
            }
            group_addrs.push(g);
        }
        let fleet_config = FleetConfig::new(group_addrs).unwrap();

        let mut gen = SampledTelemetryGen::new(Dataset::Wikipedia, seed, MAX_WEIGHT);
        let mut coord = Coordinator::<u64>::connect_fleet_with(
            &fleet_config,
            Arc::new(TcpConnector::from_policy(&POLICY)),
            POLICY,
        )
        .unwrap();
        let mut group_data = vec![Vec::new(); groups];
        let mut group_stream_weight = vec![0u64; groups];
        for step in 0..=STEPS {
            let batch = gen.take_pairs(STEP_ITEMS);
            let mut parts = vec![Vec::new(); groups];
            for (i, &(v, w)) in batch.iter().enumerate() {
                parts[i % groups].push((v, w));
                group_data[i % groups].push((v, w));
                if step == STEPS {
                    group_stream_weight[i % groups] += w;
                }
            }
            for (g, part) in parts.iter().enumerate() {
                coord.ingest(g, part).unwrap();
            }
            if step < STEPS {
                coord.end_step().unwrap();
            }
        }
        let epsilon = coord.session(next_tenant()).unwrap().query_epsilon();
        Fleet {
            handles,
            addrs,
            config: fleet_config,
            group_data,
            group_stream_weight,
            epsilon,
        }
    }

    fn total_weight(&self) -> u64 {
        self.group_data.iter().flatten().map(|&(_, w)| w).sum()
    }

    /// Weight reachable when group 0 is lost.
    fn reachable_weight(&self) -> u64 {
        self.group_data[1..].iter().flatten().map(|&(_, w)| w).sum()
    }

    /// `(weight strictly below v, weight at or below v)` over the union
    /// of groups `from..`.
    fn weighted_rank(&self, from: usize, v: u64) -> (u64, u64) {
        let mut lt = 0u64;
        let mut le = 0u64;
        for &(x, w) in self.group_data[from..].iter().flatten() {
            if x < v {
                lt += w;
            }
            if x <= v {
                le += w;
            }
        }
        (lt, le)
    }

    /// One full workload under `plan`: construct a coordinator through
    /// a fault-injecting connector, open a session, run the rank
    /// queries.
    fn run(
        &self,
        plan: Arc<FaultPlan>,
        strict: bool,
        ranks: &[u64],
    ) -> io::Result<Vec<ServedQuery<u64>>> {
        let connector = Arc::new(FaultConnector::new(
            Arc::new(TcpConnector::from_policy(&POLICY)),
            plan,
            self.addrs.clone(),
        ));
        let fleet_config = self.config.clone().strict(strict);
        let mut coord = Coordinator::<u64>::connect_fleet_with(&fleet_config, connector, POLICY)?;
        let mut sess = coord.session(next_tenant())?;
        let mut out = Vec::with_capacity(ranks.len());
        for &r in ranks {
            out.push(sess.rank_query(r)?.expect("fleet is non-empty"));
        }
        Ok(out)
    }

    fn shutdown(self) {
        for h in self.handles {
            h.shutdown();
        }
    }
}

fn assert_same_answer(g: &ServedQuery<u64>, w: &ServedQuery<u64>, what: &str) {
    assert_eq!(g.outcome.value, w.outcome.value, "{what}: value");
    assert_eq!(
        g.outcome.estimated_rank, w.outcome.estimated_rank,
        "{what}: estimated_rank"
    );
    assert_eq!(
        g.outcome.bisection_steps, w.outcome.bisection_steps,
        "{what}: bisection_steps"
    );
    assert_eq!(g.outcome.rank_lo, w.outcome.rank_lo, "{what}: rank_lo");
    assert_eq!(g.outcome.rank_hi, w.outcome.rank_hi, "{what}: rank_hi");
    assert_eq!(g.outcome.degraded, w.outcome.degraded, "{what}: degraded");
    assert_eq!(
        g.outcome.quarantined, w.outcome.quarantined,
        "{what}: quarantined"
    );
    assert_eq!(g.probe_rounds, w.probe_rounds, "{what}: probe_rounds");
    assert_eq!(g.round_trips, w.round_trips, "{what}: round_trips");
    assert_eq!(g.missing_weight, 0, "{what}: missing_weight");
}

fn assert_same_answers(got: &[ServedQuery<u64>], want: &[ServedQuery<u64>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: answer count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_same_answer(g, w, &format!("{what} q{i}"));
    }
}

/// The full sweep for one fleet shape and one seed.
fn sweep(groups: usize, replicas: usize, seed: u64) {
    let fleet = Fleet::spawn(groups, replicas, seed);
    let total = fleet.total_weight();
    let ranks: Vec<u64> = {
        let mut rng = seed ^ 0xC4A05;
        (0..QUERIES).map(|_| lcg(&mut rng) % total + 1).collect()
    };

    // Clean run: learn the op/recv counts and the healthy baseline.
    let clean = FaultPlan::clean();
    let baseline = fleet
        .run(Arc::clone(&clean), false, &ranks)
        .expect("healthy fleet must serve");
    let ops = clean.ops();
    let recvs = clean.recvs();
    assert!(clean.fired().is_empty());
    for q in &baseline {
        assert_eq!(q.failovers, 0, "healthy baseline must not fail over");
        assert_eq!(q.missing_weight, 0);
        assert!(!q.outcome.degraded);
    }

    // --- One-shot link faults: invisible in EVERY fleet, including
    // 1×1 (the retry ladder reconnects to the same replica).
    for n in 0..ops {
        for (fault, label) in [
            (NetFault::DropConn { op: n }, "DropConn"),
            (NetFault::Delay { op: n }, "Delay"),
        ] {
            let plan = FaultPlan::script(vec![fault]);
            let got = fleet
                .run(plan, false, &ranks)
                .unwrap_or_else(|e| panic!("{label}({n}) was visible: {e}"));
            assert_same_answers(&got, &baseline, &format!("{label}({n})"));
        }
    }
    for m in 0..recvs {
        let plan = FaultPlan::script(vec![NetFault::TornFrame { recv: m }]);
        let got = fleet
            .run(plan, false, &ranks)
            .unwrap_or_else(|e| panic!("TornFrame({m}) was visible: {e}"));
        assert_same_answers(&got, &baseline, &format!("TornFrame({m})"));
    }

    // --- Kill one replica for good, at every schedule index.
    for rid in 0..fleet.addrs.len() {
        for n in 0..ops {
            let plan = FaultPlan::script(vec![NetFault::Partition {
                replicas: vec![rid],
                from: n,
                to: u64::MAX,
            }]);
            let result = fleet.run(plan, false, &ranks);
            if replicas > 1 {
                // A sibling survives: answers must byte-match after the
                // failover re-seed.
                let got = result
                    .unwrap_or_else(|e| panic!("kill replica {rid} at op {n} was visible: {e}"));
                assert_same_answers(&got, &baseline, &format!("kill replica {rid} at op {n}"));
            } else {
                // The group's only replica is gone: a loud typed error,
                // never a silently wrong answer.
                assert!(
                    result.is_err(),
                    "losing the only replica {rid} at op {n} must fail loudly"
                );
            }
        }
    }

    // --- Slow nodes: periodic deadline blowouts on one replica.
    // Excluded for 1×1: a persistently slow sole replica can exhaust
    // the whole retry ladder, which is a (loud) availability loss, not
    // a maskable fault.
    if replicas > 1 {
        for rid in 0..fleet.addrs.len() {
            for period in [1u64, 5] {
                let plan = FaultPlan::script(vec![NetFault::SlowNode {
                    replica: rid,
                    period,
                }]);
                let got = fleet.run(plan, false, &ranks).unwrap_or_else(|e| {
                    panic!("SlowNode(replica {rid}, period {period}) was visible: {e}")
                });
                assert_same_answers(
                    &got,
                    &baseline,
                    &format!("SlowNode(replica {rid}, period {period})"),
                );
            }
        }
    }

    // --- Whole-group loss: degraded answers with exactly-priced
    // widening (fleets with something left to serve from).
    if groups > 1 {
        let group0: Vec<usize> = (0..replicas).collect();
        let w0: u64 = fleet.group_data[0].iter().map(|&(_, w)| w).sum();
        let reach_total = fleet.reachable_weight();
        let reach_stream: u64 = fleet.group_stream_weight[1..].iter().sum();
        let eps_m = (fleet.epsilon * reach_stream as f64).floor() as u64;
        let mut degraded_queries = 0usize;
        for n in 0..ops {
            let plan = FaultPlan::script(vec![NetFault::Partition {
                replicas: group0.clone(),
                from: n,
                to: u64::MAX,
            }]);
            match fleet.run(plan, false, &ranks) {
                Err(_) => {
                    // Legitimate only while group 0's weight was never
                    // observed (the partition predates its first pin):
                    // with no recorded W the loss cannot be priced.
                    // Observation happens within the first few session
                    // ops; everything after must degrade, not fail.
                }
                Ok(got) => {
                    // The partition arms mid-run: queries finishing
                    // before op `n` reaches group 0 stay byte-identical
                    // to the healthy baseline; from the first query the
                    // loss touches, answers are degraded — and stay so
                    // (down is sticky until refresh).
                    let mut lost = false;
                    for (i, q) in got.iter().enumerate() {
                        if !q.outcome.degraded {
                            assert!(
                                !lost,
                                "group loss at op {n} q{i}: healthy answer after a degraded one"
                            );
                            assert_same_answer(
                                q,
                                &baseline[i],
                                &format!("group loss at op {n} q{i} (pre-fault)"),
                            );
                            continue;
                        }
                        lost = true;
                        degraded_queries += 1;
                        assert_eq!(
                            q.missing_weight, w0,
                            "group loss at op {n} q{i}: missing weight"
                        );
                        assert_eq!(
                            q.outcome.rank_hi,
                            q.outcome.estimated_rank + eps_m + w0,
                            "group loss at op {n} q{i}: upper bound must widen by exactly W₀"
                        );
                        assert_eq!(
                            q.outcome.rank_lo,
                            q.outcome.estimated_rank.saturating_sub(eps_m),
                            "group loss at op {n} q{i}: lower bound"
                        );
                        // The widened interval must contain a true rank
                        // of the served value over the reachable union.
                        let (lt, le) = fleet.weighted_rank(1, q.outcome.value);
                        let true_lo = lt + 1;
                        let true_hi = le.max(true_lo);
                        assert!(
                            true_lo <= q.outcome.rank_hi && true_hi >= q.outcome.rank_lo,
                            "group loss at op {n} q{i}: true ranks [{true_lo}, {true_hi}] \
                             outside degraded interval [{}, {}] (reachable total {reach_total})",
                            q.outcome.rank_lo,
                            q.outcome.rank_hi
                        );
                    }
                }
            }
        }
        assert!(
            degraded_queries > 0,
            "sweep never exercised the degraded path"
        );

        // Strict mode: same group loss, but after the session is open
        // the answer is a typed refusal carrying the missing weight.
        let plan = FaultPlan::script(vec![NetFault::Partition {
            replicas: group0.clone(),
            from: ops.saturating_sub(QUERIES as u64),
            to: u64::MAX,
        }]);
        let err = fleet
            .run(plan, true, &ranks)
            .expect_err("strict fleet must refuse degraded answers");
        assert_eq!(
            strict_refusal_weight(&err),
            Some(w0),
            "strict refusal must be typed and carry the missing weight: {err}"
        );

        // And strict mode does NOT refuse maskable faults.
        let plan = FaultPlan::script(vec![NetFault::DropConn { op: ops / 2 }]);
        let got = fleet
            .run(plan, true, &ranks)
            .expect("strict mode must still mask single-replica faults");
        assert_same_answers(&got, &baseline, "strict + DropConn");
    }

    fleet.shutdown();
}

/// The probe memo never outlives a membership change: ask `[r, r2, r]`
/// on a 2×2 fleet with group 0 partitioned away after the first query.
/// The repeat of `r` must not be served from the healthy epoch's memo: it
/// is degraded, widened by exactly W₀, and spends probe rounds.
fn memo_dropped_on_group_loss(seed: u64) {
    let fleet = Fleet::spawn(2, 2, seed);
    // Both ranks inside the reachable union and half of it apart, so the
    // degraded answers to `r` and `r2` bisect to different values (ranks
    // past the reachable total would clamp onto the same one).
    let half = fleet.reachable_weight() / 2;
    let mut rng = seed ^ 0x3E30;
    let r = half / 2 + lcg(&mut rng) % (half / 2) + 1;
    let r2 = r + half;

    // Learn how many transport ops the first query ends at.
    let clean = FaultPlan::clean();
    let first = fleet.run(Arc::clone(&clean), false, &[r]).expect("healthy");
    let plan = FaultPlan::script(vec![NetFault::Partition {
        replicas: vec![0, 1],
        from: clean.ops(),
        to: u64::MAX,
    }]);
    let got = fleet
        .run(plan, false, &[r, r2, r])
        .expect("degraded, not failed");
    assert_same_answer(&got[0], &first[0], &format!("seed {seed}: before the loss"));

    let w0: u64 = fleet.group_data[0].iter().map(|&(_, w)| w).sum();
    let reach_stream: u64 = fleet.group_stream_weight[1..].iter().sum();
    let eps_m = (fleet.epsilon * reach_stream as f64).floor() as u64;
    let repeat = &got[2];
    assert!(
        repeat.outcome.degraded,
        "seed {seed}: repeat of r not degraded"
    );
    assert_eq!(repeat.missing_weight, w0, "seed {seed}: missing weight");
    assert_eq!(
        repeat.outcome.rank_hi,
        repeat.outcome.estimated_rank + eps_m + w0,
        "seed {seed}: upper bound must widen by exactly W₀"
    );
    assert!(
        repeat.probe_rounds > 0,
        "seed {seed}: repeat of r answered from the healthy epoch's memo"
    );
    fleet.shutdown();
}

#[test]
fn probe_memo_never_outlives_a_membership_change() {
    for seed in SEEDS {
        memo_dropped_on_group_loss(seed);
    }
}

#[test]
fn chaos_sweep_fleet_1x1() {
    for seed in SEEDS {
        sweep(1, 1, seed);
    }
}

#[test]
fn chaos_sweep_fleet_2x2() {
    for seed in SEEDS {
        sweep(2, 2, seed);
    }
}

#[test]
fn chaos_sweep_fleet_3x2() {
    for seed in SEEDS {
        sweep(3, 2, seed);
    }
}
