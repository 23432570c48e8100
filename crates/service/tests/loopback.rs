//! Loopback integration: a [`QuantileServer`] on 127.0.0.1 must serve
//! answers **byte-identical** to the in-process [`ShardedSnapshot`] fed
//! the same data — same value, same estimated rank, same bisection step
//! count, same rank interval — because the coordinator rebuilds the
//! identical combined summary and runs the identical bisection, just
//! with probes over TCP. A multi-node fleet (differently partitioned
//! data) is additionally held to Theorem 2's `ε·m` bound against a
//! sorted oracle.

use std::net::TcpListener;

use hsq_core::{HsqConfig, QueryOutcome, ShardedEngine};
use hsq_service::{Coordinator, QuantileServer, ServedQuery, ServerHandle};
use hsq_storage::MemDevice;
use hsq_workload::{Dataset, SampledTelemetryGen};

const EPS: f64 = 0.02;
const STEP_ITEMS: usize = 2_500;
const STEPS: usize = 3; // archived steps; a live stream tail follows
const MAX_WEIGHT: u64 = 4;

fn config() -> HsqConfig {
    // query_epsilon = 4 * (EPS / 2) = 2 * EPS; small cache budget keeps
    // the probe paths honest.
    HsqConfig::builder()
        .epsilon(EPS)
        .merge_threshold(4)
        .cache_blocks(16)
        .build()
}

fn mk_engine(shards: usize) -> ShardedEngine<u64, MemDevice> {
    ShardedEngine::with_shards(shards, config(), |_| MemDevice::new(4096))
}

/// The per-step weighted batches every engine in a test ingests.
fn batches(seed: u64) -> Vec<Vec<(u64, u64)>> {
    let mut gen = SampledTelemetryGen::new(Dataset::Wikipedia, seed, MAX_WEIGHT);
    (0..=STEPS).map(|_| gen.take_pairs(STEP_ITEMS)).collect()
}

/// Feed the same batches to an in-process engine and to served nodes
/// (`route(step_batch)` splits each batch across nodes), archiving all
/// but the last batch.
fn feed(
    local: &mut ShardedEngine<u64, MemDevice>,
    coord: &mut Coordinator<u64>,
    seed: u64,
    route: impl Fn(&[(u64, u64)], usize) -> Vec<Vec<(u64, u64)>>,
) {
    let nodes = coord.num_groups();
    for (i, batch) in batches(seed).iter().enumerate() {
        local.stream_extend_weighted(batch);
        for (node, part) in route(batch, nodes).iter().enumerate() {
            coord.ingest(node, part).unwrap();
        }
        if i < STEPS {
            local.end_time_step().unwrap();
            coord.end_step().unwrap();
        }
    }
}

fn spawn_node(engine: ShardedEngine<u64, MemDevice>) -> ServerHandle {
    QuantileServer::new(engine)
        .spawn(TcpListener::bind("127.0.0.1:0").unwrap())
        .unwrap()
}

/// An in-process engine and a single served node, both `shards` wide,
/// fed the same batches — the pair every byte-match test compares.
fn twin_node(
    shards: usize,
    seed: u64,
) -> (
    ShardedEngine<u64, MemDevice>,
    ServerHandle,
    Coordinator<u64>,
) {
    let mut local = mk_engine(shards);
    let handle = spawn_node(mk_engine(shards));
    let mut coord = Coordinator::<u64>::connect(&[handle.addr()]).unwrap();
    feed(&mut local, &mut coord, seed, |b, _| vec![b.to_vec()]);
    (local, handle, coord)
}

/// Everything except `io` (disk reads happen on the node, not the
/// coordinator) must match bit for bit.
fn assert_outcome_eq(served: &QueryOutcome<u64>, local: &QueryOutcome<u64>, what: &str) {
    assert_eq!(served.value, local.value, "{what}: value");
    assert_eq!(
        served.estimated_rank, local.estimated_rank,
        "{what}: estimated_rank"
    );
    assert_eq!(
        served.bisection_steps, local.bisection_steps,
        "{what}: bisection_steps"
    );
    assert_eq!(served.rank_lo, local.rank_lo, "{what}: rank_lo");
    assert_eq!(served.rank_hi, local.rank_hi, "{what}: rank_hi");
    assert_eq!(served.degraded, local.degraded, "{what}: degraded");
    assert_eq!(served.quarantined, local.quarantined, "{what}: quarantined");
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// `n` seeded ranks in `1..=total`.
fn seeded_ranks(seed: u64, total: u64, n: usize) -> Vec<u64> {
    let mut rng = seed;
    (0..n).map(|_| lcg(&mut rng) % total + 1).collect()
}

/// Single node hosting the same shard count as the in-process engine:
/// every query class must byte-match, across a seeded random rank
/// sweep, and p50 probe rounds must stay ≤ 4.
fn parity_for_shards(shards: usize) {
    let (local, handle, mut coord) = twin_node(shards, 0xA11CE + shards as u64);
    let snap = local.snapshot();
    let mut sess = coord.session(1).unwrap();
    assert_eq!(sess.total_len(), snap.total_len(), "session total");
    assert_eq!(
        sess.stream_len(),
        snap.stream_len(),
        "session stream weight"
    );
    assert_eq!(
        sess.query_epsilon().to_bits(),
        snap.query_epsilon().to_bits(),
        "session epsilon"
    );

    // Property sweep: seeded random ranks across the whole domain.
    let total = snap.total_len();
    let mut rng = 0xDEAD_0000 + shards as u64;
    let mut rounds = Vec::new();
    for _ in 0..30 {
        let r = lcg(&mut rng) % total + 1;
        let served = sess.rank_query(r).unwrap().unwrap();
        let local_o = snap.rank_query(r).unwrap().unwrap();
        assert_outcome_eq(
            &served.outcome,
            &local_o,
            &format!("rank {r} ({shards} shards)"),
        );
        assert_eq!(
            served.round_trips, served.probe_rounds as u64,
            "single node: one trip per round"
        );
        rounds.push(served.probe_rounds);
    }
    rounds.sort_unstable();
    let p50 = rounds[rounds.len() / 2];
    assert!(p50 <= 4, "{shards} shards: p50 probe rounds {p50} > 4");

    // Quantiles, quick path, and windows.
    for phi in [0.01, 0.25, 0.5, 0.75, 0.95, 1.0] {
        let served = sess.quantile(phi).unwrap().unwrap();
        let local_v = snap.quantile(phi).unwrap().unwrap();
        assert_eq!(served.outcome.value, local_v, "phi {phi}");
        assert_eq!(
            sess.quantile_quick(phi).unwrap(),
            snap.quantile_quick(phi),
            "quick phi {phi}"
        );
    }
    let windows = snap.available_windows();
    assert!(!windows.is_empty(), "test needs at least one exact window");
    for &w in &windows {
        let mut rng = 0xAB5 + w;
        let wtotal = snap.scope(Some(w)).unwrap().total();
        for _ in 0..6 {
            let r = lcg(&mut rng) % wtotal + 1;
            let served = sess.rank_in_window(w, r).unwrap().unwrap();
            let local_o = snap.rank_in_window(w, r).unwrap().unwrap();
            assert_outcome_eq(&served.outcome, &local_o, &format!("window {w} rank {r}"));
        }
        for phi in [0.1, 0.5, 0.9] {
            let served = sess.quantile_in_window(w, phi).unwrap().unwrap();
            let local_v = snap.quantile_in_window(w, phi).unwrap().unwrap();
            assert_eq!(served.outcome.value, local_v, "window {w} phi {phi}");
        }
    }
    // A window no node can answer exactly is None on both sides.
    let bogus = windows.iter().max().unwrap() + 1000;
    assert!(snap.rank_in_window(bogus, 1).unwrap().is_none());
    assert!(sess.rank_in_window(bogus, 1).unwrap().is_none());

    handle.shutdown();
}

#[test]
fn served_answers_byte_match_in_process_1_shard() {
    parity_for_shards(1);
}

#[test]
fn served_answers_byte_match_in_process_2_shards() {
    parity_for_shards(2);
}

#[test]
fn served_answers_byte_match_in_process_8_shards() {
    parity_for_shards(8);
}

/// A pinned epoch is immutable, so a rank asked twice on one session is
/// answered from the session's probe memo: the same outcome as the first
/// ask and as in-process, with nothing sent.
#[test]
fn repeated_ranks_are_answered_without_rounds() {
    let (local, handle, mut coord) = twin_node(2, 0x4E40);
    let snap = local.snapshot();
    let ranks = seeded_ranks(0x4E40, snap.total_len(), 20);
    let mut sess = coord.session(3).unwrap();
    let first: Vec<ServedQuery<u64>> = ranks
        .iter()
        .map(|&r| sess.rank_query(r).unwrap().unwrap())
        .collect();
    // Distinct ranks can share probe values, so only the very first query
    // is sure to find the memo empty.
    assert!(
        first[0].probe_rounds > 0,
        "the first query on a session probes"
    );
    for (&r, first) in ranks.iter().zip(&first) {
        let again = sess.rank_query(r).unwrap().unwrap();
        assert_eq!(
            again.outcome, first.outcome,
            "rank {r}: repeat vs first ask"
        );
        let local_o = snap.rank_query(r).unwrap().unwrap();
        assert_outcome_eq(&again.outcome, &local_o, &format!("repeated rank {r}"));
        assert_eq!(again.probe_rounds, 0, "rank {r}: repeat sent probe rounds");
        assert_eq!(again.round_trips, 0, "rank {r}: repeat sent round trips");
    }
    handle.shutdown();
}

/// Each window's scope has its own memo: a windowed sweep after a
/// full-union sweep of the same ranks still probes, and byte-matches
/// in-process (a memo shared across scopes would hand the window the
/// full union's bounds wherever their probes coincide).
#[test]
fn each_window_keeps_its_own_memo() {
    let (local, handle, mut coord) = twin_node(1, 0x3E3);
    let snap = local.snapshot();
    let w = *snap
        .available_windows()
        .iter()
        .min()
        .expect("an exact window");
    let ranks = seeded_ranks(0x3E3, snap.scope(Some(w)).unwrap().total(), 30);
    let mut sess = coord.session(4).unwrap();
    for &r in &ranks {
        sess.rank_query(r).unwrap().unwrap();
    }
    for (i, &r) in ranks.iter().enumerate() {
        let windowed = sess.rank_in_window(w, r).unwrap().unwrap();
        if i == 0 {
            assert!(
                windowed.probe_rounds > 0,
                "window {w} answered from the full union's memo"
            );
        }
        let local_o = snap.rank_in_window(w, r).unwrap().unwrap();
        assert_outcome_eq(&windowed.outcome, &local_o, &format!("window {w} rank {r}"));
        let again = sess.rank_in_window(w, r).unwrap().unwrap();
        assert_eq!(again.outcome, windowed.outcome);
        assert_eq!(
            again.probe_rounds, 0,
            "window {w}: repeat sent probe rounds"
        );
    }
    handle.shutdown();
}

/// Ingest `batch` into both twins (the node through `coord`) and archive
/// it as one step.
fn archive_step(
    local: &mut ShardedEngine<u64, MemDevice>,
    coord: &mut Coordinator<u64>,
    batch: &[(u64, u64)],
) {
    local.stream_extend_weighted(batch);
    local.end_time_step().unwrap();
    coord.ingest(0, batch).unwrap();
    coord.end_step().unwrap();
}

/// New data and a step close leave a pinned session (and its memo)
/// untouched; `refresh()` drops the memo with the scope, so the same
/// ranks probe again and match the new in-process snapshot.
#[test]
fn refresh_drops_the_probe_memo() {
    // Two archived steps and no live stream: `ε·m = 0`, so every
    // bisection is exact, and a third step holding only items above the
    // maximum (no merge yet) leaves every bracket below it as it was. A
    // rank then probes the very same values in both epochs, and only a
    // memo that outlived the refresh could answer them.
    let mut local = mk_engine(1);
    let handle = spawn_node(mk_engine(1));
    let mut coord = Coordinator::<u64>::connect(&[handle.addr()]).unwrap();
    let data = batches(0x5EF);
    for batch in &data[..2] {
        archive_step(&mut local, &mut coord, batch);
    }
    let top = data[..2].iter().flatten().map(|&(v, _)| v).max().unwrap();
    let more: Vec<(u64, u64)> = (top + 1..=top + 500).map(|v| (v, 1)).collect();

    let snap = local.snapshot();
    let ranks = seeded_ranks(0x5EF, snap.total_len(), 30);
    let mut sess = coord.session(6).unwrap();
    let before: Vec<ServedQuery<u64>> = ranks
        .iter()
        .map(|&r| sess.rank_query(r).unwrap().unwrap())
        .collect();
    for (&r, served) in ranks.iter().zip(&before) {
        let local_o = snap.rank_query(r).unwrap().unwrap();
        assert_outcome_eq(
            &served.outcome,
            &local_o,
            &format!("rank {r} before new data"),
        );
    }
    drop(snap);

    // Close the new step through a second connection (the session holds
    // the first mutably).
    let mut other = Coordinator::<u64>::connect(&[handle.addr()]).unwrap();
    archive_step(&mut local, &mut other, &more);
    for (&r, first) in ranks.iter().zip(&before) {
        let pinned = sess.rank_query(r).unwrap().unwrap();
        assert_eq!(
            pinned.outcome, first.outcome,
            "rank {r}: pinned epoch moved"
        );
        assert_eq!(pinned.probe_rounds, 0, "rank {r}: pinned repeat probed");
    }

    sess.refresh().unwrap();
    let snap = local.snapshot();
    for (i, &r) in ranks.iter().enumerate() {
        let after = sess.rank_query(r).unwrap().unwrap();
        if i == 0 {
            assert!(after.probe_rounds > 0, "refresh kept the old epoch's memo");
        }
        let local_o = snap.rank_query(r).unwrap().unwrap();
        assert_outcome_eq(&after.outcome, &local_o, &format!("rank {r} after refresh"));
    }
    handle.shutdown();
}

/// The memo is bounded (4,096 probes, cleared wholesale when full). A
/// session that asks more distinct ranks than that still answers every
/// one exactly as in-process. With no live stream, `ε·m = 0` and every
/// rank bisects to its own value, so distinct ranks are distinct probes.
#[test]
fn memo_overflow_keeps_answers_identical() {
    const MEMO_CAP: u64 = 4096;
    const ITEMS: u64 = 5_000;
    let mut local = mk_engine(1);
    let handle = spawn_node(mk_engine(1));
    let mut coord = Coordinator::<u64>::connect(&[handle.addr()]).unwrap();
    let values: Vec<(u64, u64)> = (0..ITEMS).map(|i| (i * 7_919 % 100_003, 1)).collect();
    for step in values.chunks(ITEMS as usize / 2) {
        archive_step(&mut local, &mut coord, step);
    }
    let snap = local.snapshot();
    assert_eq!(snap.stream_len(), 0);

    let mut sess = coord.session(8).unwrap();
    let mut sent = 0u64;
    for r in 1..=MEMO_CAP + 100 {
        let served = sess.rank_query(r).unwrap().unwrap();
        let local_o = snap.rank_query(r).unwrap().unwrap();
        assert_outcome_eq(&served.outcome, &local_o, &format!("rank {r}"));
        sent += served.probe_rounds as u64;
    }
    // Every round sent is one memo insert.
    assert!(sent > MEMO_CAP, "only {sent} probes: the memo never filled");
    // The earliest ranks' own probes went with the first wholesale clear:
    // asking them again probes afresh and still matches.
    let mut resent = 0u64;
    for r in 1..=20 {
        let served = sess.rank_query(r).unwrap().unwrap();
        let local_o = snap.rank_query(r).unwrap().unwrap();
        assert_outcome_eq(&served.outcome, &local_o, &format!("re-asked rank {r}"));
        resent += served.probe_rounds as u64;
    }
    assert!(resent > 0, "the full memo was never cleared");
    handle.shutdown();
}

/// Two nodes, data split between them: the union answer must hold
/// Theorem 2's bound against the weighted sorted oracle, and the
/// byte-match still holds versus an in-process engine sharded the same
/// way the fleet is (node 0's data on shards 0..2, node 1's on 2..4 is
/// not expressible in-process, so the oracle is the referee here).
#[test]
fn two_node_fleet_holds_the_eps_m_bound() {
    let handles = [spawn_node(mk_engine(2)), spawn_node(mk_engine(2))];
    let addrs = [handles[0].addr(), handles[1].addr()];
    let mut coord = Coordinator::<u64>::connect(&addrs).unwrap();

    // Alternate items between the nodes; keep the weighted oracle.
    let mut oracle: Vec<(u64, u64)> = Vec::new();
    let mut stream_weight = 0u64;
    for (i, batch) in batches(0xFEED).iter().enumerate() {
        let mut parts = [Vec::new(), Vec::new()];
        for (j, &(v, w)) in batch.iter().enumerate() {
            parts[j % 2].push((v, w));
            oracle.push((v, w));
            if i == STEPS {
                stream_weight += w;
            }
        }
        for (node, part) in parts.iter().enumerate() {
            coord.ingest(node, part).unwrap();
        }
        if i < STEPS {
            coord.end_step().unwrap();
        }
    }
    oracle.sort_unstable();
    let total: u64 = oracle.iter().map(|&(_, w)| w).sum();
    let mut sess = coord.session(9).unwrap();
    assert_eq!(sess.total_len(), total, "fleet total is the weighted sum");
    let eps_m = (sess.query_epsilon() * stream_weight as f64).floor() as u64;
    assert_eq!(sess.stream_len(), stream_weight);

    let weighted_rank = |v: u64| {
        // (weight strictly below v, weight at or below v)
        let mut lt = 0u64;
        let mut le = 0u64;
        for &(x, w) in &oracle {
            if x < v {
                lt += w;
            }
            if x <= v {
                le += w;
            }
        }
        (lt, le)
    };

    let mut rng = 0xBEEF;
    for _ in 0..25 {
        let r = lcg(&mut rng) % total + 1;
        let served = sess.rank_query(r).unwrap().unwrap();
        let ServedQuery {
            outcome,
            round_trips,
            probe_rounds,
            ..
        } = &served;
        assert_eq!(*round_trips, *probe_rounds as u64 * 2, "2 nodes per round");
        let (lt, le) = weighted_rank(outcome.value);
        assert!(
            lt < r + eps_m && le.max(lt + 1) >= r.saturating_sub(eps_m),
            "rank {r}: served value {} has true ranks [{}, {}], outside ±{eps_m}",
            outcome.value,
            lt + 1,
            le
        );
    }

    for h in handles {
        h.shutdown();
    }
}

/// Concurrent tenants, each on its own connection: sessions are
/// isolated, answers still byte-match the precomputed in-process ones,
/// and refresh() re-pins to current engine state.
#[test]
fn concurrent_tenant_sessions_serve_identical_answers() {
    let mut local = mk_engine(2);
    let handle = spawn_node(mk_engine(2));
    let addr = handle.addr();
    {
        let mut coord = Coordinator::<u64>::connect(&[addr]).unwrap();
        feed(&mut local, &mut coord, 0xC0FFEE, |b, _| vec![b.to_vec()]);
    }
    let snap = local.snapshot();
    let total = snap.total_len();

    // Expected answers precomputed in-process.
    let ranks = seeded_ranks(0x5EED, total, 12);
    let expected: Vec<QueryOutcome<u64>> = ranks
        .iter()
        .map(|&r| snap.rank_query(r).unwrap().unwrap())
        .collect();

    let threads: Vec<_> = (0..4u64)
        .map(|tenant| {
            let ranks = ranks.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut coord = Coordinator::<u64>::connect(&[addr]).unwrap();
                let mut sess = coord.session(tenant).unwrap();
                for (r, want) in ranks.iter().zip(&expected) {
                    let served = sess.rank_query(*r).unwrap().unwrap();
                    assert_outcome_eq(&served.outcome, want, &format!("tenant {tenant} rank {r}"));
                }
                // Refresh sees the same (unchanged) engine state.
                sess.refresh().unwrap();
                let served = sess.rank_query(ranks[0]).unwrap().unwrap();
                assert_outcome_eq(&served.outcome, &expected[0], "post-refresh");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
}

/// A stale session keeps answering over its pinned snapshot while new
/// data arrives; refresh() then folds the new data in.
#[test]
fn sessions_pin_snapshots_until_refresh() {
    let handle = spawn_node(mk_engine(1));
    let mut coord = Coordinator::<u64>::connect(&[handle.addr()]).unwrap();
    coord.ingest(0, &[(10, 1), (20, 1), (30, 1)]).unwrap();
    let mut sess = coord.session(5).unwrap();
    assert_eq!(sess.total_len(), 3);

    coord2_ingest(handle.addr(), &[(40, 1), (50, 1)]);
    // Pinned: new items are invisible until refresh.
    assert_eq!(sess.total_len(), 3);
    assert_eq!(sess.quantile(1.0).unwrap().unwrap().outcome.value, 30);
    sess.refresh().unwrap();
    assert_eq!(sess.total_len(), 5);
    assert_eq!(sess.quantile(1.0).unwrap().unwrap().outcome.value, 50);
    handle.shutdown();
}

/// Ingest through a second connection (the session above holds the
/// first mutably).
fn coord2_ingest(addr: std::net::SocketAddr, items: &[(u64, u64)]) {
    let mut c = Coordinator::<u64>::connect(&[addr]).unwrap();
    c.ingest(0, items).unwrap();
}

/// A peer that sends half a frame and then goes silent — while keeping
/// the connection open — must not wedge shutdown: the server's stall
/// budget abandons the read, so `shutdown()` joins promptly instead of
/// blocking until the hung peer goes away.
#[test]
fn shutdown_joins_promptly_with_hung_peer() {
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Instant;

    let handle = spawn_node(mk_engine(1));

    // Promise a 100-byte frame, deliver 10 bytes, then stall (the
    // connection stays open — no FIN, unlike the torn-frame test).
    let mut hung = TcpStream::connect(handle.addr()).unwrap();
    hung.write_all(&100u32.to_le_bytes()).unwrap();
    hung.write_all(&[0u8; 10]).unwrap();
    hung.flush().unwrap();

    // A healthy client is still served while the hung peer stalls.
    let mut coord = Coordinator::<u64>::connect(&[handle.addr()]).unwrap();
    coord.ping().unwrap();
    drop(coord);

    let start = Instant::now();
    handle.shutdown();
    let took = start.elapsed();
    assert!(
        took.as_secs_f64() < 2.0,
        "shutdown took {took:?} with a hung peer (stall budget not enforced?)"
    );
    drop(hung);
}

/// Garbage and torn frames on the wire: the server answers framed
/// garbage with an Error response and keeps the connection; a torn
/// frame drops the connection; neither wedges the server for the next
/// client.
#[test]
fn server_survives_garbage_and_torn_frames() {
    use hsq_service::proto::{read_frame, write_frame, Request, Response};
    use std::io::Write;
    use std::net::TcpStream;

    let handle = spawn_node(mk_engine(1));

    // Framed garbage: valid length prefix, junk payload → Error reply,
    // connection stays usable.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut s, b"this is not a frame").unwrap();
    match Response::<u64>::decode(&read_frame(&mut s).unwrap()).unwrap() {
        Response::Error { message } => assert!(message.contains("bad request"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    let ping: Request<u64> = Request::Ping;
    write_frame(&mut s, &ping.encode()).unwrap();
    match Response::<u64>::decode(&read_frame(&mut s).unwrap()).unwrap() {
        Response::Pong => {}
        other => panic!("expected Pong, got {other:?}"),
    }

    // Torn frame: length prefix promises more than arrives. The server
    // reports and closes; a fresh client still gets served.
    let mut torn = TcpStream::connect(handle.addr()).unwrap();
    torn.write_all(&100u32.to_le_bytes()).unwrap();
    torn.write_all(&[0u8; 10]).unwrap();
    drop(torn);

    let mut coord = Coordinator::<u64>::connect(&[handle.addr()]).unwrap();
    coord.ping().unwrap();

    // Probing a tenant that never opened a session is an Error
    // response, not a hang or a dropped connection.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    let probe: Request<u64> = Request::Probe {
        tenant: 404,
        window: None,
        zs: vec![7],
    };
    write_frame(&mut s, &probe.encode()).unwrap();
    match Response::<u64>::decode(&read_frame(&mut s).unwrap()).unwrap() {
        Response::Error { message } => assert!(message.contains("unknown tenant"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    handle.shutdown();
}
