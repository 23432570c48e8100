//! The query-side client: a [`Coordinator`] fans one logical query out
//! across replica groups and merges their answers into a single
//! [`QueryOutcome`] carrying the union-wide `ε·m` guarantee.
//!
//! ## Probe-round protocol
//!
//! Ranks over disjoint unions **add**: if group `g` bounds `rank(z)`
//! over its shard-range by `(lo_g, hi_g)`, then `(Σ lo_g, Σ hi_g)`
//! bounds `rank(z)` over the union. The coordinator therefore runs the
//! *same* driver as the in-process engine
//! ([`hsq_core::query::accurate_response`], via the
//! [`RankProbeSource`] seam), with each probe answered by one *round*:
//! the probe value is written to every group's preferred replica
//! back-to-back, then all responses are collected and summed — so a
//! round costs one RTT regardless of group count, and
//! `round_trips = rounds × groups`.
//!
//! ## Replication and failover
//!
//! Each shard-range is served by an ordered *replica group*
//! ([`FleetConfig`]): writes go to **every** replica of the group, so
//! replicas hold bit-identical data; reads go to the group's preferred
//! replica and fail over down the list on error or timeout, governed by
//! the [`NetRetryPolicy`] (transient link faults retry the same replica
//! after a reconnect + session re-pin; refused connections skip to the
//! next replica immediately). Because replicas are identical and the
//! extract/probe protocol is stateless per pinned epoch, a failover
//! mid-bisection re-issues the same probe to the replacement and gets
//! the same bounds — served answers stay **byte-identical** to the
//! healthy fleet's. On every re-pin the replica's vitals are checked
//! bit-for-bit against the group's recorded ones; any divergence
//! re-seeds the session (summaries re-fetched, query restarted) instead
//! of silently mixing snapshots.
//!
//! ## Degraded answers
//!
//! When *every* replica of a group is down, the coordinator keeps
//! serving from the reachable union and widens each answer's rank
//! bounds by exactly the missing groups' recorded weight — the same
//! principled degradation the storage layer applies to quarantined
//! runs, riding the paper's interval arithmetic: a true rank over the
//! full union can exceed one over the reachable union by at most the
//! missing mass. [`ServedQuery::missing_weight`] carries the widening;
//! `strict` mode ([`FleetConfig::strict`]) refuses with a typed error
//! ([`crate::strict_refusal_weight`]) instead. A group whose weight was
//! never observed cannot be bounded away — losing it is an error, not a
//! degraded answer.
//!
//! ## Why so few rounds
//!
//! Before bisecting, the session fetches each group's *summary extract*
//! (its per-source views) and rebuilds the union's [`QueryScope`]
//! locally. [`hsq_core::CombinedSummary::build`] sorts a value multiset,
//! sums per-source bound steps (order-independent) and gives equal values
//! the sum after their whole group (so tie order cannot show). The
//! rebuilt summary is therefore bit-identical to what a single in-process
//! engine over the same sources would build, in any source order — so
//! the bisection starts from the same tight summary-seeded bracket
//! `(u, v)` and accepts under the same `ε·m − unc` tolerance.
//! Empirically that means **~3 probe rounds at
//! the median** (≤ 4 at p50 is asserted in the loopback tests). The
//! extract is fetched once per session and window and reused across
//! every subsequent query (the dashboard pattern), so steady state is
//! pure probe rounds.
//!
//! A pinned epoch is immutable, so the bounds a probe of `z` returns
//! depend only on (epoch, window, `z`). Each cached scope therefore
//! keeps a probe memo `z → (lo, hi)`: a repeated probe, whether from a
//! dashboard re-asking the same φ or from the bisection's collapse exit
//! re-probing a bracket end, is answered locally and sends no round.
//! The memo is created and dropped with its scope, so a refresh, a
//! membership change or a re-seed clears it; an entry lands only after
//! its round succeeded, and a full memo is cleared wholesale.

use std::collections::HashMap;
use std::io;
use std::net::ToSocketAddrs;
use std::sync::Arc;

use hsq_core::query::{accurate_response, QueryScope};
use hsq_core::{QueryOutcome, RankProbeSource};
use hsq_storage::Item;

use crate::fleet::FleetConfig;
use crate::proto::{Request, Response};
use crate::retry::{classify_net, strict_refusal, NetError, NetErrorKind, NetRetryPolicy};
use crate::transport::{Connector, TcpConnector, Transport};

fn svc_err(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// Internal marker: fleet membership (or a replica's vitals) changed
/// mid-query; the query must re-sync and restart. Never escapes the
/// session API.
#[derive(Debug)]
struct QueryInterrupted;

impl std::fmt::Display for QueryInterrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet membership changed mid-query")
    }
}

impl std::error::Error for QueryInterrupted {}

fn interrupted() -> io::Error {
    io::Error::other(QueryInterrupted)
}

fn is_interrupted(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.downcast_ref::<QueryInterrupted>().is_some())
}

/// An accurate answer served over the network, plus what it cost on the
/// wire. `outcome.io` is always zero — disk I/O happens on the nodes.
#[derive(Clone, Debug)]
pub struct ServedQuery<T> {
    /// The merged outcome, same semantics as the in-process
    /// [`hsq_core::ShardedSnapshot::rank_query`]. When `missing_weight`
    /// is non-zero, `rank_hi` is widened by it and `degraded` is set.
    pub outcome: QueryOutcome<T>,
    /// Bisection probe rounds this query sent (one RTT each). A probe
    /// the session's memo answers sends nothing and is not counted.
    pub probe_rounds: u32,
    /// Total request/response pairs on the wire (`rounds × up groups`);
    /// zero when every probe was a memo hit.
    pub round_trips: u64,
    /// Summed recorded weight of replica groups that were unreachable
    /// when this answer was computed (folded into `outcome.rank_hi`).
    pub missing_weight: u64,
    /// Replica failovers the coordinator performed during this query.
    pub failovers: u64,
}

/// Last observed session vitals for one replica group — the per-group
/// `W` cache that prices degraded answers when the group later
/// disappears.
#[derive(Clone, Copy, Debug)]
struct GroupVitals {
    total: u64,
    stream_weight: u64,
    quarantined: u64,
    epsilon: f64,
}

/// One replica group: ordered replicas, lazily established transports,
/// and failover state.
struct Group {
    replicas: Vec<String>,
    conns: Vec<Option<Box<dyn Transport>>>,
    /// Which tenant's session is pinned on each replica connection.
    pinned: Vec<Option<u64>>,
    /// Preferred replica for reads (sticky across failovers).
    active: usize,
    /// Every replica exhausted; excluded from queries until a refresh.
    down: bool,
    vitals: Option<GroupVitals>,
}

impl Group {
    fn new(replicas: Vec<String>) -> Group {
        let n = replicas.len();
        Group {
            replicas,
            conns: (0..n).map(|_| None).collect(),
            pinned: vec![None; n],
            active: 0,
            down: false,
            vitals: None,
        }
    }
}

/// Per-coordinator session context (one tenant at a time — the session
/// API takes `&mut Coordinator`).
struct SessionCtx {
    tenant: u64,
    /// Per group: the next pin must ask the server for a fresh snapshot.
    refresh_pending: Vec<bool>,
    /// A re-pin observed vitals diverging from the group's recorded
    /// ones; sessions must drop caches and restart in-flight queries.
    reseeded: bool,
}

/// What a group produced for one op.
enum GroupReply<T> {
    /// A decoded response from some replica of the group.
    Resp(Response<T>),
    /// Pin-only op (no frame) succeeded.
    Pinned,
    /// The group is down (strict mode never reaches this — marking a
    /// group down under `strict` is an error).
    Down,
}

/// A client connected to a fleet of replica groups, each serving a
/// disjoint part of the dataset. All queries go through a per-tenant
/// [`TenantSession`].
pub struct Coordinator<T: Item> {
    groups: Vec<Group>,
    connector: Arc<dyn Connector>,
    retry: NetRetryPolicy,
    strict: bool,
    /// Decorrelated-jitter state for backoff draws.
    rng: u64,
    /// Bumped whenever the set of down groups changes; sessions use it
    /// to notice mid-query membership changes.
    down_epoch: u64,
    failovers: u64,
    session: Option<SessionCtx>,
    _items: std::marker::PhantomData<fn() -> T>,
}

impl<T: Item> Coordinator<T> {
    /// Connect to an unreplicated fleet: each address is a
    /// single-replica group (the pre-replication topology). Errors if
    /// `addrs` is empty or any node is unreachable.
    pub fn connect<A: ToSocketAddrs>(addrs: &[A]) -> io::Result<Coordinator<T>> {
        let mut groups = Vec::with_capacity(addrs.len());
        for a in addrs {
            let sa = a
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| svc_err("address resolved to nothing"))?;
            groups.push(vec![sa.to_string()]);
        }
        let config =
            FleetConfig::new(groups).map_err(|_| svc_err("coordinator needs at least one node"))?;
        Coordinator::connect_fleet(&config)
    }

    /// Connect to a replicated fleet over real TCP with the standard
    /// retry policy.
    pub fn connect_fleet(config: &FleetConfig) -> io::Result<Coordinator<T>> {
        let retry = NetRetryPolicy::standard();
        Coordinator::connect_fleet_with(config, Arc::new(TcpConnector::from_policy(&retry)), retry)
    }

    /// Connect to a replicated fleet over an explicit [`Connector`]
    /// (the chaos harness injects its [`crate::FaultConnector`] here)
    /// with an explicit [`NetRetryPolicy`]. Every group must be
    /// reachable through at least one replica at construction — until a
    /// group's weight has been observed once, losing it cannot be
    /// priced into a degraded answer.
    pub fn connect_fleet_with(
        config: &FleetConfig,
        connector: Arc<dyn Connector>,
        retry: NetRetryPolicy,
    ) -> io::Result<Coordinator<T>> {
        let mut coord = Coordinator {
            groups: config
                .groups()
                .iter()
                .map(|replicas| Group::new(replicas.clone()))
                .collect(),
            connector,
            retry,
            strict: config.is_strict(),
            rng: retry.jitter_seed,
            down_epoch: 0,
            failovers: 0,
            session: None,
            _items: std::marker::PhantomData,
        };
        for g in 0..coord.groups.len() {
            if let GroupReply::Down = coord.group_op(g, None)? {
                // Unreachable with no vitals recorded is always an
                // error inside group_op; reaching Down here means a
                // logic bug, not a network condition.
                return Err(svc_err(format!("group {g} down at construction")));
            }
        }
        Ok(coord)
    }

    /// Number of replica groups — the unit of shard routing for
    /// [`Coordinator::ingest`].
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Replica failovers performed so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Groups currently marked down.
    pub fn down_groups(&self) -> Vec<usize> {
        self.groups
            .iter()
            .enumerate()
            .filter_map(|(g, grp)| grp.down.then_some(g))
            .collect()
    }

    /// Summed recorded weight of the down groups — what degraded
    /// answers widen their upper rank bound by.
    pub fn missing_weight(&self) -> u64 {
        self.groups
            .iter()
            .filter(|grp| grp.down)
            .map(|grp| grp.vitals.expect("down groups always have vitals").total)
            .sum()
    }

    /// Whether degraded answers are refused ([`FleetConfig::strict`]).
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    // -----------------------------------------------------------------
    // Failover op engine.

    /// Try one op (or a pin-only touch, `frame = None`) on one replica:
    /// connect if needed, re-pin the session if needed, send, receive,
    /// decode.
    fn try_replica(
        &mut self,
        g: usize,
        rid: usize,
        frame: Option<&[u8]>,
    ) -> io::Result<Option<Response<T>>> {
        if self.groups[g].conns[rid].is_none() {
            let addr = self.groups[g].replicas[rid].clone();
            let t = self.connector.connect(&addr)?;
            self.groups[g].conns[rid] = Some(t);
            self.groups[g].pinned[rid] = None;
        }
        // Session re-establishment: a replica this session has never
        // pinned (fresh connection, or a failover target) gets the
        // tenant's OpenSession first, and its vitals are verified
        // bit-for-bit against the group's recorded ones.
        let pin = match &self.session {
            Some(ctx)
                if self.groups[g].pinned[rid] != Some(ctx.tenant) || ctx.refresh_pending[g] =>
            {
                Some((ctx.tenant, ctx.refresh_pending[g]))
            }
            _ => None,
        };
        if let Some((tenant, refresh)) = pin {
            let pin_frame = Request::<T>::OpenSession { tenant, refresh }.encode();
            let conn = self.groups[g].conns[rid].as_mut().expect("just ensured");
            conn.send_frame(&pin_frame)?;
            let raw = conn.recv_frame()?;
            let vitals = match Response::<T>::decode(&raw)? {
                Response::Session {
                    total,
                    stream_weight,
                    quarantined,
                    epsilon,
                    ..
                } => GroupVitals {
                    total,
                    stream_weight,
                    quarantined,
                    epsilon,
                },
                Response::Error { message } => return Err(svc_err(message)),
                other => return Err(unexpected("Session", &other)),
            };
            if !refresh {
                if let Some(old) = self.groups[g].vitals {
                    let same = old.total == vitals.total
                        && old.stream_weight == vitals.stream_weight
                        && old.quarantined == vitals.quarantined
                        && old.epsilon.to_bits() == vitals.epsilon.to_bits();
                    if !same {
                        // The replacement replica pinned a different
                        // snapshot than the session was built on: flag a
                        // re-seed so cached summaries are re-fetched and
                        // in-flight bisections restart.
                        if let Some(ctx) = &mut self.session {
                            ctx.reseeded = true;
                        }
                    }
                }
            }
            self.groups[g].vitals = Some(vitals);
            self.groups[g].pinned[rid] = Some(tenant);
            if refresh {
                if let Some(ctx) = &mut self.session {
                    ctx.refresh_pending[g] = false;
                }
            }
        }
        match frame {
            Some(frame) => {
                let conn = self.groups[g].conns[rid].as_mut().expect("just ensured");
                conn.send_frame(frame)?;
                let raw = conn.recv_frame()?;
                Ok(Some(Response::decode(&raw)?))
            }
            None => Ok(None),
        }
    }

    /// One read op against group `g` with the full retry/failover
    /// ladder: transient faults reconnect and retry the same replica up
    /// to `max_attempts` (decorrelated-jitter backoff between tries),
    /// refused nodes fail over immediately, and exhausting every
    /// replica marks the group down.
    fn group_op(&mut self, g: usize, frame: Option<&[u8]>) -> io::Result<GroupReply<T>> {
        if self.groups[g].down {
            return Ok(GroupReply::Down);
        }
        let n = self.groups[g].replicas.len();
        let start = self.groups[g].active;
        let mut last_err: Option<io::Error> = None;
        for k in 0..n {
            let rid = (start + k) % n;
            let mut prev_delay = self.retry.base_delay;
            for attempt in 1..=self.retry.max_attempts.max(1) {
                match self.try_replica(g, rid, frame) {
                    Ok(resp) => {
                        if self.groups[g].active != rid {
                            self.groups[g].active = rid;
                            self.failovers += 1;
                        }
                        return Ok(match resp {
                            Some(r) => GroupReply::Resp(r),
                            None => GroupReply::Pinned,
                        });
                    }
                    Err(e) => {
                        // Whatever failed, this link is framing-unsafe.
                        self.groups[g].conns[rid] = None;
                        self.groups[g].pinned[rid] = None;
                        match classify_net(&e) {
                            NetErrorKind::Fatal => return Err(e),
                            NetErrorKind::NodeDown => {
                                last_err = Some(e);
                                break;
                            }
                            NetErrorKind::Transient => {
                                last_err = Some(e);
                                if attempt < self.retry.max_attempts.max(1) {
                                    prev_delay = self.retry.next_backoff(&mut self.rng, prev_delay);
                                    if !prev_delay.is_zero() {
                                        std::thread::sleep(prev_delay);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        self.mark_down(g, last_err)
    }

    /// Every replica of group `g` is exhausted: price the loss (needs
    /// recorded vitals), refuse under `strict`, otherwise mark the
    /// group down and let degraded accounting take over.
    fn mark_down(&mut self, g: usize, last_err: Option<io::Error>) -> io::Result<GroupReply<T>> {
        let cause = last_err
            .map(|e| e.to_string())
            .unwrap_or_else(|| "all replicas failed".into());
        if self.groups[g].vitals.is_none() {
            return Err(NetError::Fatal(format!(
                "replica group {g} is unreachable and its weight was never observed; \
                 cannot bound the union without it (last error: {cause})"
            ))
            .into());
        }
        self.groups[g].down = true;
        self.down_epoch += 1;
        if self.strict {
            return Err(strict_refusal(self.missing_weight()));
        }
        Ok(GroupReply::Down)
    }

    /// One batched round: the frame goes to every up group's preferred
    /// replica back-to-back, then all responses are read — one RTT
    /// total on the healthy path. Groups whose preferred link fails
    /// drop to the sequential [`Coordinator::group_op`] ladder.
    /// `None` entries are down groups.
    fn round(&mut self, frame: &[u8]) -> io::Result<Vec<Option<Response<T>>>> {
        let n = self.groups.len();
        let mut out: Vec<Option<Response<T>>> = (0..n).map(|_| None).collect();
        let mut inflight: Vec<usize> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        for g in 0..n {
            if self.groups[g].down {
                continue;
            }
            let rid = self.groups[g].active;
            let ready = self.groups[g].conns[rid].is_some()
                && match &self.session {
                    Some(ctx) => {
                        self.groups[g].pinned[rid] == Some(ctx.tenant) && !ctx.refresh_pending[g]
                    }
                    None => true,
                };
            if !ready {
                pending.push(g);
                continue;
            }
            match self.groups[g].conns[rid]
                .as_mut()
                .expect("checked ready")
                .send_frame(frame)
            {
                Ok(()) => inflight.push(g),
                Err(e) => {
                    if classify_net(&e) == NetErrorKind::Fatal {
                        return Err(e);
                    }
                    self.groups[g].conns[rid] = None;
                    self.groups[g].pinned[rid] = None;
                    pending.push(g);
                }
            }
        }
        for g in inflight {
            let rid = self.groups[g].active;
            let resp = self.groups[g].conns[rid]
                .as_mut()
                .expect("sent on this link")
                .recv_frame()
                .and_then(|raw| Response::decode(&raw));
            match resp {
                Ok(r) => out[g] = Some(r),
                Err(e) => {
                    if classify_net(&e) == NetErrorKind::Fatal {
                        return Err(e);
                    }
                    self.groups[g].conns[rid] = None;
                    self.groups[g].pinned[rid] = None;
                    pending.push(g);
                }
            }
        }
        for g in pending {
            out[g] = match self.group_op(g, Some(frame))? {
                GroupReply::Resp(r) => Some(r),
                GroupReply::Pinned => unreachable!("frame was provided"),
                GroupReply::Down => None,
            };
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Write path: replicated, at-most-once.

    /// One write op to one replica. Connect errors retry under the
    /// policy, but once the frame has been sent there is **no** retry —
    /// writes are not idempotent, and a replica that cannot acknowledge
    /// a write is an error, not a failover (the replication contract
    /// requires every replica to apply it).
    fn write_replica(&mut self, g: usize, rid: usize, frame: &[u8]) -> io::Result<Response<T>> {
        let mut prev_delay = self.retry.base_delay;
        for attempt in 1..=self.retry.max_attempts.max(1) {
            if self.groups[g].conns[rid].is_none() {
                let addr = self.groups[g].replicas[rid].clone();
                match self.connector.connect(&addr) {
                    Ok(t) => {
                        self.groups[g].conns[rid] = Some(t);
                        self.groups[g].pinned[rid] = None;
                    }
                    Err(e) => {
                        if classify_net(&e) == NetErrorKind::Transient
                            && attempt < self.retry.max_attempts.max(1)
                        {
                            prev_delay = self.retry.next_backoff(&mut self.rng, prev_delay);
                            if !prev_delay.is_zero() {
                                std::thread::sleep(prev_delay);
                            }
                            continue;
                        }
                        return Err(e);
                    }
                }
            }
            let conn = self.groups[g].conns[rid].as_mut().expect("just ensured");
            let sent = conn
                .send_frame(frame)
                .and_then(|()| conn.recv_frame())
                .and_then(|raw| Response::decode(&raw));
            return match sent {
                Ok(resp) => Ok(resp),
                Err(e) => {
                    self.groups[g].conns[rid] = None;
                    self.groups[g].pinned[rid] = None;
                    Err(e)
                }
            };
        }
        unreachable!("loop always returns")
    }

    /// Liveness round-trip to every group (one reachable replica each);
    /// errors if any group is down.
    pub fn ping(&mut self) -> io::Result<()> {
        let frame = Request::<T>::Ping.encode();
        for (g, resp) in self.round(&frame)?.into_iter().enumerate() {
            match resp {
                Some(Response::Pong) => {}
                Some(other) => return Err(unexpected("Pong", &other)),
                None => return Err(svc_err(format!("replica group {g} is down"))),
            }
        }
        Ok(())
    }

    /// Weighted stream ingest into one group's engine — applied to
    /// **every** replica of the group, which is what entitles reads to
    /// fail over between them. Returns `(items, weight)` acknowledged.
    pub fn ingest(&mut self, group: usize, items: &[(T, u64)]) -> io::Result<(u64, u64)> {
        if group >= self.groups.len() {
            return Err(svc_err(format!("no group {group}")));
        }
        let frame = Request::Ingest {
            items: items.to_vec(),
        }
        .encode();
        let mut acked = None;
        for rid in 0..self.groups[group].replicas.len() {
            match self.write_replica(group, rid, &frame)? {
                Response::Ingested { items, weight } => acked = Some((items, weight)),
                Response::Error { message } => return Err(svc_err(message)),
                other => return Err(unexpected("Ingested", &other)),
            }
        }
        Ok(acked.expect("groups have at least one replica"))
    }

    /// Archive the current stream into a time-step partition on every
    /// replica of every group. Returns per-group shard counts.
    pub fn end_step(&mut self) -> io::Result<Vec<u64>> {
        let frame = Request::<T>::EndStep.encode();
        let mut out = Vec::with_capacity(self.groups.len());
        for g in 0..self.groups.len() {
            let mut group_shards = None;
            for rid in 0..self.groups[g].replicas.len() {
                match self.write_replica(g, rid, &frame)? {
                    Response::StepEnded { shards } => group_shards = Some(shards),
                    Response::Error { message } => return Err(svc_err(message)),
                    other => return Err(unexpected("StepEnded", &other)),
                }
            }
            out.push(group_shards.expect("groups have at least one replica"));
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Sessions.

    /// Pin (or re-pin) `tenant`'s session on every group's preferred
    /// replica; `refresh` asks the servers for fresh snapshots and
    /// re-attempts down groups (the one healing point).
    fn open_sessions(&mut self, tenant: u64, refresh: bool) -> io::Result<()> {
        let n = self.groups.len();
        self.session = Some(SessionCtx {
            tenant,
            refresh_pending: vec![refresh; n],
            reseeded: false,
        });
        if refresh {
            let mut healed = false;
            for grp in &mut self.groups {
                healed |= grp.down;
                grp.down = false;
                // Force a fresh pin everywhere so every replica that
                // serves this session observes the refreshed epoch.
                for p in &mut grp.pinned {
                    *p = None;
                }
            }
            if healed {
                self.down_epoch += 1;
            }
        }
        for g in 0..n {
            self.group_op(g, None)?;
        }
        Ok(())
    }

    /// Merge up-group vitals into session vitals; errors when no group
    /// is reachable or the up groups disagree on ε (a mixed-ε fleet has
    /// no single acceptance window).
    fn fleet_vitals(&self) -> io::Result<SessionVitals> {
        let mut vitals = SessionVitals {
            total: 0,
            stream_weight: 0,
            quarantined: 0,
            epsilon: 0.0,
            missing_weight: self.missing_weight(),
        };
        let mut first_eps: Option<(usize, f64)> = None;
        for (g, grp) in self.groups.iter().enumerate() {
            if grp.down {
                continue;
            }
            let v = grp
                .vitals
                .ok_or_else(|| svc_err(format!("group {g} has no recorded vitals")))?;
            vitals.total += v.total;
            vitals.stream_weight += v.stream_weight;
            vitals.quarantined += v.quarantined;
            match first_eps {
                None => {
                    first_eps = Some((g, v.epsilon));
                    vitals.epsilon = v.epsilon;
                }
                Some((g0, eps0)) if eps0.to_bits() != v.epsilon.to_bits() => {
                    return Err(svc_err(format!(
                        "group {g} runs query epsilon {}, group {g0} runs {eps0}",
                        v.epsilon
                    )));
                }
                Some(_) => {}
            }
        }
        if first_eps.is_none() {
            return Err(NetError::Fatal(
                "every replica group is down; nothing reachable to answer from".into(),
            )
            .into());
        }
        Ok(vitals)
    }

    /// Non-destructive peek at the session's re-seed flag.
    fn session_reseeded(&self) -> bool {
        self.session.as_ref().is_some_and(|ctx| ctx.reseeded)
    }

    fn clear_reseeded(&mut self) {
        if let Some(ctx) = &mut self.session {
            ctx.reseeded = false;
        }
    }

    /// One query [`Coordinator::round`]: the up groups' responses, node
    /// errors surfaced. A membership change or session re-seed under it
    /// surfaces as [`QueryInterrupted`] so the query can re-sync and
    /// restart against the surviving fleet.
    fn query_round(&mut self, req: Request<T>) -> io::Result<Vec<Response<T>>> {
        let epoch0 = self.down_epoch;
        let responses = self.round(&req.encode())?;
        if self.down_epoch != epoch0 || self.session_reseeded() {
            return Err(interrupted());
        }
        let up = responses.into_iter().flatten();
        up.map(|resp| match resp {
            Response::Error { message } => Err(svc_err(message)),
            resp => Ok(resp),
        })
        .collect()
    }

    /// Open (or resume) the tenant's session on every group, pinning
    /// one snapshot epoch per group. Repeated sessions for the same
    /// tenant reuse the pinned snapshots — and therefore the nodes'
    /// cached summaries — until [`TenantSession::refresh`].
    pub fn session(&mut self, tenant: u64) -> io::Result<TenantSession<'_, T>> {
        self.open_sessions(tenant, false)?;
        self.clear_reseeded();
        if self.strict && self.missing_weight() > 0 {
            return Err(strict_refusal(self.missing_weight()));
        }
        let vitals = self.fleet_vitals()?;
        let seen_down_epoch = self.down_epoch;
        Ok(TenantSession {
            coord: self,
            tenant,
            vitals,
            seen_down_epoch,
            scopes: HashMap::new(),
        })
    }
}

/// Session-wide vitals merged from every up group's recorded vitals.
#[derive(Clone, Debug)]
struct SessionVitals {
    total: u64,
    stream_weight: u64,
    quarantined: u64,
    epsilon: f64,
    missing_weight: u64,
}

fn unexpected<T>(wanted: &str, got: &Response<T>) -> io::Error {
    let kind = match got {
        Response::Pong => "Pong",
        Response::Ingested { .. } => "Ingested",
        Response::StepEnded { .. } => "StepEnded",
        Response::Session { .. } => "Session",
        Response::Extract { .. } => "Extract",
        Response::WindowUnavailable => "WindowUnavailable",
        Response::Bounds { .. } => "Bounds",
        Response::Error { .. } => "Error",
    };
    svc_err(format!("expected {wanted} response, got {kind}"))
}

/// Most probes one scope's memo remembers, bounding what a long-lived
/// session holds; a full memo is cleared wholesale. A dashboard's epoch
/// needs a few dozen.
const PROBE_MEMO_CAP: usize = 4096;

/// Summed bounds already fetched for a scope, keyed by probe value.
type ProbeMemo<T> = HashMap<T, (u64, u64)>;

/// A rebuilt scope and the memo that lives and dies with it.
type MemoScope<T> = (QueryScope<T>, ProbeMemo<T>);

/// The remote [`RankProbeSource`]: each probe is one batched
/// [`Coordinator::query_round`] over every up group, bounds summed —
/// unless the scope's memo already holds the value.
struct RemoteProbes<'a, T: Item> {
    coord: &'a mut Coordinator<T>,
    memo: &'a mut ProbeMemo<T>,
    tenant: u64,
    window: Option<u64>,
    rounds: u32,
    trips: u64,
}

impl<T: Item> RankProbeSource<T> for RemoteProbes<'_, T> {
    fn probe(&mut self, z: T) -> io::Result<(u64, u64)> {
        if let Some(&bounds) = self.memo.get(&z) {
            return Ok(bounds);
        }
        let responses = self.coord.query_round(Request::Probe {
            tenant: self.tenant,
            window: self.window,
            zs: vec![z],
        })?;
        self.rounds += 1;
        self.trips += responses.len() as u64;
        let bounds = responses
            .iter()
            .try_fold((0, 0), |(lo, hi), resp| match resp {
                Response::Bounds { bounds } if bounds.len() == 1 => {
                    Ok((lo + bounds[0].0, hi + bounds[0].1))
                }
                Response::Bounds { bounds } => Err(svc_err(format!(
                    "probe round answered {} bounds for 1 probe",
                    bounds.len()
                ))),
                other => Err(unexpected("Bounds", other)),
            })?;
        if self.memo.len() >= PROBE_MEMO_CAP {
            self.memo.clear();
        }
        self.memo.insert(z, bounds);
        Ok(bounds)
    }
}

/// One tenant's query session: pinned group snapshots, locally rebuilt
/// scopes (fetched once per window, reused across queries), and the
/// query API mirroring [`hsq_core::ShardedSnapshot`]. Failovers,
/// retries, and degraded accounting all happen underneath this API —
/// callers only see them in [`ServedQuery`]'s metadata.
pub struct TenantSession<'a, T: Item> {
    coord: &'a mut Coordinator<T>,
    tenant: u64,
    vitals: SessionVitals,
    seen_down_epoch: u64,
    /// The reachable union's scope per window (`None` key = the full
    /// union) with its probe memo; a `None` value caches "some up group
    /// reports the window unavailable".
    scopes: HashMap<Option<u64>, Option<MemoScope<T>>>,
}

impl<T: Item> TenantSession<'_, T> {
    /// Total size `N` of the *reachable* union at session-pin time.
    pub fn total_len(&self) -> u64 {
        self.vitals.total
    }

    /// Stream weight `m` over the reachable union — the `ε·m`
    /// denominator.
    pub fn stream_len(&self) -> u64 {
        self.vitals.stream_weight
    }

    /// The fleet's accurate-response error parameter.
    pub fn query_epsilon(&self) -> f64 {
        self.vitals.epsilon
    }

    /// Summed recorded weight of unreachable groups; non-zero means
    /// answers are degraded (or refused, under strict mode).
    pub fn missing_weight(&self) -> u64 {
        self.vitals.missing_weight
    }

    /// Re-pin every group's snapshot to current engine state, re-attempt
    /// down groups, and drop the locally cached summaries.
    pub fn refresh(&mut self) -> io::Result<()> {
        self.coord.open_sessions(self.tenant, true)?;
        self.coord.clear_reseeded();
        if self.coord.strict && self.coord.missing_weight() > 0 {
            return Err(strict_refusal(self.coord.missing_weight()));
        }
        self.vitals = self.coord.fleet_vitals()?;
        self.seen_down_epoch = self.coord.down_epoch;
        self.scopes.clear();
        Ok(())
    }

    /// Fold fleet changes (groups lost, sessions re-seeded after
    /// failover) into this session: drop stale caches and recompute
    /// vitals over the reachable union.
    fn sync(&mut self) -> io::Result<()> {
        if self.coord.strict && self.coord.missing_weight() > 0 {
            return Err(strict_refusal(self.coord.missing_weight()));
        }
        if self.seen_down_epoch != self.coord.down_epoch || self.coord.session_reseeded() {
            self.coord.clear_reseeded();
            self.seen_down_epoch = self.coord.down_epoch;
            self.scopes.clear();
            self.vitals = self.coord.fleet_vitals()?;
        }
        Ok(())
    }

    /// Fetch-and-rebuild the reachable union's scope over `window` (once
    /// per session per window): every up group's extract, concatenated
    /// in group order. Caches `None` when any up group reports the
    /// window unavailable.
    fn ensure_scope(&mut self, window: Option<u64>) -> io::Result<()> {
        if self.scopes.contains_key(&window) {
            return Ok(());
        }
        let (mut sources, mut total, mut available) = (Vec::new(), 0u64, true);
        let extract = Request::Extract {
            tenant: self.tenant,
            window,
        };
        for resp in self.coord.query_round(extract)? {
            match resp {
                Response::Extract {
                    total: t,
                    sources: s,
                } => {
                    total += t;
                    sources.extend(s);
                }
                Response::WindowUnavailable => available = false,
                other => return Err(unexpected("Extract", &other)),
            }
        }
        if window.is_none() && total != self.vitals.total {
            return Err(svc_err(format!(
                "extract total {total} disagrees with session total {}",
                self.vitals.total
            )));
        }
        // ε·m over the FULL stream weight for every window, exactly as
        // in-process: the stream is entirely inside every window.
        let v = &self.vitals;
        let scope = available.then(|| {
            let scope = QueryScope::new(&sources, total, v.stream_weight, v.epsilon)
                .with_excluded(v.quarantined, v.missing_weight);
            (scope, ProbeMemo::new())
        });
        self.scopes.insert(window, scope);
        Ok(())
    }

    /// Restart budget for one query: each restart needs a membership
    /// change or re-seed, both of which are bounded, but keep a hard
    /// cap against pathological flapping.
    fn restart_budget(&self) -> u32 {
        let replicas: usize = self.coord.groups.iter().map(|g| g.replicas.len()).sum();
        replicas as u32 + 8
    }

    /// Run `query` against the scope of `window` and a [`RemoteProbes`]
    /// over that scope's memo, re-syncing and restarting whenever fleet
    /// membership (or a replica's vitals) changes underneath it.
    /// Returns the answer with the probe rounds and round trips sent
    /// across every attempt; `Ok(None)` when the window is unavailable.
    fn run<R>(
        &mut self,
        window: Option<u64>,
        query: impl Fn(&QueryScope<T>, &mut RemoteProbes<'_, T>) -> io::Result<Option<R>>,
    ) -> io::Result<Option<(R, u32, u64)>> {
        let mut rounds = 0u32;
        let mut trips = 0u64;
        for _ in 0..self.restart_budget() {
            self.sync()?;
            match self.ensure_scope(window) {
                Ok(()) => {}
                Err(e) if is_interrupted(&e) => continue,
                Err(e) => return Err(e),
            }
            let Some((scope, memo)) = self.scopes.get_mut(&window).and_then(Option::as_mut) else {
                return Ok(None);
            };
            let mut probes = RemoteProbes {
                coord: self.coord,
                memo,
                tenant: self.tenant,
                window,
                rounds: 0,
                trips: 0,
            };
            let result = query(scope, &mut probes);
            rounds += probes.rounds;
            trips += probes.trips;
            match result {
                Ok(answer) => return Ok(answer.map(|a| (a, rounds, trips))),
                Err(e) if is_interrupted(&e) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(svc_err("query restarted too many times; fleet is flapping"))
    }

    /// The accurate response for the rank `rank` picks from the scope of
    /// `window`: same driver, same seed bracket, same tolerance as
    /// in-process — the probes just travel over TCP, with
    /// failover/degradation handled underneath.
    fn served(
        &mut self,
        window: Option<u64>,
        rank: impl Fn(&QueryScope<T>) -> u64,
    ) -> io::Result<Option<ServedQuery<T>>> {
        let failovers0 = self.coord.failovers;
        let answer = self.run(window, |scope, probes| {
            accurate_response(scope, rank(scope), probes)
        })?;
        Ok(
            answer.map(|(outcome, probe_rounds, round_trips)| ServedQuery {
                outcome,
                probe_rounds,
                round_trips,
                missing_weight: self.vitals.missing_weight,
                failovers: self.coord.failovers - failovers0,
            }),
        )
    }

    /// Accurate cross-group rank query, mirroring
    /// [`hsq_core::ShardedSnapshot::rank_query`].
    pub fn rank_query(&mut self, r: u64) -> io::Result<Option<ServedQuery<T>>> {
        self.served(None, |_| r)
    }

    /// Accurate φ-quantile over the reachable union.
    pub fn quantile(&mut self, phi: f64) -> io::Result<Option<ServedQuery<T>>> {
        self.served(None, |scope| scope.rank_of(phi))
    }

    /// Quick response from the locally rebuilt combined summary: no
    /// probe rounds at all (after the one-time extract fetch), error
    /// ≤ 1.5·ε·N — the dashboard fast path.
    pub fn quantile_quick(&mut self, phi: f64) -> io::Result<Option<T>> {
        let quick = self.run(None, |scope, _| Ok(scope.quick_quantile(phi)))?;
        Ok(quick.map(|(value, ..)| value))
    }

    /// Windowed accurate rank query (newest `window_steps` steps on
    /// every up group). `Ok(None)` when any group's partitions misalign
    /// with the window boundary, mirroring
    /// [`hsq_core::ShardedSnapshot::rank_in_window`].
    pub fn rank_in_window(
        &mut self,
        window_steps: u64,
        r: u64,
    ) -> io::Result<Option<ServedQuery<T>>> {
        self.served(Some(window_steps), |_| r)
    }

    /// Windowed accurate φ-quantile; `Ok(None)` when the window
    /// misaligns on any up group or holds no data.
    pub fn quantile_in_window(
        &mut self,
        window_steps: u64,
        phi: f64,
    ) -> io::Result<Option<ServedQuery<T>>> {
        self.served(Some(window_steps), |scope| scope.rank_of(phi))
    }
}
