//! The four workloads. Each function runs one *repetition*: set up a fresh
//! system, drive it closed-loop from one thread over fixed counts, and
//! return the samples. Inputs are generated per step outside the timed
//! calls and are not retained; answers are kept for [`crate::verify`].
//!
//! Every config field not named here is `HsqConfig`'s default, so a later
//! change to a default shows up in the numbers.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use hsq::core::manifest::ManifestLog;
use hsq::core::{
    HistStreamQuantiles, HsqConfig, QueryOutcome, RetentionPolicy, ShardedEngine, UpdateReport,
    Warehouse,
};
use hsq::service::proto::{read_frame, write_frame, Request, Response};
use hsq::service::{Coordinator, QuantileServer, ServedQuery, ServerHandle};
use hsq::storage::{BlockDevice, FileDevice, IoSnapshot, MemDevice};
use hsq::workload::{Dataset, SampledTelemetryGen};
use hsq::SketchKind;

use crate::metrics::SPAN_PERCENTILES;
use crate::replay::replay_layers;
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::verify::Answer;

/// Items (or pairs) per `stream_extend` call and per ingest frame.
pub const CHUNK: usize = 4096;
/// The dashboard every workload asks.
const PHIS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];
const BLOCK: usize = 4096;
const TENANT: u64 = 7;
/// Pairs `served_mixed` sends to each of its two groups per step.
const GROUP_PAIRS: usize = 8_192;

pub struct Opts {
    pub seed: u64,
    /// 1 at full scale, 50 under `--smoke`: divides step and query counts.
    pub divisor: u32,
    /// Directory (inside the build directory) for `FileDevice` data.
    pub scratch: PathBuf,
    /// Samples a percentile must leave beyond it (see [`percentile`]).
    pub min_beyond: usize,
}

impl Opts {
    fn n(&self, full: u32) -> u32 {
        (full / self.divisor).max(1)
    }
}

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    pub setup_s: f64,
    /// Nanoseconds inside ingest + step-close calls, and the weight and
    /// pair count they absorbed.
    pub ingest_ns: u64,
    pub ingest_weight: u64,
    pub ingest_pairs: u64,
    pub close_ns: Vec<u64>,
    pub query_ns: Vec<u64>,
    pub window_ns: Vec<u64>,
    pub epoch_ns: Vec<u64>,
    /// Sums over the timed full-union queries.
    pub reads: u64,
    pub round_trips: u64,
    pub write_amp: f64,
    pub memory_words: f64,
    pub answers: Vec<Answer>,
    pub attempted: u64,
    pub failed: u64,
    /// All nanoseconds inside timed calls.
    pub timed_ns: u64,
    // Layer counts taken from return values (cheap, so always kept).
    bisection_steps: Vec<u64>,
    query_reads: Vec<u64>,
    rand_reads: u64,
    probe_rounds: Vec<u64>,
    reports: Vec<UpdateReport>,
    /// Per-layer metrics and the spans behind them; traced repetitions only.
    pub layers: BTreeMap<&'static str, f64>,
    pub tracer: Option<Tracer>,
}

/// Removes every data directory and stops every server it was handed — on
/// success, on an early `?` return and on panic alike.
#[derive(Default)]
struct Guard {
    dirs: Vec<PathBuf>,
    servers: Vec<ServerHandle>,
}

impl Guard {
    fn data_dir(&mut self, opts: &Opts, workload: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = opts
            .scratch
            .join(format!("{workload}-{}-{id}", std::process::id()));
        self.dirs.push(dir.clone());
        dir
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        for server in self.servers.drain(..) {
            server.shutdown();
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The seeded input of `workload`: its generator and the `(value, weight)`
/// pairs one step draws from it. Unweighted workloads cap the weight at 1,
/// which leaves the value stream of the plain dataset generator.
pub fn input(workload: &str, seed: u64) -> (SampledTelemetryGen, usize) {
    match workload {
        "ingest_heavy" => (SampledTelemetryGen::new(Dataset::Uniform, seed, 1), 65_536),
        "query_heavy" => (SampledTelemetryGen::new(Dataset::Normal, seed, 1), 32_768),
        "served_mixed" => (
            SampledTelemetryGen::new(Dataset::Uniform, seed, 1),
            2 * GROUP_PAIRS,
        ),
        _ => (
            SampledTelemetryGen::new(Dataset::Wikipedia, seed, 8),
            16_384,
        ),
    }
}

/// A query result reduced to what the benchmark records.
struct Got {
    value: u64,
    reads: u64,
    rand_reads: u64,
    bisection_steps: u32,
    round_trips: u64,
    probe_rounds: u32,
}

impl From<QueryOutcome<u64>> for Got {
    fn from(o: QueryOutcome<u64>) -> Self {
        Got {
            value: o.value,
            reads: o.io.total_reads(),
            rand_reads: o.io.rand_reads,
            bisection_steps: o.bisection_steps,
            // An in-process query is one call: one exchange with the caller.
            round_trips: 1,
            probe_rounds: 0,
        }
    }
}

impl From<ServedQuery<u64>> for Got {
    fn from(q: ServedQuery<u64>) -> Self {
        Got {
            round_trips: q.round_trips,
            probe_rounds: q.probe_rounds,
            ..Got::from(q.outcome)
        }
    }
}

fn got<Q: Into<Got>>(res: io::Result<Option<Q>>) -> io::Result<Option<Got>> {
    res.map(|o| o.map(Into::into))
}

/// A rank question over generator steps `first..=last`.
struct Ask {
    first: u32,
    last: u32,
    target: u64,
    eps_w: f64,
}

#[derive(Clone, Copy)]
enum Kind {
    Full,
    Window,
    EpochOpen,
}

/// The middle entry of the available windows, if any.
fn middle(windows: &[u64]) -> Option<u64> {
    windows.get(windows.len() / 2).copied()
}

fn sum_io(devices: &[&dyn BlockDevice]) -> IoSnapshot {
    devices
        .iter()
        .fold(IoSnapshot::default(), |acc, d| acc + d.stats().snapshot())
}

/// SplitMix64: seeded-uniform rank targets.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// State shared by the four workloads: the input generator, the tracer
/// and the samples collected so far.
struct Run<'a> {
    opts: &'a Opts,
    traced: bool,
    started: Instant,
    tr: Tracer,
    rep: Rep,
    gen: SampledTelemetryGen,
    step_pairs: usize,
    rng: SplitMix,
    /// `cum[s]`: summed input weight of steps `1..=s`.
    cum: Vec<u64>,
    /// False during warm-up steps: calls run but leave no samples.
    recording: bool,
    /// Device counters when the timed region began.
    io0: IoSnapshot,
    /// The latest step's input, kept for the layer replays (traced only).
    last_input: Vec<(u64, u64)>,
}

impl<'a> Run<'a> {
    fn new(opts: &'a Opts, traced: bool, workload: &str) -> Self {
        let (gen, step_pairs) = input(workload, opts.seed);
        Run {
            opts,
            traced,
            started: Instant::now(),
            tr: Tracer::new(false),
            rep: Rep::default(),
            gen,
            step_pairs,
            rng: SplitMix(opts.seed),
            cum: vec![0],
            recording: false,
            io0: IoSnapshot::default(),
            last_input: Vec::new(),
        }
    }

    /// Generate the next step's pairs.
    fn next_step(&mut self) -> Vec<(u64, u64)> {
        let pairs = self.gen.take_pairs(self.step_pairs);
        let weight: u64 = pairs.iter().map(|p| p.1).sum();
        self.cum
            .push(self.cum.last().expect("starts at 0") + weight);
        if self.traced {
            self.last_input.clone_from(&pairs);
        }
        pairs
    }

    /// The step generated last (1-based).
    fn step(&self) -> u32 {
        (self.cum.len() - 1) as u32
    }

    fn weight(&self, first: u32, last: u32) -> u64 {
        self.cum[last as usize] - self.cum[first as usize - 1]
    }

    /// Set-up is over: stamp `setup_s`, start recording and (on a traced
    /// repetition) tracing.
    fn begin_timed(&mut self, devices: &[&dyn BlockDevice]) {
        self.rep.setup_s = self.started.elapsed().as_secs_f64();
        self.recording = true;
        self.tr = Tracer::new(self.traced);
        self.io0 = sum_io(devices);
    }

    /// Rank `r` over steps `first..=` the current one; `eps` prices the
    /// allowed error against the live (current) step's weight.
    fn ask_rank(&self, target: u64, first: u32, eps: f64) -> Ask {
        let last = self.step();
        Ask {
            first,
            last,
            target,
            eps_w: eps * self.weight(last, last) as f64,
        }
    }

    /// A seeded-uniform rank over steps `first..=` the current one.
    fn ask_uniform(&mut self, first: u32, eps: f64) -> Ask {
        let total = self.weight(first, self.step());
        let target = 1 + self.rng.next() % total;
        self.ask_rank(target, first, eps)
    }

    fn ask(&self, phi: f64, first: u32, eps: f64) -> Ask {
        let total = self.weight(first, self.step());
        self.ask_rank(((phi * total as f64).ceil() as u64).max(1), first, eps)
    }

    /// One timed ingest call that absorbs `pairs`.
    fn ingest<R>(&mut self, name: &'static str, pairs: &[(u64, u64)], f: impl FnOnce() -> R) -> R {
        let (r, ns) = self.tr.leaf(name, f);
        if self.recording {
            self.rep.ingest_ns += ns;
            self.rep.timed_ns += ns;
            self.rep.ingest_pairs += pairs.len() as u64;
            self.rep.ingest_weight += pairs.iter().map(|p| p.1).sum::<u64>();
        }
        r
    }

    /// A step close (end-step plus manifest append) took `ns`.
    fn closed(&mut self, ns: u64, reports: impl IntoIterator<Item = UpdateReport>) {
        if self.recording {
            self.rep.ingest_ns += ns;
            self.rep.timed_ns += ns;
            self.rep.close_ns.push(ns);
            self.rep.reports.extend(reports);
        }
    }

    /// A query op took `ns` and produced `res`; an error or a missing
    /// answer is a failed operation.
    fn answered(&mut self, kind: Kind, ns: u64, ask: &Ask, res: io::Result<Option<Got>>) {
        if !self.recording {
            return;
        }
        self.rep.attempted += 1;
        self.rep.timed_ns += ns;
        let g = match res {
            Ok(Some(g)) => g,
            other => {
                if self.rep.failed < 5 {
                    eprintln!(
                        "failed op at step {}: {:?}",
                        ask.last,
                        other.map(|o| o.is_some())
                    );
                }
                self.rep.failed += 1;
                return;
            }
        };
        match kind {
            Kind::Full => {
                self.rep.query_ns.push(ns);
                self.rep.reads += g.reads;
                self.rep.round_trips += g.round_trips;
                self.rep.query_reads.push(g.reads);
                self.rep.rand_reads += g.rand_reads;
                self.rep.bisection_steps.push(g.bisection_steps as u64);
                self.rep.probe_rounds.push(g.probe_rounds as u64);
            }
            Kind::Window => self.rep.window_ns.push(ns),
            Kind::EpochOpen => self.rep.epoch_ns.push(ns),
        }
        self.rep.answers.push(Answer {
            value: g.value,
            target: ask.target,
            eps_w: ask.eps_w,
            first_step: ask.first,
            last_step: ask.last,
        });
    }

    /// Close the repetition: on a traced one, turn spans, counts and
    /// replays into the per-layer metrics every workload shares.
    fn finish(
        mut self,
        devices: &[&dyn BlockDevice],
        kind: SketchKind,
        cfg: &HsqConfig,
    ) -> Result<Rep, String> {
        let total_io = sum_io(devices);
        self.rep.write_amp =
            total_io.bytes_written as f64 / (self.cum.last().expect("non-empty") * 8) as f64;
        if !self.traced {
            return Ok(self.rep);
        }

        let rep = &mut self.rep;
        let tr = &self.tr;
        let min_beyond = self.opts.min_beyond;
        let mut put = |name: &'static str, v: f64| {
            rep.layers.insert(name, v);
        };
        for (metric, span, p, per_unit) in SPAN_PERCENTILES {
            let d = tr.durations(span);
            if !d.is_empty() {
                put(metric, percentile(&d, p, min_beyond)?.value / per_unit);
            }
        }
        for (metric, span) in [
            ("engine.extend_ns_per_item", "engine.stream_extend"),
            (
                "sharded.extend_ns_per_item",
                "sharded.stream_extend_weighted",
            ),
        ] {
            let ns: u64 = tr.durations(span).iter().sum();
            if ns > 0 {
                put(metric, ns as f64 / rep.ingest_pairs as f64);
            }
        }

        // (0.0 + …: the sum of no f64s is -0.0.)
        let secs = |f: fn(&UpdateReport) -> std::time::Duration| -> f64 {
            0.0 + rep.reports.iter().map(|r| f(r).as_secs_f64()).sum::<f64>()
        };
        put("warehouse.sort_s", secs(|r| r.sort_time));
        put("warehouse.load_s", secs(|r| r.load_time));
        put("warehouse.merge_s", secs(|r| r.merge_time));
        put("warehouse.summary_s", secs(|r| r.summary_time));
        let reports = &rep.reports;
        put(
            "warehouse.merges",
            reports.iter().map(|r| r.merges).sum::<usize>() as f64,
        );
        put(
            "warehouse.merge_bytes_rewritten",
            reports
                .iter()
                .map(|r| r.merge_io.bytes_written)
                .sum::<u64>() as f64,
        );
        put(
            "warehouse.cascade_max_ms",
            reports
                .iter()
                .map(|r| r.merge_time.as_secs_f64() * 1e3)
                .fold(0.0, f64::max),
        );
        put(
            "retention.retired_partitions",
            reports
                .iter()
                .map(|r| r.retention.retired_partitions)
                .sum::<usize>() as f64,
        );

        let io = total_io - self.io0;
        put("device.writes", io.writes as f64);
        put("device.syncs", io.syncs as f64);
        put("device.seq_reads", io.seq_reads as f64);
        put("device.rand_reads", io.rand_reads as f64);
        put("device.bytes_written", io.bytes_written as f64);
        put("device.bytes_read", io.bytes_read as f64);
        put("device.retries", io.retries as f64);

        if !rep.bisection_steps.is_empty() {
            let pct = |d: &[u64], p| percentile(d, p, min_beyond).map(|x| x.value);
            put(
                "query.bisection_steps_p50",
                pct(&rep.bisection_steps, 0.50)?,
            );
            put(
                "query.bisection_steps_p99",
                pct(&rep.bisection_steps, 0.99)?,
            );
            put("query.reads_p50", pct(&rep.query_reads, 0.50)?);
            put("query.reads_p99", pct(&rep.query_reads, 0.99)?);
            put(
                "query.rand_read_share",
                rep.rand_reads as f64 / rep.reads.max(1) as f64,
            );
            put(
                "coordinator.probe_rounds_p50",
                pct(&rep.probe_rounds, 0.50)?,
            );
            put(
                "coordinator.probe_rounds_p99",
                pct(&rep.probe_rounds, 0.99)?,
            );
        }
        put("trace.spans", tr.spans().len() as f64);

        let weighted = self.last_input.iter().any(|p| p.1 != 1);
        replay_layers(&self.last_input, weighted, kind, cfg, &mut self.rep.layers);
        self.rep.tracer = Some(self.tr);
        Ok(self.rep)
    }
}

/// `workload` by name.
pub fn run(workload: &str, opts: &Opts, traced: bool) -> Result<Rep, String> {
    let result = match workload {
        "ingest_heavy" => ingest_heavy(opts, traced),
        "query_heavy" => query_heavy(opts, traced),
        "served_mixed" => served_mixed(opts, traced),
        "sharded_weighted" => sharded_weighted(opts, traced),
        other => return Err(format!("unknown workload '{other}'")),
    };
    result.map_err(|e| format!("{workload}: {e}"))
}

/// Feed one step's values into a single engine, 4096 items a call.
fn extend_engine<D: BlockDevice>(
    run: &mut Run<'_>,
    h: &mut HistStreamQuantiles<u64, D>,
    pairs: &[(u64, u64)],
) {
    let values: Vec<u64> = pairs.iter().map(|p| p.0).collect();
    let op = run.tr.begin("op.ingest");
    for (chunk, p) in values.chunks(CHUNK).zip(pairs.chunks(CHUNK)) {
        run.ingest("engine.stream_extend", p, || h.stream_extend(chunk));
    }
    run.tr.end(op);
}

/// The warehouse accessors behind two per-layer metrics, summed over a
/// workload's engines.
fn warehouse_layers<D: BlockDevice>(
    layers: &mut BTreeMap<&'static str, f64>,
    warehouses: &[&Warehouse<u64, D>],
) -> io::Result<()> {
    let mut bytes = 0;
    for w in warehouses {
        bytes += w.partition_bytes()?;
    }
    let partitions: usize = warehouses.iter().map(|w| w.num_partitions()).sum();
    layers.insert("warehouse.partitions_final", partitions as f64);
    layers.insert("retention.retained_bytes", bytes as f64);
    Ok(())
}

type AnyResult<T> = Result<T, Box<dyn std::error::Error>>;

/// One engine on a `FileDevice` with a manifest log: per step, extend in
/// 4096-item batches, a 4-φ dashboard on the live engine, a snapshot with
/// one full and four windowed queries, then end-step and manifest append.
/// 250 steps cross the second cascade level twice (steps 121 and 242).
fn ingest_heavy(opts: &Opts, traced: bool) -> AnyResult<Rep> {
    let (warm, steps) = (opts.n(22), opts.n(250));

    let mut run = Run::new(opts, traced, "ingest_heavy");
    let mut guard = Guard::default();
    let dev = FileDevice::new(guard.data_dir(opts, "ingest_heavy"), BLOCK)?;
    let cfg = HsqConfig::builder().build();
    let eps = cfg.query_epsilon();
    let mut h = HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg.clone());
    let mut log = ManifestLog::create(h.warehouse())?;

    for s in 1..=warm + steps {
        if s == warm + 1 {
            run.begin_timed(&[&*dev]);
        }
        let pairs = run.next_step();
        extend_engine(&mut run, &mut h, &pairs);

        let op = run.tr.begin("op.dashboard");
        for phi in PHIS {
            let ask = run.ask(phi, 1, eps);
            let (res, ns) = run
                .tr
                .leaf("engine.rank_query", || h.rank_query(ask.target));
            run.answered(Kind::Full, ns, &ask, got(res));
        }
        run.tr.end(op);

        let ask = run.ask(0.5, 1, eps);
        let op = run.tr.begin("op.epoch_open");
        let (snap, _) = run.tr.leaf("engine.snapshot", || h.snapshot());
        let (res, _) = run
            .tr
            .leaf("engine.snapshot_rank_query", || snap.rank_query(ask.target));
        let ns = run.tr.end(op);
        run.answered(Kind::EpochOpen, ns, &ask, got(res));
        if let Some(w) = middle(&snap.available_windows()) {
            for phi in PHIS {
                let ask = run.ask(phi, s - w as u32, eps);
                let (res, ns) = run.tr.leaf("engine.snapshot_rank_in_window", || {
                    snap.rank_in_window(w, ask.target)
                });
                run.answered(Kind::Window, ns, &ask, got(res));
            }
        }
        drop(snap);
        if s == warm + steps {
            run.rep.memory_words = h.memory_words() as f64;
        }

        let op = run.tr.begin("op.step_close");
        let (report, _) = run.tr.leaf("engine.end_time_step", || h.end_time_step());
        let (appended, _) = run.tr.leaf("manifest.append", || log.append(h.warehouse()));
        let ns = run.tr.end(op);
        appended?;
        run.closed(ns, [report?]);
    }

    if traced {
        let l = &mut run.rep.layers;
        warehouse_layers(l, &[h.warehouse()])?;
        l.insert("manifest.log_bytes", log.log_bytes()? as f64);
        l.insert("manifest.blocking_syncs", log.blocking_syncs() as f64);
    }
    Ok(run.finish(&[&*dev], cfg.sketch, &cfg)?)
}

/// Set-up preloads history far larger than the block cache plus a live
/// stream; the timed part is rank queries at seeded-uniform ranks, each a
/// fresh context with cold caches, with a snapshot opened now and then and
/// windowed queries on it. The ingest metrics are taken from the preload.
fn query_heavy(opts: &Opts, traced: bool) -> AnyResult<Rep> {
    let preload = opts.n(200);
    let (queries, windows, epochs) = (opts.n(6000), opts.n(1000), opts.n(100));

    let mut run = Run::new(opts, traced, "query_heavy");
    let mut guard = Guard::default();
    let dev = FileDevice::new(guard.data_dir(opts, "query_heavy"), BLOCK)?;
    let cfg = HsqConfig::builder().build();
    let eps = cfg.query_epsilon();
    let mut h = HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg.clone());

    run.recording = true;
    for s in 1..=preload + 1 {
        let pairs = run.next_step();
        extend_engine(&mut run, &mut h, &pairs);
        // The last step stays live: queries run over H ∪ R.
        if s <= preload {
            let (report, ns) = run.tr.leaf("engine.end_time_step", || h.end_time_step());
            run.closed(ns, [report?]);
        }
    }
    run.rep.memory_words = h.memory_words() as f64;
    run.begin_timed(&[&*dev]);

    let live = run.step();
    let mut pinned = None;
    for i in 0..queries {
        if i % (queries / epochs) == 0 {
            let ask = run.ask_uniform(1, eps);
            let op = run.tr.begin("op.epoch_open");
            let snap = pinned.insert(run.tr.leaf("engine.snapshot", || h.snapshot()).0);
            let (res, _) = run
                .tr
                .leaf("engine.snapshot_rank_query", || snap.rank_query(ask.target));
            let ns = run.tr.end(op);
            run.answered(Kind::EpochOpen, ns, &ask, got(res));
        }
        if i % (queries / windows) == 0 {
            let snap = pinned.as_ref().expect("query 0 opens an epoch");
            let available = snap.available_windows();
            let w = available[run.rng.next() as usize % available.len()];
            let ask = run.ask_uniform(live - w as u32, eps);
            let (res, ns) = run.tr.leaf("engine.snapshot_rank_in_window", || {
                snap.rank_in_window(w, ask.target)
            });
            run.answered(Kind::Window, ns, &ask, got(res));
        }
        let ask = run.ask_uniform(1, eps);
        let (res, ns) = run
            .tr
            .leaf("engine.rank_query", || h.rank_query(ask.target));
        run.answered(Kind::Full, ns, &ask, got(res));
    }
    drop(pinned);

    if traced {
        warehouse_layers(&mut run.rep.layers, &[h.warehouse()])?;
    }
    Ok(run.finish(&[&*dev], cfg.sketch, &cfg)?)
}

/// One raw request/response exchange with a node, beside the coordinator.
fn exchange(stream: &mut TcpStream, request: Request<u64>) -> io::Result<Response<u64>> {
    write_frame(stream, &request.encode())?;
    Response::decode(&read_frame(stream)?)
}

/// Summary words the tenant's pinned session holds on `node`: three per
/// entry of the extract a coordinator fetches once per epoch. The engine
/// lives inside the server, so this is the one view of its summaries the
/// wire offers.
fn extract_words(node: SocketAddr) -> io::Result<f64> {
    let request = Request::Extract {
        tenant: TENANT,
        window: None,
    };
    match exchange(&mut TcpStream::connect(node)?, request)? {
        Response::Extract { sources, .. } => {
            Ok(sources.iter().map(|s| 3 * s.entries().len()).sum::<usize>() as f64)
        }
        other => Err(io::Error::other(format!("expected Extract, got {other:?}"))),
    }
}

/// Two single-shard `QuantileServer` nodes on loopback behind one
/// `Coordinator`: per step, ingest to both groups in 4096-pair frames,
/// open a new epoch, ask four dashboards on it, end the step.
fn served_mixed(opts: &Opts, traced: bool) -> AnyResult<Rep> {
    const DASHBOARDS: usize = 4;
    let (warm, steps) = (opts.n(22), opts.n(250));

    let mut run = Run::new(opts, traced, "served_mixed");
    let mut guard = Guard::default();
    let cfg = HsqConfig::builder().build();
    let mut mems = Vec::new();
    let mut nodes = Vec::new();
    for _ in 0..2 {
        let mem = MemDevice::new(BLOCK);
        let engine = ShardedEngine::<u64, _>::with_shards(1, cfg.clone(), |_| Arc::clone(&mem));
        let node = QuantileServer::new(engine).spawn(TcpListener::bind("127.0.0.1:0")?)?;
        nodes.push(node.addr());
        guard.servers.push(node);
        mems.push(mem);
    }
    let devices: Vec<&dyn BlockDevice> = mems.iter().map(|m| &**m as &dyn BlockDevice).collect();
    let mut coord = Coordinator::<u64>::connect(&nodes)?;
    // Traced runs time one node's session open by itself: a second tenant
    // re-pinned over a raw connection, so only its latest snapshot lives.
    let mut raw = traced.then(|| TcpStream::connect(nodes[0])).transpose()?;
    // A session cannot list windows. Both nodes step in lockstep under the
    // default config, so a one-item-per-step twin has their partition
    // layout and therefore their windows.
    let mut twin = ShardedEngine::<u64, _>::with_shards(1, cfg.clone(), |_| MemDevice::new(BLOCK));
    let mut windows: Vec<u64> = Vec::new();

    for s in 1..=warm + steps {
        if s == warm + 1 {
            run.begin_timed(&devices);
        }
        let pairs = run.next_step();
        let op = run.tr.begin("op.ingest");
        for (group, half) in pairs.chunks(GROUP_PAIRS).enumerate() {
            for frame in half.chunks(CHUNK) {
                run.ingest("coordinator.ingest", frame, || coord.ingest(group, frame))?;
            }
        }
        run.tr.end(op);
        if let (true, Some(raw)) = (run.tr.on(), raw.as_mut()) {
            run.tr.leaf("coordinator.ping", || coord.ping()).0?;
            let open = Request::OpenSession {
                tenant: TENANT + 1,
                refresh: true,
            };
            run.tr
                .leaf("server.open_session", || exchange(raw, open))
                .0?;
        }

        let op = run.tr.begin("op.epoch_open");
        let (session, _) = run.tr.leaf("coordinator.session", || coord.session(TENANT));
        let mut session = session?;
        run.tr.leaf("coordinator.refresh", || session.refresh()).0?;
        let eps = session.query_epsilon();
        let ask = run.ask(0.5, 1, eps);
        let (res, _) = run
            .tr
            .leaf("coordinator.rank_query", || session.rank_query(ask.target));
        let ns = run.tr.end(op);
        run.answered(Kind::EpochOpen, ns, &ask, got(res));

        for _ in 0..DASHBOARDS {
            let op = run.tr.begin("op.dashboard");
            let before = sum_io(&devices);
            for phi in PHIS {
                let ask = run.ask(phi, 1, eps);
                let (res, ns) = run
                    .tr
                    .leaf("coordinator.rank_query", || session.rank_query(ask.target));
                run.answered(Kind::Full, ns, &ask, got(res));
            }
            // Served outcomes carry no I/O; the nodes' devices do.
            if run.recording {
                run.rep.reads += (sum_io(&devices) - before).total_reads();
            }
            if let Some(w) = middle(&windows) {
                let ask = run.ask(0.99, s - w as u32, eps);
                let (res, ns) = run.tr.leaf("coordinator.rank_in_window", || {
                    session.rank_in_window(w, ask.target)
                });
                run.answered(Kind::Window, ns, &ask, got(res));
            }
            run.tr.end(op);
        }
        drop(session);
        if s == warm + steps {
            for &node in &nodes {
                run.rep.memory_words += extract_words(node)?;
            }
        }

        let (ended, ns) = run.tr.leaf("coordinator.end_step", || coord.end_step());
        ended?;
        run.closed(ns, []);
        twin.stream_extend(&[0]);
        twin.end_time_step()?;
        windows = twin.snapshot().available_windows();
    }

    // A failover on a healthy loopback fleet is a fault.
    run.rep.failed += coord.failovers();
    if traced {
        run.rep
            .layers
            .insert("coordinator.failovers", coord.failovers() as f64);
    }
    drop(coord);
    Ok(run.finish(&devices, cfg.sketch, &cfg)?)
}

/// A 4-shard KLL engine with 64-step retention fed heavy-tailed weighted
/// pairs: per step, extend in 4096-pair chunks, snapshot, two dashboards
/// of four full-union and four windowed ranks, end the step.
///
/// The ranks are seeded-uniform, not the fixed φ of the other workloads:
/// on skewed data the cost of a fixed φ depends on where the heavy values
/// land, so the p50 of a four-φ mix sits on the boundary between two cost
/// classes and flips between them from seed to seed. Uniform ranks sample
/// the same cost distribution under every seed. The data is `Wikipedia`
/// (log-normal sizes, duplicates at the head), not `NetTrace`: on
/// NetTrace's Zipf duplicates the KLL backend returns about one answer in
/// 4000 up to 7 % outside Theorem 2's bound (GK does not), and a workload
/// must not fail operations. README.md has the evidence.
fn sharded_weighted(opts: &Opts, traced: bool) -> AnyResult<Rep> {
    const SHARDS: usize = 4;
    const DASHBOARDS: usize = 2;
    let (warm, steps) = (opts.n(22), opts.n(250));

    let mut run = Run::new(opts, traced, "sharded_weighted");
    let cfg = HsqConfig::builder()
        .sketch(SketchKind::Kll)
        .retention(RetentionPolicy::unbounded().with_max_age_steps(64))
        .build();
    let eps = cfg.query_epsilon();
    let mems: Vec<Arc<MemDevice>> = (0..SHARDS).map(|_| MemDevice::new(BLOCK)).collect();
    let devices: Vec<&dyn BlockDevice> = mems.iter().map(|m| &**m as &dyn BlockDevice).collect();
    let mut engine =
        ShardedEngine::<u64, _>::with_shards(SHARDS, cfg.clone(), |i| Arc::clone(&mems[i]));

    for s in 1..=warm + steps {
        if s == warm + 1 {
            run.begin_timed(&devices);
        }
        let pairs = run.next_step();
        let op = run.tr.begin("op.ingest");
        for chunk in pairs.chunks(CHUNK) {
            run.ingest("sharded.stream_extend_weighted", chunk, || {
                engine.stream_extend_weighted(chunk)
            });
        }
        run.tr.end(op);

        let op = run.tr.begin("op.epoch_open");
        let (snap, _) = run.tr.leaf("sharded.snapshot", || engine.snapshot());
        if run.tr.on() {
            run.tr.leaf("bounds.combined_summary", || {
                snap.combined_summary();
            });
        }
        let available = snap.available_windows();
        // Retention keeps whole partitions: the widest window is all of
        // the retained history.
        let oldest = s - available.last().copied().unwrap_or(0) as u32;
        let ask = run.ask_uniform(oldest, eps);
        let (res, _) = run
            .tr
            .leaf("sharded.rank_query", || snap.rank_query(ask.target));
        let ns = run.tr.end(op);
        let probe_value = res.as_ref().ok().and_then(|o| o.map(|o| o.value));
        run.answered(Kind::EpochOpen, ns, &ask, got(res));

        for _ in 0..DASHBOARDS {
            let op = run.tr.begin("op.dashboard");
            for _ in PHIS {
                let ask = run.ask_uniform(oldest, eps);
                let (res, ns) = run
                    .tr
                    .leaf("sharded.rank_query", || snap.rank_query(ask.target));
                run.answered(Kind::Full, ns, &ask, got(res));
            }
            if let Some(w) = middle(&available) {
                for _ in PHIS {
                    let ask = run.ask_uniform(s - w as u32, eps);
                    let (res, ns) = run.tr.leaf("sharded.rank_in_window", || {
                        snap.rank_in_window(w, ask.target)
                    });
                    run.answered(Kind::Window, ns, &ask, got(res));
                }
            }
            run.tr.end(op);
        }
        if let (true, Some(z)) = (run.tr.on(), probe_value) {
            let mut caches = snap.new_cache_set();
            run.tr
                .leaf("sharded.probe_bounds", || snap.probe_bounds(z, &mut caches))
                .0?;
        }
        // Retention never retires under a live snapshot.
        drop(snap);
        if s == warm + steps {
            run.rep.memory_words = engine.memory_words() as f64;
        }

        let (reports, ns) = run
            .tr
            .leaf("sharded.end_time_step", || engine.end_time_step());
        run.closed(ns, reports?);
    }

    if traced {
        let lens = engine.shard_lens();
        let mean = lens.iter().sum::<u64>() as f64 / lens.len() as f64;
        let warehouses: Vec<_> = engine.shards().iter().map(|s| s.warehouse()).collect();
        let l = &mut run.rep.layers;
        warehouse_layers(l, &warehouses)?;
        l.insert(
            "sharded.shard_skew",
            *lens.iter().max().expect("four shards") as f64 / mean,
        );
        l.insert(
            "parallel.workers",
            hsq::core::parallel::worker_count(SHARDS) as f64,
        );
    }
    Ok(run.finish(&devices, cfg.sketch, &cfg)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_cleans_up_on_panic() {
        let scratch = std::env::temp_dir().join(format!("hsq-guard-test-{}", std::process::id()));
        let opts = Opts {
            seed: 1,
            divisor: 50,
            scratch: scratch.clone(),
            min_beyond: 0,
        };
        let mut kept = None;
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut guard = Guard::default();
            let dir = guard.data_dir(&opts, "panics");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("hsq-0.part"), b"x").unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let engine =
                ShardedEngine::<u64, _>::with_shards(1, HsqConfig::builder().build(), |_| {
                    MemDevice::new(BLOCK)
                });
            let node = QuantileServer::new(engine).spawn(listener).unwrap();
            kept = Some((dir, node.addr()));
            guard.servers.push(node);
            panic!("mid-run failure");
        }));
        assert!(panicked.is_err());
        let (dir, addr) = kept.unwrap();
        assert!(!dir.exists(), "data directory survived the panic");
        assert!(
            Coordinator::<u64>::connect(&[addr]).is_err(),
            "server survived the panic"
        );
        let _ = std::fs::remove_dir_all(scratch);
    }
}
