//! # hsq — quantiles over the union of historical and streaming data
//!
//! Umbrella crate re-exporting the `hsq-*` workspace members. This is the
//! crate downstream users depend on; the individual crates can also be used
//! à la carte.
//!
//! A faithful, production-quality Rust reproduction of:
//!
//! > Sneha Aman Singh, Divesh Srivastava, Srikanta Tirthapura.
//! > *Estimating quantiles from the union of historical and streaming data.*
//! > PVLDB 10(4): 433–444, 2016.
//!
//! ## Quickstart
//!
//! ```
//! use hsq::core::{HsqConfig, HistStreamQuantiles};
//! use hsq::storage::MemDevice;
//!
//! // epsilon = 0.01: quantile queries answered within 0.01 * |stream| rank error.
//! let config = HsqConfig::builder().epsilon(0.01).merge_threshold(4).build();
//! let mut hsq = HistStreamQuantiles::<u64, _>::new(MemDevice::new(4096), config);
//!
//! // Day 1..3: stream arrives element by element, then gets archived.
//! for day in 0..3u64 {
//!     for i in 0..10_000u64 {
//!         hsq.stream_update(day * 10_000 + i);
//!     }
//!     hsq.end_time_step().unwrap();
//! }
//! // Day 4 is still streaming:
//! for i in 30_000..40_000u64 {
//!     hsq.stream_update(i);
//! }
//!
//! let median = hsq.quantile(0.5).unwrap().expect("data is non-empty");
//! assert!((median as i64 - 20_000).unsigned_abs() < 200);
//! ```
//!
//! ## Batched quickstart
//!
//! The hot paths are batch-first: `stream_extend` absorbs a whole slice
//! per call (one sort feeds both the stream sketch and a pre-sorted
//! staging segment), and `end_time_step` archives those segments with
//! the block-at-a-time merge kernel that also merges partitions on disk
//! (`storage::merge_sources`) instead of a re-sort. Same multiset, same `ε`
//! guarantees, several times the throughput of element-wise updates —
//! prefer it whenever elements arrive in chunks (network reads, Kafka
//! batches, scan pages):
//!
//! ```
//! use hsq::core::{HsqConfig, HistStreamQuantiles};
//! use hsq::storage::MemDevice;
//!
//! let config = HsqConfig::builder().epsilon(0.01).merge_threshold(4).build();
//! let mut hsq = HistStreamQuantiles::<u64, _>::new(MemDevice::new(4096), config);
//!
//! // Archived days arrive as batches; ingest_step runs the batched
//! // pipeline end to end (stream_extend + end_time_step).
//! for day in 0..3u64 {
//!     let batch: Vec<u64> = (0..10_000u64).map(|i| day * 10_000 + i).collect();
//!     hsq.ingest_step(&batch).unwrap();
//! }
//! // The live day streams in chunks; scalar updates can interleave.
//! let live: Vec<u64> = (30_000..40_000u64).collect();
//! for chunk in live.chunks(4096) {
//!     hsq.stream_extend(chunk);
//! }
//! hsq.stream_update(12_345);
//!
//! let median = hsq.quantile(0.5).unwrap().expect("data is non-empty");
//! assert!((median as i64 - 20_000).unsigned_abs() < 200);
//!
//! // Sketch-level batch API, usable standalone:
//! let mut gk = hsq::GkSketch::new(0.01);
//! let mut batch: Vec<u64> = (0..4096u64).rev().collect();
//! gk.insert_batch(&mut batch); // sorts once, merges in one pass
//! assert_eq!(gk.len(), 4096);
//! ```
//!
//! ## Choosing a sketch backend
//!
//! The stream-side summary `SS` is built from one
//! [`hsq_sketch::AnySketch`], which runs one of two backends:
//!
//! * [`SketchKind::Gk`] (default) — the Greenwald–Khanna sketch the
//!   paper specifies: the smallest memory footprint at a given `ε`;
//! * [`SketchKind::Kll`] — a deterministic KLL compactor ladder: O(1)
//!   amortized updates and batch inserts that skip the per-element
//!   merge, at far more memory: 45,068 words against GK's 1.9–2.0k for a
//!   65,536-item step.
//!
//! Both honour the same tracked rank-bound contract, so Theorem 2's
//! `ε·m` union guarantee holds unchanged under either (A/B'd by the
//! `headline` bench's `sketch` section and CI's `sketch-ab` job).
//! Select per engine with the builder knob; the default is always GK:
//!
//! ```
//! use hsq::core::{HsqConfig, HistStreamQuantiles};
//! use hsq::storage::MemDevice;
//! use hsq::SketchKind;
//!
//! let config = HsqConfig::builder()
//!     .epsilon(0.01)
//!     .merge_threshold(4)
//!     .sketch(SketchKind::Kll) // paper-faithful default: SketchKind::Gk
//!     .build();
//! let mut hsq = HistStreamQuantiles::<u64, _>::new(MemDevice::new(4096), config);
//! for day in 0..3u64 {
//!     let batch: Vec<u64> = (0..10_000u64).map(|i| day * 10_000 + i).collect();
//!     hsq.ingest_step(&batch).unwrap();
//! }
//! for i in 30_000..40_000u64 {
//!     hsq.stream_update(i);
//! }
//! let median = hsq.quantile(0.5).unwrap().expect("data is non-empty");
//! assert!((median as i64 - 20_000).unsigned_abs() < 200); // same eps * m bound
//! assert_eq!(hsq.stream().sketch().kind(), SketchKind::Kll);
//! ```
//!
//! Engine manifests persist the live sketch kind-tagged (see
//! [`hsq_core::manifest`]), so state written under one backend recovers
//! under either build; the configured backend takes over at the next
//! step boundary.
//!
//! ## Weighted items & sampled telemetry
//!
//! Sampled telemetry delivers `(value, weight)` pairs — each record
//! stands in for `weight` identical originals (the inverse sampling
//! rate). The weighted ingestion paths (`stream_update_weighted`,
//! `stream_extend_weighted`, on both the single and the sharded engine)
//! absorb the weight *natively* in the stream sketch — KLL places a
//! weight-`w` item directly onto its weight-`2^h` compactor levels in
//! `O(log w)`, GK merges it as one run in a linear pass — so a
//! weight-million record costs nothing like a million updates, while
//! every rank, size (`m`, `N`) and error bound simply reads *summed
//! weight*: answers stay within `ε·W` of exact over the replicated
//! expansion, `W` the total stream weight. Archival materializes weight
//! as replication, so windowed queries, persistence, sharding and
//! retention all compose unchanged:
//!
//! ```
//! use hsq::core::{HsqConfig, HistStreamQuantiles};
//! use hsq::storage::MemDevice;
//! use hsq::workload::{Dataset, SampledTelemetryGen};
//!
//! let config = HsqConfig::builder().epsilon(0.01).merge_threshold(4).build();
//! let mut hsq = HistStreamQuantiles::<u64, _>::new(MemDevice::new(4096), config);
//!
//! // Sampled telemetry: each pair (value, w) stands in for w originals.
//! let mut telemetry = SampledTelemetryGen::new(Dataset::Uniform, 42, 64);
//! let pairs = telemetry.take_pairs(10_000);
//! hsq.stream_extend_weighted(&pairs);          // batched
//! hsq.stream_update_weighted(123_456_789, 1_000_000); // scalar: O(log w) in KLL, O(tuples) in GK
//!
//! let total_w: u64 = pairs.iter().map(|&(_, w)| w).sum::<u64>() + 1_000_000;
//! assert_eq!(hsq.stream_len(), total_w); // m is the summed weight W
//! let median = hsq.quantile(0.5).unwrap().expect("data is non-empty");
//! assert!(median > 100_000_000); // the heavy item dominates the mass
//! ```
//!
//! ## Sharded quickstart (multi-tenant / concurrent readers)
//!
//! [`ShardedEngine`] hash-partitions items across independent engine
//! shards — each with its own stream sketch and warehouse, ingested in
//! parallel — and answers queries by *fan-in*: per-shard rank bounds add
//! across the disjoint shards, so the merged answer keeps the exact
//! single-engine `ε·m` guarantee. Snapshots make reads concurrent with
//! ingestion: take one under the writer's lock, query it lock-free while
//! `end_time_step` archives and merges underneath.
//!
//! ```
//! use hsq::core::{HsqConfig, ShardedEngine};
//! use hsq::storage::MemDevice;
//!
//! let config = HsqConfig::builder().epsilon(0.01).merge_threshold(4).build();
//! // 4 shards, each on its own device (its own disk in production).
//! let mut engine = ShardedEngine::<u64, _>::with_shards(4, config, |_| MemDevice::new(4096));
//!
//! // Batches are split by shard hash and ingested in parallel.
//! for day in 0..3u64 {
//!     let batch: Vec<u64> = (0..10_000u64).map(|i| day * 10_000 + i).collect();
//!     engine.ingest_step(&batch).unwrap();
//! }
//! let live: Vec<u64> = (30_000..40_000u64).collect();
//! engine.stream_extend(&live);
//!
//! // Cross-shard quantiles: same eps * m guarantee as a single engine.
//! let median = engine.quantile(0.5).unwrap().expect("data is non-empty");
//! assert!((median as i64 - 20_000).unsigned_abs() < 200);
//!
//! // An immutable snapshot keeps answering (with pinned partitions and a
//! // frozen stream summary) while the engine keeps ingesting.
//! let snapshot = engine.snapshot();
//! engine.ingest_step(&(40_000..50_000u64).collect::<Vec<_>>()).unwrap();
//! assert_eq!(snapshot.total_len(), 40_000);
//! assert_eq!(engine.total_len(), 50_000);
//! ```
//! ## Retention + windowed quickstart (TTL-bounded storage)
//!
//! Production services bound storage: a [`hsq_core::RetentionPolicy`]
//! expires old partitions on every step boundary (whole partitions,
//! oldest first, never under a live snapshot), and
//! `quantile_in_window(w, phi)` answers "p99 over the last `w` steps" —
//! the `ε·m` guarantee holds over the *retained* union:
//!
//! ```
//! use hsq::core::{HsqConfig, HistStreamQuantiles, RetentionPolicy};
//! use hsq::storage::MemDevice;
//!
//! let config = HsqConfig::builder()
//!     .epsilon(0.01)
//!     .merge_threshold(8)
//!     // Keep only the newest 24 "hours" (steps); byte / partition-count
//!     // caps compose the same way.
//!     .retention(RetentionPolicy::unbounded().with_max_age_steps(24))
//!     .build();
//! let mut hsq = HistStreamQuantiles::<u64, _>::new(MemDevice::new(4096), config);
//!
//! // Three days of hourly steps: history stays bounded by the TTL.
//! for hour in 0..72u64 {
//!     let batch: Vec<u64> = (0..1_000u64).map(|i| hour * 1_000 + i).collect();
//!     let report = hsq.ingest_step(&batch).unwrap();
//!     let _ = report.retention.retired_items; // expiry accounting per step
//! }
//! // Expiry is partition-aligned (a merged partition straddling the
//! // horizon is kept whole), so the bound is the TTL plus one merged
//! // span — here kappa + 1 = 9 steps.
//! assert!(hsq.historical_len() <= (24 + 9) * 1_000);
//!
//! // Sliding-window dashboard: the widest aligned window within 24h.
//! let window = hsq.available_windows().into_iter().filter(|&w| w <= 24).max().unwrap();
//! let p99 = hsq.quantile_in_window(window, 0.99).unwrap().unwrap();
//! assert!(p99 >= 71_000, "p99 lives in the newest data");
//! ```
//!
//! The same windowed API fans out across shards
//! ([`ShardedEngine::quantile_in_window`] — per-shard retention applies
//! on the shared step boundary), and
//! [`hsq_core::manifest::ManifestLog`] persists per-step deltas with
//! compaction so recovery replays live partitions only (see
//! `examples/retention_window.rs`).
//!
//! ## Durability
//!
//! Every device call is synchronous, and every manifest is one log
//! format: `persist` writes a log of a single `Base` record (carrying the
//! live stream, for an engine), and [`hsq_core::manifest::ManifestLog`]
//! appends a record per step. The log is write-ahead: each run a record
//! names is synced before the record lands, and the log is synced after
//! it. A log started over archived history therefore syncs every
//! partition, then itself, and a crash at any later point recovers the
//! last durable record:
//!
//! ```
//! use hsq::core::{manifest::ManifestLog, HsqConfig, HistStreamQuantiles};
//! use hsq::storage::{BlockDevice, MemDevice};
//! use std::sync::Arc;
//!
//! let config = HsqConfig::builder().epsilon(0.01).merge_threshold(4).build();
//! let dev = MemDevice::new(4096);
//! let mut hsq = HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), config.clone());
//! for day in 0..3u64 {
//!     hsq.ingest_step(&(day * 10_000..(day + 1) * 10_000).collect::<Vec<_>>()).unwrap();
//! }
//! let syncs = || dev.stats().snapshot().syncs;
//! let before = syncs();
//! let mut log = ManifestLog::create(hsq.warehouse()).unwrap();
//! assert_eq!(syncs() - before, hsq.warehouse().num_partitions() as u64 + 1);
//!
//! hsq.ingest_step(&(30_000..40_000u64).collect::<Vec<_>>()).unwrap();
//! log.append(hsq.warehouse()).unwrap();
//! let file = log.simulate_crash(); // the process dies here
//!
//! let recovered = HistStreamQuantiles::<u64, _>::recover(dev, config, file).unwrap();
//! assert_eq!(recovered.historical_len(), 40_000);
//! let median = recovered.quantile(0.5).unwrap().expect("data is non-empty");
//! assert!((median as i64 - 20_000).unsigned_abs() < 400);
//! ```
//!
//! The fault-injection harness
//! ([`hsq_storage::FaultDevice`]) defends this with deterministic
//! schedules — fail op `N`, torn final block, crash-stop after op `N` —
//! that drive an exhaustive crash-point sweep in
//! `crates/core/tests/fault_injection.rs`, asserting recovery matches a
//! non-crashing oracle within `ε·m` at **every** device mutation index;
//! a transient failure in `append` or `compact` leaves the handle
//! unchanged, so the workload carries on past it.
//! Use that harness as the template for future durability tests.
//!
//! ## Self-healing storage (robustness & operations)
//!
//! Disks lie: reads fail transiently, and bits rot silently. The storage
//! layer defends both, end to end:
//!
//! * **Checksummed run blocks.** Every run block carries a CRC64
//!   trailer, verified on *every* read path — queries, merges,
//!   recovery, backups, scrub. Manifests get the same treatment:
//!   per-record CRCs with torn-tail truncation on the one log format
//!   (fuzzed in `crates/core/src/manifest.rs`).
//! * **A typed error taxonomy.** Device errors are classified as
//!   *transient* (worth retrying), *corruption* (pinned to a
//!   `(file, block)`), or *fatal*, carried inside `io::Error` and
//!   inspected with [`hsq_storage::is_transient`] /
//!   [`hsq_storage::corruption_in`].
//! * **Transient-I/O retry.** [`hsq_storage::RetryPolicy`] retries
//!   transients at two seams: `HsqConfig::builder().retry(..)` makes
//!   every query retry a failed probe whole, and
//!   [`hsq_storage::RetryDevice`] wraps any device to mask flaky reads
//!   below the engine (retries are counted in `IoStats`). Transients
//!   never quarantine data.
//! * **Corruption quarantine + degraded queries.** When a read fails
//!   its checksum, the owning partition is *quarantined* (durably — the
//!   manifest log records it, recovery replays it): merges route around
//!   it and queries keep answering, **degraded**, with
//!   [`hsq_core::QueryOutcome::rank_lo`]`..`[`rank_hi`](hsq_core::QueryOutcome::rank_hi)
//!   widened by *exactly* the quarantined mass — the answer is honest
//!   about what it can no longer see. `strict(true)` flips the policy:
//!   accurate queries refuse (`InvalidData`) while any mass is
//!   quarantined — on the live engine, on snapshots pinned after the
//!   quarantine, on sharded engines and on served nodes alike, because
//!   the flag is part of the scope every query runs over.
//! * **Scrub.** [`HistStreamQuantiles::scrub`](hsq_core::HistStreamQuantiles::scrub)
//!   runs one rate-limited pass: first it *repairs* quarantined
//!   partitions — salvaging every checksum-valid block into a fresh run
//!   and counting what was truly lost — then it *verifies* healthy
//!   partitions round-robin within a block budget, resuming where the
//!   last pass stopped. Call it from a periodic operations loop; size
//!   `budget_blocks` to your background-I/O allowance.
//!
//! ```
//! use hsq::core::{HsqConfig, HistStreamQuantiles};
//! use hsq::storage::{BlockDevice, MemDevice, RetryPolicy};
//! use std::sync::Arc;
//!
//! let config = HsqConfig::builder()
//!     .epsilon(0.01)
//!     .merge_threshold(4)
//!     .retry(RetryPolicy::standard(4)) // per-query transient retries
//!     .build();
//! let mut hsq = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), config);
//! for day in 0..3u64 {
//!     let batch: Vec<u64> = (0..10_000u64).map(|i| day * 10_000 + i).collect();
//!     hsq.ingest_step(&batch).unwrap();
//! }
//! for i in 30_000..40_000u64 {
//!     hsq.stream_update(i); // eps * m = 100
//! }
//!
//! // Silent bit-rot: flip one byte inside a run block on "disk".
//! let dev = Arc::clone(hsq.warehouse().device());
//! let file = hsq.warehouse().partitions_newest_first()[0].run.file();
//! let mut buf = vec![0u8; 256];
//! let n = dev.read_block(file, 0, &mut buf).unwrap();
//! buf[n / 2] ^= 1;
//! dev.write_block(file, 0, &buf[..n]).unwrap();
//!
//! // A scrub pass catches the bad checksum and quarantines the partition.
//! let found = hsq.scrub(u64::MAX).unwrap();
//! assert_eq!(found.corrupt_blocks, 1);
//! assert_eq!(found.quarantined_after, 1);
//!
//! // Queries still answer — flagged, with bounds widened by exactly the
//! // 10_000 quarantined items (strict(true) would refuse instead).
//! let o = hsq.rank_query(20_000).unwrap().unwrap();
//! assert!(o.degraded);
//! assert_eq!(o.quarantined, 10_000);
//! assert_eq!(o.rank_hi - o.rank_lo, 2 * 100 + 10_000);
//!
//! // The next pass repairs: every checksum-valid block is salvaged; only
//! // the rotted block's items (31 per 256-byte block) are truly lost.
//! let healed = hsq.scrub(u64::MAX).unwrap();
//! assert_eq!(healed.partitions_repaired, 1);
//! assert_eq!(healed.items_lost, 31);
//! assert_eq!(healed.quarantined_after, 0);
//! let o = hsq.rank_query(20_000).unwrap().unwrap();
//! assert_eq!(o.quarantined, 31); // widening shrank to the confirmed loss
//! ```
//!
//! The guarantees are swept in `tests/corruption_sweep.rs` (bit-rot in
//! every block of every partition: each answer is oracle-correct or
//! flagged with exact widening; flaky-read schedules masked with zero
//! query-visible failures) and demonstrated operationally in
//! `examples/degraded_dashboard.rs`.
//!
//! ## Performance tuning
//!
//! The hot paths self-tune, but these levers are worth knowing:
//!
//! **Radix-sorted batch ingest.** Every in-memory batch sort — engine
//! segment staging, warehouse level-0 preparation, external-sort spill
//! chunks, `GkSketch::insert_batch` — goes through
//! [`hsq_storage::sort_items`]: an LSD radix sort over the item's
//! order-preserving `u64` key ([`hsq_sketch::RadixKey`]). It engages
//! automatically for batches of 64+ radix-keyed items and adapts to the
//! *occupied key width* (one OR/AND scan finds the varying bits; 30-bit
//! domains cost three bucket passes, not eight), falling back to the
//! comparison sort for short slices and 128-bit universes — with an
//! ordering guaranteed identical either way. ~2.5× the comparison sort
//! on 4096-item `u64` batches (see `benches/radix_sort.rs`; the repo's
//! benchmark traces it as `sketch.radix.sort_ns_per_item`); custom
//! [`hsq_storage::Item`] implementations opt in by implementing
//! `RadixKey` honestly or opt out with `RADIXABLE = false`.
//!
//! **Summary-seeded bisection.** Accurate queries bisect the value
//! space, and the bisection is seeded from the combined summary's
//! tightest bracket, which cuts p50 probe counts from ~45 (domain-seeded)
//! to ~3 on the headline workload.
//!
//! **One query path.** Every surface — [`HistStreamQuantiles`] and
//! [`ShardedEngine`], their one snapshot type [`ShardedSnapshot`] (a single
//! engine's is over its one shard), a served node and
//! [`service::TenantSession`] — answers through the
//! same three pieces in [`hsq_core::query`]: a *scope* (the combined
//! summary of the selected partitions plus the stream, with `N`, `m`,
//! `ε`, the quarantined mass and `strict`; a window is just another
//! partition selection), a *probe source* returning summed rank bounds
//! for a value, and the *driver* `accurate_response` that seeds a
//! bracket from the scope and bisects over the source (Algorithms 6–8).
//! The surfaces only build the scope and the source; recovery
//! (one quarantine-and-retry loop shared by both engines, failover
//! restarts on the coordinator) wraps the path from outside.
//!
//! **Scopes build once per view.** A [`ShardedSnapshot`] caches each
//! window's scope (combined summary included) on first use, and the
//! engines hand out the *same* view, which
//! their own queries answer through too, until the data changes: any
//! ingest, step close or scrub retires it, and so does a quarantine. A
//! dashboard between two ingests therefore pays for each window's `TS`
//! once, however it asks. Holding one snapshot across ingests keeps its
//! answers consistent and its scopes warm:
//!
//! ```
//! use hsq::core::{HsqConfig, ShardedEngine};
//! use hsq::storage::MemDevice;
//!
//! let config = HsqConfig::builder().epsilon(0.01).merge_threshold(4).build();
//! let mut engine = ShardedEngine::<u64, _>::with_shards(4, config, |_| MemDevice::new(4096));
//! engine.ingest_step(&(0..50_000u64).collect::<Vec<_>>()).unwrap();
//!
//! // One snapshot, many queries: each window's scope builds once.
//! let snap = engine.snapshot();
//! let p50 = snap.quantile(0.50).unwrap().unwrap();
//! let p95 = snap.quantile(0.95).unwrap().unwrap();
//! let p99 = snap.quantile(0.99).unwrap().unwrap();
//! assert!(p50 <= p95 && p95 <= p99);
//! ```
//!
//! **Checksums.** Every block read — a query's probe, a merge's input —
//! verifies the block's CRC64 trailer, and every write, manifest record
//! and wire frame computes one. [`hsq_storage::crc64`] folds with
//! carry-less multiplies on x86_64 CPUs with `pclmulqdq` and `sse4.1`
//! (detected at runtime): ≈ 70 ns/KiB against ≈ 650 for the portable
//! table kernel, which short inputs and other architectures use. Both
//! compute the same checksum bit for bit, so the format does not depend
//! on the host. There is nothing to configure; `headline` gates the cost
//! as `storage.crc64_ns_per_kib`.
//!
//! ## Serving quantiles over the network
//!
//! [`hsq_service`] scales the engine *out*: each node wraps a
//! [`ShardedEngine`] in a [`service::QuantileServer`] (plain
//! `std::net::TcpListener`, no async runtime), and a
//! [`service::Coordinator`] answers union-wide queries across the fleet
//! with the *same* `ε·m` guarantee — rank bounds over disjoint node
//! data add, so the coordinator runs the identical value-space
//! bisection, just with each probe batched to every node in one
//! round-trip. Per-tenant sessions pin a snapshot epoch on every node
//! and fetch each node's summary extract once, so a dashboard's
//! repeated queries ride the cached-summary fast path and settle in ~3
//! probe rounds each; on a single node the served answers are
//! *byte-identical* to in-process [`ShardedSnapshot`] answers
//! (property-tested in `crates/service/tests/loopback.rs`):
//!
//! ```
//! use hsq::core::HsqConfig;
//! use hsq::service::{Coordinator, QuantileServer};
//! use hsq::core::ShardedEngine;
//! use hsq::storage::MemDevice;
//! use std::net::TcpListener;
//!
//! // A serving node: 2 engine shards behind a loopback listener.
//! let config = HsqConfig::builder().epsilon(0.01).merge_threshold(4).build();
//! let engine = ShardedEngine::<u64, _>::with_shards(2, config, |_| MemDevice::new(4096));
//! let node = QuantileServer::new(engine)
//!     .spawn(TcpListener::bind("127.0.0.1:0").unwrap())
//!     .unwrap();
//!
//! // The coordinator drives ingest and queries over the wire.
//! let mut coord = Coordinator::<u64>::connect(&[node.addr()]).unwrap();
//! for day in 0..3u64 {
//!     let batch: Vec<(u64, u64)> =
//!         (0..10_000u64).map(|i| (day * 10_000 + i, 1)).collect();
//!     coord.ingest(0, &batch).unwrap();
//!     coord.end_step().unwrap();
//! }
//!
//! // A tenant session pins the node's snapshot and fetches its summary
//! // extract once; every query after that is a few probe rounds.
//! let mut session = coord.session(/* tenant */ 1).unwrap();
//! let served = session.quantile(0.5).unwrap().unwrap();
//! assert!((served.outcome.value as i64 - 15_000).unsigned_abs() <= 100);
//! assert!(served.probe_rounds <= 6); // summary-seeded bisection
//! let p99_quick = session.quantile_quick(0.99).unwrap().unwrap(); // zero rounds
//! assert!(p99_quick >= 29_000);
//! node.shutdown();
//! ```
//!
//! ## Running a fault-tolerant fleet
//!
//! Single-address fleets die with their node. A [`service::FleetConfig`]
//! groups nodes into *replica groups*: group `g` owns the same
//! shard-range a single node used to, and lists replicas in failover
//! preference order. The coordinator writes to **every** replica of a
//! group (identical data ⇒ bit-identical summary extracts) and reads
//! from the first reachable one, so when a replica dies mid-bisection
//! the query re-seeds from the survivor's extract and finishes with the
//! **byte-identical** answer — same value, same rank interval, same
//! probe-round count. Every network op runs under a
//! [`service::NetRetryPolicy`] (bounded attempts, decorrelated-jitter
//! backoff, per-op deadlines), and errors are classified
//! transient / node-down / fatal like the storage layer's taxonomy.
//! Topology comes from [`service::FleetConfig::new`], a spec string
//! ([`service::FleetConfig::parse`]: `a:7001,b:7001;a:7002,b:7002` — `;`
//! between groups, `,` between replicas), or a config file
//! ([`service::FleetConfig::from_file`]).
//!
//! When *every* replica of a group is unreachable, queries keep
//! answering over the reachable union, `degraded`, with `rank_hi`
//! widened by exactly the missing group's recorded weight — the same
//! honest-bounds contract quarantined corruption uses. Strict fleets
//! (`FleetConfig::strict(true)`) refuse instead
//! with a typed error carrying that weight
//! ([`service::strict_refusal_weight`]).
//!
//! ```
//! use hsq::core::{HsqConfig, ShardedEngine};
//! use hsq::service::{Coordinator, FleetConfig, QuantileServer};
//! use hsq::storage::MemDevice;
//! use std::net::TcpListener;
//!
//! // One replica group, two replicas — each its own server process in
//! // production; loopback threads here.
//! let spawn = || {
//!     let config = HsqConfig::builder().epsilon(0.01).merge_threshold(4).build();
//!     let engine = ShardedEngine::<u64, _>::with_shards(2, config, |_| MemDevice::new(4096));
//!     QuantileServer::new(engine)
//!         .spawn(TcpListener::bind("127.0.0.1:0").unwrap())
//!         .unwrap()
//! };
//! let (primary, standby) = (spawn(), spawn());
//! let fleet = FleetConfig::new(vec![vec![
//!     primary.addr().to_string(),
//!     standby.addr().to_string(),
//! ]])
//! .unwrap();
//!
//! // Writes go to every replica of the group; both now hold the union.
//! let mut coord = Coordinator::<u64>::connect_fleet(&fleet).unwrap();
//! for day in 0..3u64 {
//!     let batch: Vec<(u64, u64)> =
//!         (0..5_000u64).map(|i| (day * 5_000 + i, 1)).collect();
//!     coord.ingest(0, &batch).unwrap();
//!     coord.end_step().unwrap();
//! }
//!
//! let mut session = coord.session(1).unwrap();
//! let before = session.quantile(0.5).unwrap().unwrap();
//!
//! // Kill the preferred replica mid-session: the next query rides the
//! // retry/failover path to the standby and answers byte-identically.
//! primary.shutdown();
//! let after = session.quantile(0.5).unwrap().unwrap();
//! assert_eq!(before.outcome.value, after.outcome.value);
//! assert_eq!(before.outcome.rank_lo, after.outcome.rank_lo);
//! assert_eq!(before.outcome.rank_hi, after.outcome.rank_hi);
//! assert!(!after.outcome.degraded); // a replica survived: full fidelity
//! standby.shutdown();
//! ```
//!
//! The deterministic chaos harness behind these guarantees —
//! [`service::FaultPlan`] schedules of dropped connections, delays, torn
//! frames, partitions, and slow nodes injected at exact op indices — is
//! swept in `crates/service/tests/chaos.rs` (every schedule point ×
//! seeds {0, 7, 23} × fleet shapes, one test per shape),
//! and `examples/failover_fleet.rs` demonstrates the operational story.
pub use hsq_core as core;
pub use hsq_service as service;
pub use hsq_sketch as sketch;
pub use hsq_storage as storage;
pub use hsq_workload as workload;

pub use hsq_core::{
    EngineSnapshot, HistStreamQuantiles, HsqConfig, RetentionPolicy, ShardedEngine, ShardedSnapshot,
};
pub use hsq_sketch::{GkSketch, KllSketch, QDigest, SketchKind};
pub use hsq_storage::{FileDevice, MemDevice};
