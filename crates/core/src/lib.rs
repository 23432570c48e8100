//! # hsq-core — quantiles over the union of historical and streaming data
//!
//! A faithful Rust implementation of:
//!
//! > Sneha Aman Singh, Divesh Srivastava, Srikanta Tirthapura.
//! > *Estimating quantiles from the union of historical and streaming
//! > data.* PVLDB 10(4): 433–444, 2016.
//!
//! The system answers φ-quantile queries over `T = H ∪ R` — the union of
//! a disk-resident historical warehouse `H` and an in-flight data stream
//! `R` — with rank error `εm` proportional to the *stream* size `m`, not
//! the total size `N`. It does so by combining:
//!
//! * **`HD`** ([`warehouse::Warehouse`]): historical data in sorted
//!   partitions organized into levels with at most `κ` partitions each;
//!   overflowing levels are multi-way merged upward (LSM-flavoured, but
//!   optimized for quantile queries rather than point lookups — §1.3);
//! * **`HS`** ([`summary::PartitionSummary`]): per-partition in-memory
//!   summaries of `β₁` evenly spaced elements with exact ranks and block
//!   pointers;
//! * **`SS`** ([`stream::StreamProcessor`]): a pluggable quantile sketch
//!   over the live stream — Greenwald–Khanna by default (the paper's
//!   choice), or a KLL compactor ladder selected via the [`HsqConfig`]
//!   builder's `sketch` knob ([`SketchKind`]) — from which a
//!   `β₂`-element summary is extracted at query time;
//! * **queries** ([`query`]): one path on every surface. A
//!   [`query::QueryScope`] holds what a query answers over — the combined
//!   summary of the selected partitions (all, or a window's worth) plus
//!   the stream, `N`, `m`, `ε`, the quarantined mass and `strict`; a
//!   [`RankProbeSource`] returns summed rank bounds for a probe value
//!   ([`query::PartitionProbes`]: exact on-disk ranks through narrowed,
//!   block-cached interpolation searches that fall back to binary search
//!   after a miss, plus the stream's interval); and the
//!   driver [`query::accurate_response`] (Algorithms 6–8) bisects the
//!   value space between summary-derived filters until the estimate is
//!   within `εm` of the target (Theorem 2). The quick response
//!   (Algorithm 5, error ≤ 1.5εN) reads the scope alone. There is one
//!   queryable pinned view, [`ShardedSnapshot`]: a single engine's
//!   snapshot is one over its one shard (an [`EngineSnapshot`] holds a
//!   shard's pinned data and nothing else). Each engine answers through
//!   its view, kept until the data changes, so it and its snapshots build
//!   each window's scope once; the networked coordinator differs only in
//!   how it builds the scope and the source. One quarantine-and-retry
//!   loop, shared by both engines, wraps the whole path from outside.
//!
//! Baselines ([`baseline`]), window queries and memory budgeting
//! ([`budget`]) complete the reproduction.
//!
//! Beyond the paper, the crate scales the engine out: [`sharded`]
//! hash-partitions items across independent engine shards with mergeable
//! cross-shard queries (per-shard rank bounds add, preserving the `εm`
//! guarantee over the union), and [`ShardedSnapshot`] gives readers of
//! either engine immutable pinned views so queries run concurrently with
//! ingestion; [`manifest`] persists warehouses — including consistent
//! online backups taken from a snapshot and an append-only
//! [`manifest::ManifestLog`] with compaction; [`retention`] bounds the
//! warehouse with TTL/byte/count policies while windowed queries
//! (`quantile_in_window`) keep the `ε·m` guarantee over the retained
//! union.
//!
//! ## Quickstart
//!
//! ```
//! use hsq_core::{HistStreamQuantiles, HsqConfig};
//! use hsq_storage::MemDevice;
//!
//! let config = HsqConfig::builder().epsilon(0.02).merge_threshold(4).build();
//! let mut hsq = HistStreamQuantiles::<u64, _>::new(MemDevice::new(4096), config);
//!
//! // Three archived time steps...
//! for day in 0..3u64 {
//!     for i in 0..5_000u64 {
//!         hsq.stream_update(day * 5_000 + i);
//!     }
//!     hsq.end_time_step().unwrap();
//! }
//! // ...and a live stream.
//! for i in 15_000..20_000u64 {
//!     hsq.stream_update(i);
//! }
//!
//! let p95 = hsq.quantile(0.95).unwrap().unwrap();
//! assert!((p95 as i64 - 19_000).abs() <= 100); // error <= eps * m = 100
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod bounds;
pub mod budget;
pub mod config;
pub mod engine;
pub mod heavy;
pub mod manifest;
pub mod parallel;
pub mod query;
pub mod retention;
pub mod sharded;
pub mod stream;
pub mod summary;
pub mod warehouse;

pub use baseline::{PureStreaming, Strawman, StreamingAlgo};
pub use bounds::{CombinedSummary, SourceView};
pub use budget::{plan_memory, MemoryPlan};
pub use config::{validate_epsilon, ConfigError, HsqConfig, HsqConfigBuilder};
pub use engine::{EngineSnapshot, HistStreamQuantiles};
pub use heavy::HeavyHitter;
// The storage error taxonomy, re-exported so downstream layers (the
// networked service's `NetRetryPolicy` mirrors `RetryPolicy`) classify
// failures with one vocabulary.
pub use hsq_sketch::SketchKind;
pub use hsq_storage::{
    corruption_in, is_transient, RetryDevice, RetryPolicy, StorageError, StorageErrorKind,
};
pub use query::{QueryContext, QueryOutcome, QueryScope, RankProbeSource};
pub use retention::{RetentionPolicy, RetentionReport};
pub use sharded::{ShardedEngine, ShardedSnapshot};
pub use stream::{StreamProcessor, StreamSummary};
pub use summary::{PartitionSummary, SummaryEntry};
pub use warehouse::{PinGuard, ScrubReport, StoredPartition, UpdateReport, Warehouse};
