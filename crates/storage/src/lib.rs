//! # hsq-storage — block-device substrate with exact I/O accounting
//!
//! The disk model underneath the `hsq` warehouse, reproducing the storage
//! assumptions of *"Estimating quantiles from the union of historical and
//! streaming data"* (VLDB 2016): a disk of fixed-size blocks (§3.1 uses
//! `B = 100 KB`), algorithms measured in block accesses, sequential I/O for
//! batch loads and merges, random I/O for query-time probes.
//!
//! Layers, bottom-up:
//!
//! * [`Item`] — fixed-width order-preserving encoding of values ([`encode`]);
//! * [`BlockDevice`] — block files + [`IoStats`] accounting, with in-memory
//!   ([`MemDevice`]) and on-filesystem ([`FileDevice`]) backends ([`device`]);
//! * [`SortedRun`] — the immutable sorted partition file format ([`run`]);
//! * [`merge_runs`] / [`external_sort`] — the sequential-I/O bulk operations
//!   the warehouse update path is built from ([`sort`], and [`merge`]: one
//!   block-at-a-time k-way kernel, [`merge_sources`], over device runs and
//!   in-memory segments alike);
//! * [`BlockCache`] — decoded-block cache implementing the paper's
//!   single-block query optimization ([`cache`]);
//! * [`FaultDevice`] — deterministic fault injection (fail-op, torn
//!   final block, crash-stop, bit rot, flaky reads) for durability and
//!   robustness testing ([`fault`]);
//! * [`StorageError`] / [`RetryPolicy`] — typed error taxonomy (transient
//!   vs. corruption vs. fatal) and capped-backoff retry ([`error`]), with
//!   [`crc64`] block/record checksums ([`crc`]).

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod crc;
pub mod device;
pub mod encode;
pub mod error;
pub mod fault;
pub mod merge;
pub mod run;
pub mod sort;
pub mod stats;

pub use cache::BlockCache;
pub use crc::crc64;
pub use device::{BlockDevice, FileDevice, FileId, MemDevice};
pub use encode::{Item, RadixKey, F64};
pub use error::{
    corruption_in, is_transient, RetryDevice, RetryPolicy, StorageError, StorageErrorKind,
};
pub use fault::{Fault, FaultDevice};
pub use merge::{merge_into, merge_runs, merge_sources, MergeSource};
pub use run::{
    items_per_block, write_run, RankWindow, RunReader, RunWriter, SortedRun,
    DEFAULT_READAHEAD_BLOCKS,
};
pub use sort::{external_sort, sort_items, SortOutcome};
pub use stats::{IoSnapshot, IoStats};
