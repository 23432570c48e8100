//! # hsq-sketch — streaming quantile sketches
//!
//! The in-memory summary substrates used by the `hsq` reproduction of
//! *"Estimating quantiles from the union of historical and streaming
//! data"* (VLDB 2016):
//!
//! * [`GkSketch`] — Greenwald–Khanna (paper ref \[15\]); powers the stream
//!   summary `SS` (§2.2) and the strongest pure-streaming baseline;
//! * [`KllSketch`] — KLL compactor ladder (Karnin–Lang–Liberty, FOCS
//!   2016; lazy schedule per Ivkin et al.): O(1) amortized updates,
//!   O(log w) weighted inserts and one deterministic compaction schedule
//!   (alternating per-level parity), selectable as the stream backend.
//!   It costs far more memory than GK: 45,068 words against GK's
//!   1.9–2.0k for a 65,536-item step;
//! * [`AnySketch`] / [`SketchKind`] — the one sketch surface the engine's
//!   stream processor holds, dispatching to the configured backend;
//! * [`QDigest`] — Shrivastava et al. (paper ref \[24\]); the second
//!   pure-streaming baseline;
//! * [`ReservoirQuantiles`] — the RANDOM baseline of Wang et al. (paper
//!   ref \[26\]); extension baseline;
//! * [`ExactQuantiles`] — O(n)-memory ground-truth oracle used to measure
//!   relative error exactly as the paper's §3.1 defines it;
//! * [`radix`] — the LSD radix-sort kernel and [`RadixKey`] trait shared
//!   by the batched sketch and warehouse ingest paths.
//!
//! All sketches expose `memory_words()` so experiment harnesses can drive
//! them by memory budget, matching the paper's memory-versus-accuracy
//! methodology.

#![warn(missing_docs)]

pub mod exact;
pub mod gk;
pub mod kll;
pub mod qdigest;
pub mod quantile;
pub mod radix;
pub mod sampler;

pub use exact::ExactQuantiles;
pub use gk::{GkSketch, RankEstimate};
pub use kll::{KllCumulative, KllSketch};
pub use qdigest::QDigest;
pub use quantile::{AnySketch, SketchKind};
pub use radix::{radix_sort_u64, sort_radixable, RadixKey, RADIX_MIN_LEN};
pub use sampler::ReservoirQuantiles;
