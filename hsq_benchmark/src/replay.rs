//! Layer replays (the † metrics): each re-runs one layer's public function
//! alone, on one step of the workload's own input, so the layer's cost is
//! known apart from the path it sits in. Traced runs only.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use hsq::core::{HsqConfig, StreamProcessor};
use hsq::service::proto::{Request, Response};
use hsq::SketchKind;

use crate::stats::median;
use crate::workloads::CHUNK;

/// Median nanoseconds of `f` over a few calls.
fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let runs: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&runs)
}

/// Feed the step into a fresh stream processor chunk by chunk; returns it
/// with the nanoseconds the sorted inserts took.
fn insert_step(
    kind: SketchKind,
    cfg: &HsqConfig,
    sorted_chunks: &[Vec<(u64, u64)>],
    weighted: bool,
) -> (StreamProcessor<u64>, f64) {
    let mut sp = StreamProcessor::<u64>::with_kind(kind, cfg.epsilon2, cfg.beta2);
    let mut ns = 0u128;
    for chunk in sorted_chunks {
        if weighted {
            let t = Instant::now();
            sp.ingest_weighted_sorted_batch(chunk);
            ns += t.elapsed().as_nanos();
        } else {
            let values: Vec<u64> = chunk.iter().map(|&(v, _)| v).collect();
            let t = Instant::now();
            sp.ingest_sorted_batch(&values);
            ns += t.elapsed().as_nanos();
        }
    }
    (sp, ns as f64)
}

/// [`insert_step`] a few times over: the sketch and its median
/// nanoseconds per item.
fn insert_replay(
    kind: SketchKind,
    cfg: &HsqConfig,
    sorted_chunks: &[Vec<(u64, u64)>],
    weighted: bool,
) -> (StreamProcessor<u64>, f64) {
    let items: usize = sorted_chunks.iter().map(Vec::len).sum();
    let mut runs: Vec<_> = (0..5)
        .map(|_| insert_step(kind, cfg, sorted_chunks, weighted))
        .collect();
    let ns = median(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
    (runs.swap_remove(0).0, ns / items.max(1) as f64)
}

/// Replay sort, both sketches, the summary extract and the wire codec on
/// `step` (one time step's `(value, weight)` pairs as the workload fed
/// them). `kind` is the sketch the workload's engine runs.
pub fn replay_layers(
    step: &[(u64, u64)],
    weighted: bool,
    kind: SketchKind,
    cfg: &HsqConfig,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let sort_ns = time_ns(|| {
        let mut ns = 0u128;
        for chunk in step.chunks(CHUNK) {
            let mut values: Vec<u64> = chunk.iter().map(|&(v, _)| v).collect();
            let t = Instant::now();
            hsq::storage::sort_items(&mut values);
            ns += t.elapsed().as_nanos();
            black_box(&values);
        }
        ns as f64
    });
    layers.insert(
        "sketch.radix.sort_ns_per_item",
        sort_ns / step.len().max(1) as f64,
    );
    let sorted_chunks: Vec<Vec<(u64, u64)>> = step
        .chunks(CHUNK)
        .map(|chunk| {
            let mut pairs = chunk.to_vec();
            pairs.sort_unstable_by_key(|p| p.0);
            pairs
        })
        .collect();

    let (gk, gk_ns) = insert_replay(SketchKind::Gk, cfg, &sorted_chunks, weighted);
    layers.insert("sketch.gk.insert_sorted_ns_per_item", gk_ns);
    layers.insert("sketch.gk.memory_words", gk.memory_words() as f64);
    let (kll, kll_ns) = insert_replay(SketchKind::Kll, cfg, &sorted_chunks, weighted);
    layers.insert("sketch.kll.insert_sorted_ns_per_item", kll_ns);
    layers.insert("sketch.kll.memory_words", kll.memory_words() as f64);

    let live = if kind == SketchKind::Kll { &kll } else { &gk };
    layers.insert(
        "stream.summary_extract_us",
        time_ns(|| live.summary()) / 1e3,
    );

    let request = Request::Ingest {
        items: step[..step.len().min(CHUNK)].to_vec(),
    };
    let request_frame = request.encode();
    let response = Response::<u64>::Bounds {
        bounds: vec![(step.len() as u64 / 2, step.len() as u64)],
    };
    let response_frame = response.encode();
    layers.insert("proto.request_encode_ns", time_ns(|| request.encode()));
    layers.insert(
        "proto.request_decode_ns",
        time_ns(|| Request::<u64>::decode(&request_frame)),
    );
    layers.insert("proto.response_encode_ns", time_ns(|| response.encode()));
    layers.insert(
        "proto.response_decode_ns",
        time_ns(|| Response::<u64>::decode(&response_frame)),
    );
    layers.insert("proto.ingest_frame_bytes", request_frame.len() as f64);
}
