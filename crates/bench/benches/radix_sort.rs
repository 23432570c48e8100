//! Radix vs comparison batch sort: the in-memory sort feeding every
//! batched-ingest path (engine segment staging, warehouse level-0
//! preparation, GK `insert_batch`), and the payload sort of the combined
//! summary's source-tagged entries (`event_sort`).
//!
//! Acceptance target: `batch_sort/radix/4096` sustains at least 2× the
//! throughput of `batch_sort/comparison/4096` on uniform `u64` batches
//! (the batch size `stream_extend` is driven with in the headline bench).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hsq_sketch::sort_radixable_by_key;
use hsq_storage::sort_items;
use hsq_workload::Dataset;

fn batch_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_sort");
    for n in [4096usize, 65_536] {
        let data: Vec<u64> = Dataset::Uniform.generator(42).take_vec(n);
        group.bench_with_input(BenchmarkId::new("comparison", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut data| {
                    data.sort_unstable();
                    black_box(data.len())
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("radix", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut data| {
                    sort_items(&mut data);
                    black_box(data.len())
                },
                BatchSize::LargeInput,
            )
        });
    }
    // Skewed keys: constant high digits let the kernel skip passes.
    let skewed: Vec<u64> = Dataset::Uniform
        .generator(7)
        .take_vec(4096)
        .into_iter()
        .map(|v| v % 100_000)
        .collect();
    group.bench_function("radix/4096_small_range", |b| {
        b.iter_batched(
            || skewed.clone(),
            |mut data| {
                sort_items(&mut data);
                black_box(data.len())
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The combined summary's build sort: `(value, source, 0)` entries at the
/// `sharded_weighted` size (≈ 12.9k entries from 60 sources), sorted by
/// value through the payload radix kernel and through
/// `sort_unstable_by_key`.
fn event_sort(c: &mut Criterion) {
    const EVENTS: usize = 12_900;
    let values: Vec<u64> = Dataset::Uniform.generator(11).take_vec(EVENTS);
    let events: Vec<(u64, u64, u64)> = (0..).zip(values).map(|(i, v)| (v, i % 60, 0)).collect();
    let mut group = c.benchmark_group("event_sort");
    group.bench_function("comparison/12900", |b| {
        b.iter_batched(
            || events.clone(),
            |mut events| {
                events.sort_unstable_by_key(|e| e.0);
                black_box(events.len())
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("radix/12900", |b| {
        b.iter_batched(
            || events.clone(),
            |mut events| {
                assert!(sort_radixable_by_key(&mut events, |e| e.0));
                black_box(events.len())
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = batch_sort, event_sort
}
criterion_main!(benches);
