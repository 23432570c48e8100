//! Criterion benches for query processing (the latency side of Figures 9
//! and 10): quick vs accurate responses, the effect of κ, and window
//! queries.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hsq_core::{HistStreamQuantiles, HsqConfig};
use hsq_storage::MemDevice;
use hsq_workload::{Dataset, TimeStepDriver};

fn build_engine(kappa: usize) -> HistStreamQuantiles<u64, MemDevice> {
    let cfg = HsqConfig::builder()
        .epsilon(0.01)
        .merge_threshold(kappa)
        .build();
    let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(4096), cfg);
    for batch in TimeStepDriver::new(Dataset::Normal, 3, 10_000, 30) {
        h.ingest_step(&batch).unwrap();
    }
    for v in TimeStepDriver::new(Dataset::Normal, 4, 10_000, 1)
        .next()
        .unwrap()
    {
        h.stream_update(v);
    }
    h
}

fn quick_vs_accurate(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_response");
    let h = build_engine(10);
    group.bench_function("quick_median", |b| {
        b.iter(|| black_box(h.quantile_quick(black_box(0.5))))
    });
    group.bench_function("accurate_median", |b| {
        b.iter(|| black_box(h.quantile(black_box(0.5)).unwrap()))
    });
    group.bench_function("accurate_p99", |b| {
        b.iter(|| black_box(h.quantile(black_box(0.99)).unwrap()))
    });
    group.finish();
}

fn kappa_effect(c: &mut Criterion) {
    let mut group = c.benchmark_group("accurate_query_vs_kappa");
    for kappa in [2usize, 10, 30] {
        let h = build_engine(kappa);
        group.bench_with_input(BenchmarkId::from_parameter(kappa), &kappa, |b, _| {
            b.iter(|| black_box(h.quantile(black_box(0.5)).unwrap()))
        });
    }
    group.finish();
}

fn window_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_query");
    let h = build_engine(10);
    let windows = h.available_windows();
    let smallest = *windows.first().unwrap();
    let largest = *windows.last().unwrap();
    group.bench_with_input(BenchmarkId::new("steps", smallest), &smallest, |b, &w| {
        b.iter(|| black_box(h.quantile_in_window(w, 0.5).unwrap()))
    });
    group.bench_with_input(BenchmarkId::new("steps", largest), &largest, |b, &w| {
        b.iter(|| black_box(h.quantile_in_window(w, 0.5).unwrap()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = quick_vs_accurate, kappa_effect, window_queries
}
criterion_main!(benches);
