//! Criterion benches for the warehouse update path (the per-step costs of
//! Figures 6 and 7): batch archival at different merge thresholds, the
//! multi-way merge kernel (against the heap merge it replaced and, for the
//! staging merge, against one whole-step sort), and external sort.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hsq_core::{HsqConfig, Warehouse};
use hsq_storage::{
    external_sort, merge_runs, merge_sources, sort_items, write_run, MemDevice, RunWriter,
    SortedRun,
};
use hsq_workload::Dataset;

fn batch_archival(c: &mut Criterion) {
    let mut group = c.benchmark_group("warehouse_add_batch");
    let step_items = 20_000usize;
    group.throughput(Throughput::Elements(step_items as u64));
    for kappa in [2usize, 10] {
        group.bench_with_input(
            BenchmarkId::new("steady_state", kappa),
            &kappa,
            |b, &kappa| {
                b.iter_batched(
                    || {
                        // 9 pre-loaded steps; the measured call is step 10.
                        let cfg = HsqConfig::builder()
                            .epsilon(0.01)
                            .merge_threshold(kappa)
                            .build();
                        let mut w = Warehouse::<u64, _>::new(MemDevice::new(4096), cfg);
                        let mut gen = Dataset::Normal.generator(5);
                        for _ in 0..9 {
                            w.add_batch(gen.take_vec(step_items)).unwrap();
                        }
                        (w, gen.take_vec(step_items))
                    },
                    |(mut w, batch)| {
                        black_box(w.add_batch(batch).unwrap());
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

/// The four value shapes the merge kernel's cost depends on: occupied key
/// width (how many radix passes a round needs), distinct-value count, and
/// whether the inputs interleave at all.
const MERGE_SHAPES: [&str; 4] = ["uniform30", "random64", "distinct1000", "disjoint"];

/// Sorted run `i` of `n` items in `shape`.
fn merge_input(shape: &str, i: usize, n: usize) -> Vec<u64> {
    // Seeds spaced by a constant other than the generator's own stride,
    // so no two runs replay one another's sequence.
    let mut x = 0xD1B5_4A32_D192_ED03u64.wrapping_mul(i as u64 + 1);
    let mut random = move || {
        // splitmix64
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut data: Vec<u64> = match shape {
        // The paper's Uniform dataset, [10^8, 10^9): 30 occupied bits.
        "uniform30" => Dataset::Uniform.generator(i as u64 + 1).take_vec(n),
        // Every bit varies: the radix worst case.
        "random64" => (0..n).map(|_| random()).collect(),
        "distinct1000" => (0..n).map(|_| random() % 1000).collect(),
        // Run i lies wholly below run i + 1: single-contributor rounds.
        "disjoint" => (0..n)
            .map(|_| ((i as u64) << 32) | (random() >> 32))
            .collect(),
        _ => unreachable!("unknown shape {shape}"),
    };
    data.sort_unstable();
    data
}

/// The per-item heap merges the block kernel is measured against, over
/// the same reader and writer the kernel uses: what shipped before it
/// (pop the smallest head, push its successor) and the best a binary heap
/// can do (`replace_top`: overwrite the top in place, one sift-down).
fn heap_merge_runs(dev: &MemDevice, runs: &[SortedRun<u64>], replace_top: bool) -> SortedRun<u64> {
    use std::cmp::Reverse;
    use std::collections::binary_heap::{BinaryHeap, PeekMut};
    let mut sources: Vec<_> = runs.iter().map(|r| r.iter(dev)).collect();
    let mut heap = BinaryHeap::with_capacity(sources.len());
    for (i, src) in sources.iter_mut().enumerate() {
        if let Some(v) = src.next() {
            heap.push(Reverse((v.unwrap(), i)));
        }
    }
    let mut writer = RunWriter::new(dev).unwrap();
    let mut block: Vec<u64> = Vec::with_capacity(512);
    let mut emit = |v: u64| {
        block.push(v);
        if block.len() == block.capacity() {
            writer.push_slice(&block).unwrap();
            block.clear();
        }
    };
    let mut next = |i: usize| sources[i].next().map(|v| Reverse((v.unwrap(), i)));
    if replace_top {
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((v, i)) = *top;
            emit(v);
            match next(i) {
                Some(head) => *top = head,
                None => drop(PeekMut::pop(top)),
            }
        }
    } else {
        while let Some(Reverse((v, i))) = heap.pop() {
            emit(v);
            heap.extend(next(i));
        }
    }
    writer.push_slice(&block).unwrap();
    writer.finish().unwrap()
}

/// Step-close merges: `merge_runs` (the block-at-a-time kernel) against
/// the heap references, fan-in x value shape, on 4096-byte blocks; and the
/// engine's staging merge (16 sorted in-memory segments of 4096) through
/// the kernel against one whole-step radix sort.
fn multiway_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiway_merge");
    let per_run = 65_536usize;
    for fan_in in [2usize, 11, 16] {
        group.throughput(Throughput::Elements((per_run * fan_in) as u64));
        for shape in MERGE_SHAPES {
            let dev = MemDevice::new(4096);
            let runs: Vec<_> = (0..fan_in)
                .map(|i| write_run(&*dev, &merge_input(shape, i, per_run)).unwrap())
                .collect();
            let id = format!("{shape}/{fan_in}");
            group.bench_function(BenchmarkId::new("kernel", &id), |b| {
                b.iter(|| {
                    let merged = merge_runs(&*dev, &runs).unwrap();
                    let len = merged.len();
                    merged.delete(&*dev).unwrap();
                    black_box(len)
                })
            });
            for (name, replace_top) in [("heap_pop_push", false), ("heap_replace_top", true)] {
                group.bench_function(BenchmarkId::new(name, &id), |b| {
                    b.iter(|| {
                        let merged = heap_merge_runs(&dev, &runs, replace_top);
                        let len = merged.len();
                        merged.delete(&*dev).unwrap();
                        black_box(len)
                    })
                });
            }
        }
    }

    let (segments, seg_items) = (16usize, 4096usize);
    group.throughput(Throughput::Elements((segments * seg_items) as u64));
    for shape in ["uniform30", "random64"] {
        // Every segment draws from the same range, so all sixteen interleave.
        let staging: Vec<u64> = (0..segments)
            .flat_map(|j| merge_input(shape, j, seg_items))
            .collect();
        group.bench_function(BenchmarkId::new("staging_kernel", shape), |b| {
            b.iter(|| {
                let mut sources: Vec<&[u64]> = staging.chunks(seg_items).collect();
                let mut out = Vec::with_capacity(staging.len());
                merge_sources(&mut sources, 512, |chunk| {
                    out.extend_from_slice(chunk);
                    Ok(())
                })
                .unwrap();
                black_box(out.len())
            })
        });
        group.bench_function(BenchmarkId::new("staging_whole_step_sort", shape), |b| {
            b.iter(|| {
                let mut out = staging.clone();
                sort_items(&mut out);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn external_sort_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("external_sort");
    let n = 100_000usize;
    group.throughput(Throughput::Elements(n as u64));
    for budget in [n + 1, n / 10] {
        let label = if budget > n { "in_memory" } else { "spill_10x" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &budget, |b, &budget| {
            let data = Dataset::Normal.generator(9).take_vec(n);
            let dev = MemDevice::new(4096);
            b.iter(|| {
                let (run, _) = external_sort(&*dev, data.iter().copied(), budget).unwrap();
                let len = run.len();
                run.delete(&*dev).unwrap();
                black_box(len)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = batch_archival, multiway_merge, external_sort_bench
}
criterion_main!(benches);
