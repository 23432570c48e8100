//! Bounded-thread fan-out helpers: parallel partition probing (paper §4,
//! future work: "different disk partitions can be processed in parallel")
//! and the generic [`par_map_mut`] pool the sharded engine uses for
//! per-shard ingestion and cross-shard query fan-in.
//!
//! [`par_partition_ranks`] computes the per-partition exact ranks of a
//! probe value concurrently, each partition with its own decoded-block
//! cache — the parallel arm of [`crate::query::PartitionProbes`]. Enabled
//! via [`crate::HsqConfig`]'s `parallel_query` flag or
//! [`crate::query::QueryContext::with_parallel`]. I/O *counts* are
//! unchanged — only wall-clock latency overlaps.
//!
//! All helpers bound their thread count by [`worker_count`]:
//! `available_parallelism()` unless the `HSQ_WORKERS` environment
//! variable overrides it (raise it to overlap blocking device I/O across
//! shards even on few cores).

use std::io;

use hsq_storage::{BlockCache, BlockDevice, Item};

use crate::query::partition_rank;
use crate::warehouse::StoredPartition;

/// Worker-thread bound shared by every fan-out helper in this module:
/// `available_parallelism()`, clamped to `[1, tasks]`, overridable with
/// the `HSQ_WORKERS` environment variable (useful to overlap blocking
/// device I/O across shards even on few cores).
///
/// An unset variable falls back to `available_parallelism()`; a set but
/// invalid one (non-numeric, or `0`) panics. Silently ignoring a typo'd
/// override would run a benchmark at the wrong width and corrupt its
/// numbers without any signal.
pub fn worker_count(tasks: usize) -> usize {
    let default = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let workers = std::env::var("HSQ_WORKERS")
        .ok()
        .map(|s| parse_workers(&s))
        .unwrap_or(default);
    workers.clamp(1, tasks.max(1))
}

/// Parse an `HSQ_WORKERS` override; panics loudly on anything that is not
/// a positive integer.
fn parse_workers(s: &str) -> usize {
    match s.trim().parse::<usize>() {
        Ok(w) if w > 0 => w,
        _ => panic!("invalid HSQ_WORKERS {s:?} (want a positive integer)"),
    }
}

/// Apply `f` to every item of `items` (with its index), running up to
/// [`worker_count`] scoped threads over contiguous chunks; results are
/// returned in input order. Runs inline when one worker suffices.
///
/// The shard fan-out primitive: [`crate::sharded::ShardedEngine`] uses it
/// to ingest per-shard batches and to probe shard snapshots concurrently.
pub fn par_map_mut<I, R, F>(items: &mut [I], f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, &mut I) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 || n <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let chunk = n.div_ceil(workers);
    let results: Vec<Vec<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, chunk_items)| {
                let f = &f;
                s.spawn(move || {
                    chunk_items
                        .iter_mut()
                        .enumerate()
                        .map(|(j, item)| f(ci * chunk + j, item))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map_mut worker panicked"))
            .collect()
    });
    results.into_iter().flatten().collect()
}

/// Compute `rank(z, P)` for every partition concurrently.
///
/// Equivalent to [`crate::query::PartitionProbes`]' serial arm,
/// including cache reuse across bisection iterations (each partition
/// owns its cache).
///
/// Work is chunked over at most `available_parallelism()` scoped threads
/// (not one thread per partition): with `κ·log_κ T` partitions a query
/// would otherwise spawn far more threads than cores at every bisection
/// step, and the spawn overhead swamps the overlapped I/O it buys.
pub fn par_partition_ranks<T: Item, D: BlockDevice>(
    dev: &D,
    partitions: &[&StoredPartition<T>],
    z: T,
    windows: &[(u64, u64)],
    caches: &mut [BlockCache<T>],
) -> io::Result<Vec<u64>> {
    assert_eq!(partitions.len(), windows.len());
    assert_eq!(partitions.len(), caches.len());
    let n = partitions.len();
    let workers = worker_count(n);
    if workers <= 1 || n <= 1 {
        let mut per = Vec::with_capacity(n);
        for ((&p, &w), cache) in partitions.iter().zip(windows).zip(caches.iter_mut()) {
            per.push(partition_rank(dev, p, z, w, cache)?);
        }
        return Ok(per);
    }
    let chunk = n.div_ceil(workers);
    let results: Vec<io::Result<Vec<u64>>> = std::thread::scope(|s| {
        let handles: Vec<_> = partitions
            .chunks(chunk)
            .zip(windows.chunks(chunk))
            .zip(caches.chunks_mut(chunk))
            .map(|((ps, ws), cs)| {
                s.spawn(move || -> io::Result<Vec<u64>> {
                    ps.iter()
                        .zip(ws)
                        .zip(cs.iter_mut())
                        .map(|((&p, &w), cache)| partition_rank(dev, p, z, w, cache))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partition rank thread panicked"))
            .collect()
    });
    let mut per = Vec::with_capacity(n);
    for r in results {
        per.extend(r?);
    }
    Ok(per)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HsqConfig;
    use crate::query::{ProbeState, QueryContext, RankProbeSource};
    use crate::stream::StreamProcessor;
    use crate::warehouse::Warehouse;
    use hsq_storage::MemDevice;

    #[test]
    fn parallel_matches_serial() {
        let mut cfg = HsqConfig::with_epsilon(0.05);
        cfg.kappa = 3;
        let mut w = Warehouse::new(MemDevice::new(256), cfg.clone());
        let mut x = 99u64;
        let mut gen = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x >> 33
        };
        for _ in 0..9 {
            let batch: Vec<u64> = (0..300).map(|_| gen()).collect();
            w.add_batch(batch).unwrap();
        }
        let mut sp = StreamProcessor::new(cfg.epsilon2, cfg.beta2);
        for _ in 0..200 {
            sp.update(gen());
        }
        let ss = sp.summary();

        let ctx = |parallel| {
            QueryContext::new(
                &**w.device(),
                w.partitions_newest_first(),
                &ss,
                cfg.epsilon(),
                cfg.cache_blocks,
            )
            .with_parallel(parallel)
        };
        let (serial, parallel) = (ctx(false), ctx(true));
        // One long-lived source per arm: probed ranks and caches carry
        // over between queries identically on both.
        let (mut s_state, mut p_state) = (ProbeState::default(), ProbeState::default());
        let mut s_fan = serial.fan_in(&mut s_state);
        let mut p_fan = parallel.fan_in(&mut p_state);
        for r in [1u64, 700, 1450, 2900] {
            let s = s_fan.rank_query(serial.scope(), r).unwrap().unwrap();
            let p = p_fan.rank_query(parallel.scope(), r).unwrap().unwrap();
            let key = |o: crate::QueryOutcome<u64>| {
                (
                    o.value,
                    o.estimated_rank,
                    o.bisection_steps,
                    o.io.total_reads(),
                )
            };
            assert_eq!(key(s), key(p), "r = {r}: same answer, same read count");
            assert_eq!(s_fan.probe(s.value).unwrap(), p_fan.probe(s.value).unwrap());
        }
    }

    #[test]
    fn par_map_mut_preserves_order() {
        let mut items: Vec<u64> = (0..37).collect();
        let out = par_map_mut(&mut items, |i, v| {
            *v += 1;
            (i as u64, *v)
        });
        for (i, &(idx, v)) in out.iter().enumerate() {
            assert_eq!(idx, i as u64);
            assert_eq!(v, i as u64 + 1);
        }
        assert_eq!(items, (1..38).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_count_bounds() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(64) >= 1);
    }

    #[test]
    fn worker_override_parses_positive() {
        assert_eq!(parse_workers("1"), 1);
        assert_eq!(parse_workers(" 8 "), 8);
    }

    #[test]
    #[should_panic(expected = "HSQ_WORKERS")]
    fn worker_override_zero_panics() {
        let _ = parse_workers("0");
    }

    #[test]
    #[should_panic(expected = "HSQ_WORKERS")]
    fn worker_override_garbage_panics() {
        let _ = parse_workers("eight");
    }

    #[test]
    fn par_ranks_direct() {
        let dev = MemDevice::new(64);
        let mut parts = Vec::new();
        for s in 0..4u64 {
            let data: Vec<u64> = (0..100).map(|i| i * 4 + s).collect();
            let run = hsq_storage::write_run(&*dev, &data).unwrap();
            let summary = crate::summary::summarize_sorted(&data, 0.1, 11, 64);
            parts.push(StoredPartition {
                run,
                summary,
                first_step: s + 1,
                last_step: s + 1,
            });
        }
        let part_refs: Vec<&StoredPartition<u64>> = parts.iter().collect();
        let windows: Vec<(u64, u64)> = parts.iter().map(|p| (0, p.run.len())).collect();
        let mut caches: Vec<BlockCache<u64>> = parts.iter().map(|_| BlockCache::new(4)).collect();
        let ranks = par_partition_ranks(&*dev, &part_refs, 200, &windows, &mut caches).unwrap();
        for (s, &rank) in ranks.iter().enumerate() {
            let expect = (0..100).filter(|i| i * 4 + s as u64 <= 200).count() as u64;
            assert_eq!(rank, expect, "partition {s}");
        }
    }
}
