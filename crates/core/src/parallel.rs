//! Bounded-thread fan-out: the generic [`par_map_mut`] pool the sharded
//! engine uses for per-shard ingestion and step close.
//!
//! The pool bounds its thread count by [`worker_count`].

/// Worker-thread bound of [`par_map_mut`]: `available_parallelism()`,
/// clamped to `[1, tasks]`.
pub fn worker_count(tasks: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .clamp(1, tasks.max(1))
}

/// Apply `f` to every item of `items` (with its index), running up to
/// [`worker_count`] scoped threads over contiguous chunks; results are
/// returned in input order. Runs inline when one worker suffices.
///
/// The shard fan-out primitive: [`crate::sharded::ShardedEngine`] uses it
/// to ingest per-shard batches and to close a step on every shard.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
