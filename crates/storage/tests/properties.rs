//! Property-based tests for the storage substrate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hsq_storage::{
    external_sort, items_per_block, merge_into, write_run, BlockDevice, FileId, Item, MemDevice,
    RunWriter, F64,
};
use proptest::prelude::*;

/// The per-item heap merge the block kernel replaced, kept as its oracle:
/// pop the smallest head, push that run's next item (ties by run index).
fn heap_merge(runs: &[Vec<i64>]) -> Vec<i64> {
    let mut cursors = vec![0usize; runs.len()];
    let mut heap: BinaryHeap<Reverse<(i64, usize)>> = runs
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.first().map(|&v| Reverse((v, i))))
        .collect();
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    while let Some(Reverse((v, i))) = heap.pop() {
        out.push(v);
        cursors[i] += 1;
        if let Some(&next) = runs[i].get(cursors[i]) {
            heap.push(Reverse((next, i)));
        }
    }
    out
}

/// Every stored byte of `file`, block by block.
fn raw_blocks(dev: &MemDevice, file: FileId) -> Vec<Vec<u8>> {
    (0..dev.num_blocks(file).unwrap())
        .map(|b| {
            let mut buf = vec![0u8; dev.block_size()];
            let n = dev.read_block(file, b, &mut buf).unwrap();
            buf.truncate(n);
            buf
        })
        .collect()
}

proptest! {
    /// External sort equals std sort for any input and any (tiny) budget.
    #[test]
    fn external_sort_matches_std_sort(
        mut data in proptest::collection::vec(any::<u64>(), 0..2000),
        budget in 2usize..128,
        block in 16usize..512,
    ) {
        let dev = MemDevice::new(block.max(8));
        let (run, _) = external_sort(&*dev, data.clone(), budget).unwrap();
        data.sort_unstable();
        prop_assert_eq!(run.read_all(&*dev).unwrap(), data);
    }

    /// Multi-way merge of arbitrary sorted runs is the sorted multiset
    /// union — byte for byte what the heap merge it replaced produced —
    /// for one sequential read per input block and one write per output
    /// block, in rounds of at most one block per input.
    #[test]
    fn merge_is_multiset_union(
        mut runs_data in proptest::collection::vec(
            proptest::collection::vec(any::<i64>(), 0..3000), 0..18),
        shape in 0usize..3,
        block in 0usize..3,
    ) {
        // 64: 7 items a block, so long runs span many 8-block readahead
        // windows; 100: padded geometry; 4096: most runs fit one window.
        let dev = MemDevice::new([64, 100, 4096][block]);
        let per = items_per_block::<i64>(dev.block_size());
        for (i, run) in runs_data.iter_mut().enumerate() {
            for v in run.iter_mut() {
                *v = match shape {
                    0 => *v,                                    // random
                    1 => *v & 7,                                // <= 8 distinct values
                    _ => ((i as i64) << 40) | (*v & 0xFF_FFFF), // value-disjoint runs
                };
            }
            run.sort_unstable();
        }
        let runs: Vec<_> = runs_data.iter().map(|d| write_run(&*dev, d).unwrap()).collect();
        let expected = write_run(&*dev, &heap_merge(&runs_data)).unwrap();

        let before = dev.stats().snapshot();
        let mut writer = RunWriter::new(&*dev).unwrap();
        merge_into(&*dev, &runs, |chunk| {
            assert!(chunk.len() <= runs.len() * per, "more than a block per input");
            writer.push_slice(chunk)
        })
        .unwrap();
        let merged = writer.finish().unwrap();
        let io = dev.stats().snapshot() - before;

        prop_assert_eq!(merged.len(), expected.len());
        prop_assert_eq!(raw_blocks(&dev, merged.file()), raw_blocks(&dev, expected.file()));
        let blocks = |len: u64| len.div_ceil(per as u64);
        prop_assert_eq!(io.total_reads(), runs.iter().map(|r| blocks(r.len())).sum::<u64>());
        prop_assert_eq!(io.rand_reads, 0);
        prop_assert_eq!(io.writes, blocks(merged.len()));
    }

    /// rank_of on a run equals the number of items <= probe.
    #[test]
    fn rank_of_is_exact(
        mut data in proptest::collection::vec(any::<u64>(), 0..500),
        probes in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        let dev = MemDevice::new(64);
        data.sort_unstable();
        let run = write_run(&*dev, &data).unwrap();
        for probe in probes {
            let expect = data.iter().filter(|&&x| x <= probe).count() as u64;
            prop_assert_eq!(run.rank_of(&*dev, probe).unwrap(), expect);
        }
    }

    /// get(i) returns the i-th smallest item for every index.
    #[test]
    fn get_is_positional(
        mut data in proptest::collection::vec(any::<i64>(), 1..300),
        block in 16usize..200,
    ) {
        let dev = MemDevice::new(block.max(8));
        data.sort_unstable();
        let run = write_run(&*dev, &data).unwrap();
        for (i, &v) in data.iter().enumerate() {
            prop_assert_eq!(run.get(&*dev, i as u64).unwrap(), v);
        }
    }

    /// Encoding preserves order for f64 (excluding NaN).
    #[test]
    fn f64_encoding_order(a in any::<f64>(), b in any::<f64>()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        let (fa, fb) = (F64::new(a), F64::new(b));
        let mut ba = [0u8; 8];
        let mut bb = [0u8; 8];
        fa.encode(&mut ba);
        fb.encode(&mut bb);
        if a < b {
            prop_assert!(ba < bb);
        } else if a > b {
            prop_assert!(ba > bb);
        }
        prop_assert_eq!(F64::decode(&ba).get().to_bits(), a.to_bits());
    }

    /// Integer midpoints stay in range and make progress.
    #[test]
    fn midpoint_contract_i64(a in any::<i64>(), b in any::<i64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let m = <i64 as Item>::midpoint(lo, hi);
        prop_assert!(lo <= m && m <= hi);
        // Strict progress whenever the gap exceeds 1 (bisection terminates).
        if (hi as i128) - (lo as i128) > 1 {
            prop_assert!(m > lo && m < hi);
        }
    }
}
