//! A small decoded-block cache for query processing.
//!
//! The paper's query optimization (§2.4 "Optimization") stops issuing disk
//! reads once a search range falls inside a single disk block: "we do not
//! use any further disk operations, and store the block in memory for
//! further iterations". [`BlockCache`] is that in-memory store: a bounded
//! FIFO cache of decoded blocks, keyed by `(file, block)`. Hits cost no
//! device I/O and are therefore invisible to [`crate::IoStats`] — exactly
//! the accounting the paper's disk-access counts use.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::device::{BlockDevice, FileId};
use crate::encode::Item;
use crate::run::SortedRun;

/// Bounded cache of decoded blocks.
pub struct BlockCache<T: Item> {
    capacity: usize,
    map: HashMap<(FileId, u64), Arc<Vec<T>>>,
    order: VecDeque<(FileId, u64)>,
    /// The block most recently served by [`BlockCache::get_block`]:
    /// repeated probes that land in the same block answer from this memo
    /// without even a map lookup (see [`SortedRun::rank_of_cached`]).
    #[allow(clippy::type_complexity)]
    last: Option<((FileId, u64), Arc<Vec<T>>)>,
    hits: u64,
    misses: u64,
}

impl<T: Item> BlockCache<T> {
    /// Cache holding at most `capacity` blocks (must be > 0).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        BlockCache {
            capacity,
            map: HashMap::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
            last: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Fetch block `block_idx` of `run`, reading through `dev` on a miss.
    pub fn get_block<D: BlockDevice>(
        &mut self,
        dev: &D,
        run: &SortedRun<T>,
        block_idx: u64,
    ) -> std::io::Result<Arc<Vec<T>>> {
        let key = (run.file(), block_idx);
        if let Some(items) = self.map.get(&key) {
            self.hits += 1;
            self.last = Some((key, Arc::clone(items)));
            return Ok(Arc::clone(items));
        }
        self.misses += 1;
        let items = Arc::new(run.read_block_items(dev, block_idx)?);
        if self.map.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
        self.map.insert(key, Arc::clone(&items));
        self.order.push_back(key);
        self.last = Some((key, Arc::clone(&items)));
        Ok(items)
    }

    /// The block most recently served by [`BlockCache::get_block`], if
    /// any: `(file, block_idx, decoded items)`. The memo outlives FIFO
    /// eviction (it holds its own reference), so callers may answer from
    /// it without consulting the cache proper.
    pub fn last_block(&self) -> Option<(FileId, u64, &Arc<Vec<T>>)> {
        self.last.as_ref().map(|((f, b), items)| (*f, *b, items))
    }

    /// Whether the cache currently holds the given block.
    pub fn contains(&self, file: FileId, block_idx: u64) -> bool {
        self.map.contains_key(&(file, block_idx))
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drop all cached blocks (and the last-probe memo).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.last = None;
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;
    use crate::run::write_run;

    #[test]
    fn hit_avoids_device_read() {
        let dev = MemDevice::new(64);
        let run = write_run(&*dev, &(0..32u64).collect::<Vec<_>>()).unwrap();
        let mut cache = BlockCache::new(4);
        let before = dev.stats().snapshot();
        let b0 = cache.get_block(&*dev, &run, 0).unwrap();
        let b0_again = cache.get_block(&*dev, &run, 0).unwrap();
        let d = dev.stats().snapshot() - before;
        assert_eq!(d.total_reads(), 1, "second fetch must be a cache hit");
        assert_eq!(b0, b0_again);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn fifo_eviction() {
        let dev = MemDevice::new(64); // 8 u64/block
        let run = write_run(&*dev, &(0..64u64).collect::<Vec<_>>()).unwrap(); // 8 blocks
        let mut cache = BlockCache::new(2);
        cache.get_block(&*dev, &run, 0).unwrap();
        cache.get_block(&*dev, &run, 1).unwrap();
        cache.get_block(&*dev, &run, 2).unwrap(); // evicts block 0
        assert!(!cache.contains(run.file(), 0));
        assert!(cache.contains(run.file(), 1));
        assert!(cache.contains(run.file(), 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn decoded_content_is_correct() {
        let dev = MemDevice::new(64);
        let data: Vec<u64> = (100..150).collect();
        let run = write_run(&*dev, &data).unwrap();
        let mut cache = BlockCache::new(8);
        let block1 = cache.get_block(&*dev, &run, 1).unwrap();
        assert_eq!(&**block1, &(107..114).collect::<Vec<u64>>());
    }
}
