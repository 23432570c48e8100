//! Warehouse persistence: serialize `HD`'s metadata and `HS`'s summaries
//! so a warehouse can be reopened after a restart.
//!
//! **Extension beyond the paper**, which describes an in-process system;
//! any data-stream warehouse deployment (TidalRace-style, §1) needs the
//! index to survive restarts. The manifest records, per partition: level,
//! backing file, length, extrema, time-step interval, and the full
//! summary entries — so recovery costs `O(manifest size)` sequential
//! block reads and **zero** partition scans.
//!
//! Every manifest is a **log** (magic `HSQL`): a header block, then
//! block-aligned records, each framed by its length and sealed by a CRC64:
//!
//! ```text
//! block 0:   magic "HSQL"  version  item_width            (zero-padded)
//! block 1..: body_len  kind  payload  crc64(kind payload)  (zero-padded)
//!
//! Base        steps  total_len  quarantine  num_partitions  partition*
//!             [stream]
//! Delta       steps  total_len  num_removed  file*  num_added  partition*
//! Quarantine  quarantine
//!
//! quarantine: lost_items  num_files  file*
//! partition:  format  level  file  run_len  first_step  last_step  min  max
//!             num_entries  (value rank block)*
//! stream:     kind  epsilon  n  [min max]  sketch payload (GK tuples |
//!             KLL levels + three reserved words, must be 0)
//!             num_staged  item*  num_segments  segment_end*
//! ```
//!
//! A `Base` is a full state dump; replay applies records in order and
//! stops cleanly at the first one failing its frame or CRC — the torn
//! tail a crash mid-append leaves. [`persist`], [`persist_snapshot`] and
//! [`crate::engine::HistStreamQuantiles::persist`] each write a log of one
//! `Base`. [`ManifestLog`] starts with one too, then appends a `Delta` per
//! step (partitions added, files retired — by cascade merges *or*
//! retention expiry) and a `Quarantine` record (full state, replayed by
//! replacement) whenever the quarantine moved. Because every step
//! appends a bounded delta while retention retires old partitions, the
//! log grows without bound unless compacted: [`ManifestLog::compact`]
//! writes a fresh `Base` of only the *live* partitions into a **new**
//! file and hands the old log back to the caller for deletion. The
//! two-file handoff is crash-safe: until the caller durably records the
//! new log's id and deletes the old one, both files recover to identical
//! states.
//!
//! The optional **stream** tail of a `Base` is the engine's live state:
//! the sketch (kind-tagged — GK tuples or KLL compactor levels, per
//! [`hsq_sketch::SketchKind`]) plus the staging buffer with its
//! sorted-segment boundaries. Only the engine-level persist writes it, so
//! recovery resumes *mid-step* with identical query answers — whichever
//! sketch backend wrote the state, under whichever backend recovers it. A
//! `Base` whose payload ends after its partitions recovers with an empty
//! stream — the paper's §1.1 model, where un-archived data is the
//! volatile stream and recovery is at time-step granularity. A mid-step
//! state cannot take step deltas, so no record may follow a
//! stream-carrying `Base`.
//!
//! Every record follows **write-ahead discipline**: each run it names is
//! made durable ([`hsq_storage::BlockDevice::sync`] — an fsync barrier on
//! [`hsq_storage::FileDevice`]) before the record lands, and the log file
//! is synced after it. [`ManifestLog`] also pins, through the
//! warehouse's pin registry, every partition file its last durable record
//! references, so deletions a step defers (cascade merges, retention
//! expiry) only execute *after* the record superseding them is appended
//! **and synced**. A crash at any point — process death or power loss —
//! therefore leaves a log whose referenced files all exist: recovery
//! never dangles. A failed `append` or `compact` leaves the handle as it
//! was, so the next record overwrites whatever the failed one wrote.
//! Orderly shutdown protocol: append (or compact) at the final step
//! boundary, then drop the log; dropping releases the pins, deleting only
//! files already superseded by the last record.
//!
//! Format version 4 is the only version read: older or newer files, and
//! any other magic, are rejected with `InvalidData`.

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::Arc;

use hsq_sketch::{AnySketch, GkSketch, KllSketch, SketchKind};
use hsq_storage::{crc, BlockDevice, FileId, Item, SortedRun};

use crate::config::HsqConfig;
use crate::stream::StreamProcessor;
use crate::summary::{PartitionSummary, SummaryEntry};
use crate::warehouse::{StoredPartition, Warehouse};

const LOG_MAGIC: &[u8; 4] = b"HSQL";
/// The format version, written and required on read.
const VERSION: u64 = 4;

/// The per-partition run-layout byte: every run is checksummed (a CRC64
/// trailer per block, see [`hsq_storage::run`]).
const RUN_CHECKSUMMED: u64 = 1;

/// Stream-sketch kind tags of the stream section.
const SKETCH_GK: u64 = 0;
const SKETCH_KLL: u64 = 1;

/// Record kinds of the [`ManifestLog`].
const REC_BASE: u64 = 0;
const REC_DELTA: u64 = 1;
/// Full quarantine state (lost item count + every quarantined file),
/// replayed by replacement. Appended whenever the state changed since
/// the last record.
const REC_QUARANTINE: u64 = 2;

/// Recovered quarantine state: `(lost_items, quarantined files)`.
type QuarantineParts = (u64, Vec<FileId>);

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(4096),
        }
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn item<T: Item>(&mut self, v: T) {
        let start = self.buf.len();
        self.buf.resize(start + T::ENCODED_LEN, 0);
        v.encode(&mut self.buf[start..]);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> io::Result<u64> {
        let end = self.pos + 8;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| corrupt("truncated manifest"))?;
        self.pos = end;
        Ok(u64::from_le_bytes(slice.try_into().unwrap()))
    }

    fn item<T: Item>(&mut self) -> io::Result<T> {
        let end = self.pos + T::ENCODED_LEN;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| corrupt("truncated manifest"))?;
        self.pos = end;
        Ok(T::decode(slice))
    }
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("manifest: {msg}"))
}

/// Serialize the warehouse's metadata into a new log on its device;
/// returns the log's [`FileId`] (persist it out of band, e.g. in a
/// config file — it is the only thing recovery needs besides the device).
pub fn persist<T: Item, D: BlockDevice>(w: &Warehouse<T, D>) -> io::Result<FileId> {
    write_log(&**w.device(), &BaseState::of(w), &HashSet::new(), &mut 0).map(|(f, _)| f)
}

/// Serialize an [`crate::engine::EngineSnapshot`]'s pinned partition list
/// (one shard of a [`crate::ShardedSnapshot`]; a single engine's
/// snapshot has one, `snap.shard(0)`) as a manifest on the snapshot's
/// device: a *consistent online backup*
/// taken without pausing ingestion — the snapshot's pins guarantee every
/// referenced file exists at write time.
///
/// The manifest stays recoverable for as long as its partition files
/// live. Files are only ever deleted when a cascade merge retires them
/// *and* the last snapshot pinning them drops — so either recover (or
/// copy the device) before dropping the snapshot, or rely on the common
/// case that upper-level partitions persist across many time steps.
pub fn persist_snapshot<T: Item, D: BlockDevice>(
    snap: &crate::engine::EngineSnapshot<T, D>,
) -> io::Result<FileId> {
    let base = BaseState {
        steps: snap.steps(),
        total_len: snap.historical_len(),
        quarantine: (snap.lost_items(), snap.quarantined_files().to_vec()),
        parts: snap
            .leveled_partitions()
            .iter()
            .map(|(l, p)| (*l as u64, p))
            .collect(),
        stream: None,
    };
    write_log(&**snap.device(), &base, &HashSet::new(), &mut 0).map(|(f, _)| f)
}

/// Encode one partition (run layout byte + level + run metadata + full
/// summary).
fn encode_partition<T: Item>(out: &mut Writer, level: u64, p: &StoredPartition<T>) {
    out.u64(RUN_CHECKSUMMED);
    out.u64(level);
    out.u64(p.run.file());
    out.u64(p.run.len());
    out.u64(p.first_step);
    out.u64(p.last_step);
    out.item(p.run.min());
    out.item(p.run.max());
    out.u64(p.summary.entries().len() as u64);
    for e in p.summary.entries() {
        out.item(e.value);
        out.u64(e.rank);
        out.u64(e.block);
    }
}

/// Decode one partition written by [`encode_partition`]. Backing-file
/// existence is *not* checked here — log replay may remove the partition
/// again before the final state is validated.
fn decode_partition<T: Item>(r: &mut Reader) -> io::Result<(usize, StoredPartition<T>)> {
    if r.u64()? != RUN_CHECKSUMMED {
        return Err(corrupt("bad run format byte"));
    }
    // κ ≥ 2 allows at most 64 live levels; a crafted level must not size
    // the recovered warehouse's level vector.
    let level = r.u64()?;
    if level >= 64 {
        return Err(corrupt("partition level out of range"));
    }
    let file = r.u64()?;
    let run_len = r.u64()?;
    let first_step = r.u64()?;
    let last_step = r.u64()?;
    let min: T = r.item()?;
    let max: T = r.item()?;
    let num_entries = r.u64()?;
    // A garbled (but CRC-valid, e.g. crafted) count must not drive a huge
    // allocation: each entry occupies ENCODED_LEN + 16 bytes, so the
    // count can never exceed what the remaining buffer holds.
    let entry_bytes = T::ENCODED_LEN + 16;
    let remaining = r.buf.len().saturating_sub(r.pos);
    if (num_entries as usize).saturating_mul(entry_bytes) > remaining {
        return Err(corrupt("summary entry count overruns buffer"));
    }
    let mut entries: Vec<SummaryEntry<T>> = Vec::with_capacity(num_entries as usize);
    for _ in 0..num_entries {
        let value: T = r.item()?;
        let rank = r.u64()?;
        let block = r.u64()?;
        if rank == 0 || rank > run_len {
            return Err(corrupt("summary rank out of range"));
        }
        if let Some(prev) = entries.last() {
            if prev.rank >= rank || prev.value > value {
                return Err(corrupt("summary entries out of order"));
            }
        }
        entries.push(SummaryEntry { value, rank, block });
    }
    Ok((
        level as usize,
        StoredPartition {
            run: SortedRun::from_raw_parts(file, run_len, min, max),
            summary: PartitionSummary::from_raw_parts(entries, run_len),
            first_step,
            last_step,
        },
    ))
}

/// Decode a quarantine block (`lost_items`, count, file ids) — shared by
/// the `Base` payload and the `Quarantine` record.
fn decode_quarantine(r: &mut Reader) -> io::Result<QuarantineParts> {
    let lost = r.u64()?;
    let num = r.u64()?;
    let remaining = r.buf.len().saturating_sub(r.pos);
    if (num as usize).saturating_mul(8) > remaining {
        return Err(corrupt("quarantine file count overruns buffer"));
    }
    let mut files = Vec::with_capacity(num as usize);
    for _ in 0..num {
        files.push(r.u64()?);
    }
    Ok((lost, files))
}

/// Encode the quarantine block written by [`decode_quarantine`]'s reader.
fn encode_quarantine(out: &mut Writer, lost: u64, files: &[FileId]) {
    out.u64(lost);
    out.u64(files.len() as u64);
    for &f in files {
        out.u64(f);
    }
}

/// Borrowed live-stream state: the optional tail of a `Base` record.
struct StreamRefs<'a, T: Item> {
    proc: &'a StreamProcessor<T>,
    staging: &'a [T],
    segments: &'a [usize],
}

/// A stream state decoded from a `Base` record's tail: the live sketch
/// (restored verbatim, like partition summaries) plus the staging buffer
/// the interrupted step had accumulated.
pub(crate) struct RecoveredStream<T: Copy + Ord> {
    pub(crate) proc: StreamProcessor<T>,
    pub(crate) staging: Vec<T>,
    pub(crate) segments: Vec<usize>,
}

/// Encode the stream section: the kind-tagged sketch blob plus
/// the staging buffer with its sorted-segment boundaries.
fn encode_stream_state<T: Item>(out: &mut Writer, s: &StreamRefs<'_, T>) {
    let sketch = s.proc.sketch();
    out.u64(match sketch.kind() {
        SketchKind::Gk => SKETCH_GK,
        SketchKind::Kll => SKETCH_KLL,
    });
    out.u64(sketch.epsilon().to_bits());
    out.u64(sketch.len());
    if let (Some(lo), Some(hi)) = (sketch.min(), sketch.max()) {
        out.item(lo);
        out.item(hi);
    }
    match sketch {
        AnySketch::Gk(gk) => {
            out.u64(gk.tuple_parts().count() as u64);
            for (v, g, delta) in gk.tuple_parts() {
                out.item(v);
                out.u64(g);
                out.u64(delta);
            }
        }
        AnySketch::Kll(kll) => {
            out.u64(kll.tracked_err());
            out.u64(kll.parity_mask());
            out.u64(kll.raw_levels().len() as u64);
            for level in kll.raw_levels() {
                out.u64(level.len() as u64);
                for &v in level {
                    out.item(v);
                }
            }
            // Three reserved words, once the randomized-compaction
            // descriptor (mode tag, seed, RNG cursor); always 0 so the
            // layout is unchanged.
            out.u64(0);
            out.u64(0);
            out.u64(0);
        }
    }
    out.u64(s.staging.len() as u64);
    for &v in s.staging {
        out.item(v);
    }
    out.u64(s.segments.len() as u64);
    for &end in s.segments {
        out.u64(end as u64);
    }
}

/// Decode the stream section written by [`encode_stream_state`]. The
/// sketch is rebuilt through its backend's validating constructor, so a
/// CRC-valid but crafted blob cannot install an unsound summary; counts
/// are bounded by the remaining buffer before any allocation.
fn decode_stream_state<T: Item>(
    r: &mut Reader,
    config: &HsqConfig,
) -> io::Result<RecoveredStream<T>> {
    let kind = match r.u64()? {
        SKETCH_GK => SketchKind::Gk,
        SKETCH_KLL => SketchKind::Kll,
        _ => return Err(corrupt("unknown stream sketch kind")),
    };
    let epsilon = f64::from_bits(r.u64()?);
    if !(epsilon > 0.0 && epsilon <= 1.0) {
        return Err(corrupt("stream sketch epsilon out of range"));
    }
    let n = r.u64()?;
    let (min, max) = if n > 0 {
        (Some(r.item()?), Some(r.item()?))
    } else {
        (None, None)
    };
    let sketch = match kind {
        SketchKind::Gk => {
            let num = r.u64()?;
            let tuple_bytes = T::ENCODED_LEN + 16;
            let remaining = r.buf.len().saturating_sub(r.pos);
            if (num as usize).saturating_mul(tuple_bytes) > remaining {
                return Err(corrupt("sketch tuple count overruns buffer"));
            }
            let mut parts = Vec::with_capacity(num as usize);
            for _ in 0..num {
                let v: T = r.item()?;
                let g = r.u64()?;
                let delta = r.u64()?;
                parts.push((v, g, delta));
            }
            AnySketch::Gk(
                GkSketch::from_tuple_parts(epsilon, n, min, max, parts)
                    .map_err(|e| corrupt(&format!("stream sketch invalid: {e}")))?,
            )
        }
        SketchKind::Kll => {
            let err = r.u64()?;
            let parity = r.u64()?;
            let num_levels = r.u64()?;
            if num_levels > 64 {
                return Err(corrupt("sketch level count out of range"));
            }
            let mut levels = Vec::with_capacity(num_levels as usize);
            for _ in 0..num_levels {
                let len = r.u64()?;
                let remaining = r.buf.len().saturating_sub(r.pos);
                if (len as usize).saturating_mul(T::ENCODED_LEN) > remaining {
                    return Err(corrupt("sketch level length overruns buffer"));
                }
                let mut level = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    level.push(r.item::<T>()?);
                }
                levels.push(level);
            }
            let kll = KllSketch::from_raw_parts(epsilon, n, min, max, err, parity, levels)
                .map_err(|e| corrupt(&format!("stream sketch invalid: {e}")))?;
            // A nonzero reserved word is a randomized-compaction sketch:
            // refuse it rather than resume on a different schedule.
            let reserved = [r.u64()?, r.u64()?, r.u64()?];
            if reserved != [0; 3] {
                return Err(corrupt("randomized KLL compaction is not supported"));
            }
            AnySketch::Kll(kll)
        }
    };
    let num_staged = r.u64()?;
    let remaining = r.buf.len().saturating_sub(r.pos);
    if (num_staged as usize).saturating_mul(T::ENCODED_LEN) > remaining {
        return Err(corrupt("staging length overruns buffer"));
    }
    let mut staging = Vec::with_capacity(num_staged as usize);
    for _ in 0..num_staged {
        staging.push(r.item::<T>()?);
    }
    // Every streamed element lands in both the sketch and staging, so
    // the two sizes agree in any state an engine actually persisted.
    if sketch.len() != staging.len() as u64 {
        return Err(corrupt("stream sketch size disagrees with staging"));
    }
    let num_segments = r.u64()?;
    let remaining = r.buf.len().saturating_sub(r.pos);
    if (num_segments as usize).saturating_mul(8) > remaining {
        return Err(corrupt("segment count overruns buffer"));
    }
    let mut segments = Vec::with_capacity(num_segments as usize);
    let mut prev = 0usize;
    for _ in 0..num_segments {
        let end = r.u64()? as usize;
        if end <= prev || end > staging.len() {
            return Err(corrupt("staging segments out of order"));
        }
        if staging[prev..end].windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("staging segment not sorted"));
        }
        segments.push(end);
        prev = end;
    }
    let proc =
        StreamProcessor::from_recovered(sketch, config.sketch, config.epsilon2, config.beta2);
    Ok(RecoveredStream {
        proc,
        staging,
        segments,
    })
}

/// Serialize the warehouse's metadata *plus* the engine's live stream
/// state (sketch + staging buffer): the full-fidelity form behind
/// [`crate::engine::HistStreamQuantiles::persist`]. Recovery restores the
/// stream mid-step, so queries answer identically before and after a
/// restart — under either sketch backend.
pub(crate) fn persist_engine<T: Item, D: BlockDevice>(
    w: &Warehouse<T, D>,
    proc: &StreamProcessor<T>,
    staging: &[T],
    segments: &[usize],
) -> io::Result<FileId> {
    let base = BaseState {
        stream: Some(StreamRefs {
            proc,
            staging,
            segments,
        }),
        ..BaseState::of(w)
    };
    write_log(&**w.device(), &base, &HashSet::new(), &mut 0).map(|(f, _)| f)
}

/// Every partition of `w` with its level: level-major, oldest first
/// within a level.
fn leveled<T: Item, D: BlockDevice>(w: &Warehouse<T, D>) -> Vec<(u64, &StoredPartition<T>)> {
    (0..w.num_levels())
        .flat_map(|l| w.level(l).iter().map(move |p| (l as u64, p)))
        .collect()
}

/// What a `Base` record holds, borrowed from the state it dumps.
struct BaseState<'a, T: Item> {
    steps: u64,
    total_len: u64,
    quarantine: QuarantineParts,
    parts: Vec<(u64, &'a StoredPartition<T>)>,
    stream: Option<StreamRefs<'a, T>>,
}

impl<'a, T: Item> BaseState<'a, T> {
    /// `w`'s state at a step boundary: no stream.
    fn of<D: BlockDevice>(w: &'a Warehouse<T, D>) -> Self {
        BaseState {
            steps: w.steps(),
            total_len: w.total_len(),
            quarantine: (w.lost_items(), w.quarantined_files()),
            parts: leveled(w),
            stream: None,
        }
    }

    /// The partition files the record names.
    fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.parts.iter().map(|(_, p)| p.run.file())
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Writer::new();
        out.u64(self.steps);
        out.u64(self.total_len);
        encode_quarantine(&mut out, self.quarantine.0, &self.quarantine.1);
        out.u64(self.parts.len() as u64);
        for &(level, p) in &self.parts {
            encode_partition(&mut out, level, p);
        }
        if let Some(s) = &self.stream {
            encode_stream_state(&mut out, s);
        }
        out.buf
    }
}

/// The log header, zero-padded to one block.
fn log_header<T: Item>(block_size: usize) -> Vec<u8> {
    let mut out = Writer::new();
    out.buf.extend_from_slice(LOG_MAGIC);
    out.u64(VERSION);
    out.u64(T::ENCODED_LEN as u64);
    out.buf
        .resize(out.buf.len().next_multiple_of(block_size), 0);
    out.buf
}

/// Append one record (`body_len | kind payload crc`) to `image`,
/// zero-padded so the next record starts on a block boundary.
fn push_record(image: &mut Vec<u8>, block_size: usize, kind: u64, payload: &[u8]) {
    let mut body = Writer::new();
    body.u64(kind);
    body.buf.extend_from_slice(payload);
    crc::seal(&mut body.buf);
    image.extend_from_slice(&(body.buf.len() as u64).to_le_bytes());
    image.extend_from_slice(&body.buf);
    image.resize(image.len().next_multiple_of(block_size), 0);
}

/// Write a block-aligned `image` into `file` from block `first` on;
/// returns the number of blocks written.
fn write_blocks<D: BlockDevice>(
    dev: &D,
    file: FileId,
    first: u64,
    image: &[u8],
) -> io::Result<u64> {
    let mut blocks = 0;
    for block in image.chunks(dev.block_size()) {
        dev.write_block(file, first + blocks, block)?;
        blocks += 1;
    }
    Ok(blocks)
}

/// The write-ahead rule: a record must never reference a partition whose
/// data could be lost with it, so every run in `runs` reaches durable
/// storage, in file-id order, before the record naming it lands.
fn sync_runs<D: BlockDevice>(dev: &D, mut runs: Vec<FileId>, syncs: &mut u64) -> io::Result<()> {
    runs.sort_unstable();
    for f in runs {
        dev.sync(f)?;
        *syncs += 1;
    }
    Ok(())
}

/// The one manifest writer: make durable every run `base` names that
/// `synced` does not hold, in file-id order, then write a new log of the
/// header and `base` as its one record, and sync it. `syncs` counts the
/// blocking syncs made. Returns the log's file and its length in blocks;
/// on error the half-written log is deleted (best effort).
fn write_log<T: Item, D: BlockDevice>(
    dev: &D,
    base: &BaseState<'_, T>,
    synced: &HashSet<FileId>,
    syncs: &mut u64,
) -> io::Result<(FileId, u64)> {
    let bs = dev.block_size();
    let mut image = log_header::<T>(bs);
    push_record(&mut image, bs, REC_BASE, &base.encode());
    let fresh = base.files().filter(|f| !synced.contains(f)).collect();
    sync_runs(dev, fresh, syncs)?;
    let file = dev.create()?;
    let written = write_blocks(dev, file, 0, &image).and_then(|blocks| {
        dev.sync(file)?;
        *syncs += 1;
        Ok(blocks)
    });
    match written {
        Ok(blocks) => Ok((file, blocks)),
        Err(e) => {
            let _ = dev.delete(file);
            Err(e)
        }
    }
}

/// Reopen a warehouse from a manifest written by [`persist`],
/// [`persist_snapshot`] or a [`ManifestLog`] (a stream tail, if any, is
/// decoded and dropped).
///
/// `config` must carry the same `ε₁`/`β₁` the warehouse was built with
/// (summaries are restored verbatim, so a mismatch only affects future
/// partitions). Fails with `InvalidData` on magic/version/CRC mismatch —
/// any version other than the current one is a mismatch.
pub fn recover<T: Item, D: BlockDevice>(
    dev: Arc<D>,
    config: HsqConfig,
    manifest: FileId,
) -> io::Result<Warehouse<T, D>> {
    replay_log(dev, config, manifest).map(|(w, _)| w)
}

/// Replay a log: apply the `Base` record then every valid `Delta` and
/// `Quarantine`, stopping cleanly at a torn tail record. Also returns
/// the last `Base`'s stream tail, if it has one — the full path behind
/// [`crate::engine::HistStreamQuantiles::recover`].
#[allow(clippy::type_complexity)]
pub(crate) fn replay_log<T: Item, D: BlockDevice>(
    dev: Arc<D>,
    config: HsqConfig,
    manifest: FileId,
) -> io::Result<(Warehouse<T, D>, Option<RecoveredStream<T>>)> {
    let bs = dev.block_size();
    let mut raw = Vec::new();
    let mut buf = vec![0u8; bs];
    for b in 0..dev.num_blocks(manifest)? {
        let got = dev.read_block(manifest, b, &mut buf)?;
        raw.extend_from_slice(&buf[..got]);
    }
    if raw.get(..4) != Some(LOG_MAGIC.as_slice()) {
        return Err(corrupt("bad magic"));
    }
    let mut header = Reader { buf: &raw, pos: 4 };
    if header.u64()? != VERSION {
        return Err(corrupt("unsupported version"));
    }
    if header.u64()? != T::ENCODED_LEN as u64 {
        return Err(corrupt("item width mismatch"));
    }

    let mut state: HashMap<FileId, (usize, StoredPartition<T>)> = HashMap::new();
    let mut steps = 0u64;
    let mut total_len = 0u64;
    let mut quarantine: QuarantineParts = (0, Vec::new());
    let mut stream = None;
    let mut applied = 0usize;

    let mut pos = bs; // records start at block 1
    while pos + 8 <= raw.len() {
        let body_len = u64::from_le_bytes(raw[pos..pos + 8].try_into().unwrap()) as usize;
        // Against what is left, not as `pos + 8 + body_len`: a garbage
        // length near `u64::MAX` would wrap that sum.
        if body_len < 16 || body_len > raw.len() - pos - 8 {
            break; // torn or padding tail
        }
        let Ok(body) = crc::open(&raw[pos + 8..pos + 8 + body_len]) else {
            break; // torn record: ignore it and everything after
        };
        if stream.is_some() {
            return Err(corrupt("record after a stream-carrying base"));
        }
        let mut r = Reader { buf: body, pos: 0 };
        match r.u64()? {
            REC_BASE => {
                state.clear();
                steps = r.u64()?;
                total_len = r.u64()?;
                quarantine = decode_quarantine(&mut r)?;
                let num = r.u64()?;
                for _ in 0..num {
                    let (level, p) = decode_partition(&mut r)?;
                    state.insert(p.run.file(), (level, p));
                }
                if r.pos < body.len() {
                    stream = Some(decode_stream_state(&mut r, &config)?);
                    if r.pos != body.len() {
                        return Err(corrupt("stream section does not fill its record"));
                    }
                }
            }
            REC_DELTA => {
                steps = r.u64()?;
                total_len = r.u64()?;
                let removed = r.u64()?;
                for _ in 0..removed {
                    let gone = r.u64()?;
                    state.remove(&gone);
                    // A retired quarantined file (retention expiry) stops
                    // being quarantined — its mass left the warehouse.
                    quarantine.1.retain(|&f| f != gone);
                }
                let added = r.u64()?;
                for _ in 0..added {
                    let (level, p) = decode_partition(&mut r)?;
                    state.insert(p.run.file(), (level, p));
                }
            }
            REC_QUARANTINE => {
                // Full state, replayed by replacement.
                quarantine = decode_quarantine(&mut r)?;
            }
            _ => return Err(corrupt("unknown log record kind")),
        }
        applied += 1;
        // Records are block-aligned: advance to the next block boundary.
        pos += (8 + body_len).div_ceil(bs) * bs;
    }
    if applied == 0 {
        return Err(corrupt("log holds no valid records"));
    }

    // Every live partition's backing file must exist; then rebuild the
    // warehouse and verify its structural invariants.
    for (_, p) in state.values() {
        if dev.num_blocks(p.run.file())? == 0 && !p.run.is_empty() {
            return Err(corrupt("partition file missing or empty"));
        }
    }
    let partitions = state.into_values().collect();
    let w = Warehouse::from_recovered_parts(dev, config, partitions, steps, total_len);
    // Install quarantine before checking invariants: a quarantined level
    // is legitimately allowed to exceed the merge threshold.
    let (lost, files) = quarantine;
    w.set_quarantine(lost, files);
    w.check_invariants()
        .map_err(|e| corrupt(&format!("recovered state invalid: {e}")))?;
    Ok((w, stream))
}

/// An append-only manifest for long-running engines: one file holding a
/// `Base` state record plus one `Delta` record per archived step, with
/// compaction to keep the log bounded and write-ahead pinning so the
/// last durable record's files always exist (see the module docs).
///
/// Call [`ManifestLog::append`] once per step boundary. Typical loop:
///
/// ```
/// use std::sync::Arc;
/// use hsq_core::{manifest::ManifestLog, HistStreamQuantiles, HsqConfig, RetentionPolicy};
/// use hsq_storage::{BlockDevice, MemDevice};
///
/// let cfg = HsqConfig::builder()
///     .epsilon(0.1)
///     .merge_threshold(3)
///     .retention(RetentionPolicy::unbounded().with_max_age_steps(8))
///     .build();
/// let dev = MemDevice::new(256);
/// let mut engine = HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg.clone());
/// let mut log = ManifestLog::create(engine.warehouse()).unwrap();
/// for step in 0..20u64 {
///     engine.ingest_step(&(step * 100..step * 100 + 100).collect::<Vec<_>>()).unwrap();
///     log.append(engine.warehouse()).unwrap();
///     if log.should_compact() {
///         let old = log.compact(engine.warehouse()).unwrap();
///         // ...durably record log.file() out of band, then:
///         dev.delete(old).unwrap();
///     }
/// }
/// let recovered = HistStreamQuantiles::<u64, _>::recover(dev, cfg, log.file()).unwrap();
/// assert_eq!(recovered.historical_len(), engine.historical_len());
/// ```
pub struct ManifestLog<T: Item, D: BlockDevice> {
    dev: Arc<D>,
    file: FileId,
    next_block: u64,
    /// Blocking [`BlockDevice::sync`] calls this log has made: one per
    /// partition file a record references for the first time, plus one
    /// on the log file itself per `create`, `append` or `compact`.
    blocking_syncs: u64,
    /// File ids recorded live as of the last record, for delta diffing.
    /// Every one of them was synced before the record naming it landed.
    known: HashSet<FileId>,
    /// Write-ahead pin over `known`: every file the last durable record
    /// references stays on the device (deletion deferred) until the
    /// record superseding it is written, so recovery from the log never
    /// dangles — even if the process dies between a step boundary (which
    /// retires files via merges or retention) and the next `append`.
    /// Swapped after each record: the old guard's drop executes the
    /// deletions the step deferred.
    guard: Option<crate::warehouse::PinGuard<D>>,
    /// Delta records appended since the last `Base`.
    delta_records: u64,
    /// Quarantine state as of the last record (`lost`, sorted files); a
    /// change appends a `Quarantine` record alongside the next delta.
    last_quarantine: QuarantineParts,
    _t: std::marker::PhantomData<T>,
}

impl<T: Item, D: BlockDevice> ManifestLog<T, D> {
    /// Start a new log on the warehouse's device, holding a `Base` record
    /// of the warehouse's current state.
    pub fn create(w: &Warehouse<T, D>) -> io::Result<Self> {
        // A handle over no log yet: the first compaction writes its file.
        let mut log = ManifestLog {
            dev: Arc::clone(w.device()),
            file: 0,
            next_block: 0,
            blocking_syncs: 0,
            known: HashSet::new(),
            guard: None,
            delta_records: 0,
            last_quarantine: (0, Vec::new()),
            _t: std::marker::PhantomData,
        };
        log.compact(w)?;
        Ok(log)
    }

    /// Blocking `sync` calls this log has made so far: one per newly
    /// referenced partition file, plus one on the log file itself per
    /// `create`, `append` or `compact`.
    pub fn blocking_syncs(&self) -> u64 {
        self.blocking_syncs
    }

    /// Simulate process death for crash testing: leak the write-ahead
    /// pins — exactly what a real crash does, since `Drop` never runs —
    /// while still releasing ordinary resources (the device handle,
    /// buffers). Returns the log's file id, the recovery handle.
    pub fn simulate_crash(mut self) -> FileId {
        if let Some(guard) = self.guard.take() {
            std::mem::forget(guard);
        }
        self.file
    }

    /// The log's file id — what [`recover`] (and hence
    /// [`crate::engine::HistStreamQuantiles::recover`]) takes.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Delta records appended since the last `Base` record.
    pub fn delta_records(&self) -> u64 {
        self.delta_records
    }

    /// Bytes currently occupied by the log file.
    pub fn log_bytes(&self) -> io::Result<u64> {
        self.dev.file_len(self.file)
    }

    /// Compaction heuristic: the replay cost (and file size) grows with
    /// every delta, so compact once a batch of them has accumulated.
    pub fn should_compact(&self) -> bool {
        self.delta_records >= 32
    }

    /// Adopt `files` as the set the last durable record references. Pins
    /// the new set *before* releasing the previous pins, so no referenced
    /// file is ever deletable in between; dropping the old guard executes
    /// the deletions the superseded record deferred.
    fn repin(&mut self, w: &Warehouse<T, D>, files: HashSet<FileId>) {
        self.guard = Some(w.pin_files(files.iter().copied().collect()));
        self.known = files;
    }

    /// Append a `Delta` record capturing every partition added or retired
    /// (by merges or retention) since the last record. Call once per
    /// archived step, after
    /// [`crate::engine::HistStreamQuantiles::end_time_step`]. A no-change
    /// step still appends (it advances the recovered step clock). On
    /// error the handle is unchanged, and the next record overwrites
    /// whatever this one wrote.
    pub fn append(&mut self, w: &Warehouse<T, D>) -> io::Result<()> {
        let current = leveled(w);
        let live: HashSet<FileId> = current.iter().map(|(_, p)| p.run.file()).collect();
        let removed: Vec<FileId> = self.known.difference(&live).copied().collect();
        let added: Vec<(u64, &StoredPartition<T>)> = current
            .into_iter()
            .filter(|(_, p)| !self.known.contains(&p.run.file()))
            .collect();

        let fresh = added.iter().map(|(_, p)| p.run.file()).collect();
        sync_runs(&*self.dev, fresh, &mut self.blocking_syncs)?;

        let mut out = Writer::new();
        out.u64(w.steps());
        out.u64(w.total_len());
        out.u64(removed.len() as u64);
        for f in &removed {
            out.u64(*f);
        }
        out.u64(added.len() as u64);
        for &(level, p) in &added {
            encode_partition(&mut out, level, p);
        }
        let bs = self.dev.block_size();
        let mut image = Vec::new();
        push_record(&mut image, bs, REC_DELTA, &out.buf);
        // Quarantine changes (scrub repairs, new corruption finds) ride
        // as a full-state record whenever the state moved since the last
        // record — replayed by replacement, so one record suffices.
        let quarantine = (w.lost_items(), w.quarantined_files());
        if quarantine != self.last_quarantine {
            let mut q = Writer::new();
            encode_quarantine(&mut q, quarantine.0, &quarantine.1);
            push_record(&mut image, bs, REC_QUARANTINE, &q.buf);
        }
        let blocks = write_blocks(&*self.dev, self.file, self.next_block, &image)?;
        // Durability barrier before acting on the record: pins are only
        // released once the record superseding them reached storage.
        self.dev.sync(self.file)?;
        self.blocking_syncs += 1;
        self.next_block += blocks;
        self.repin(w, live);
        self.delta_records += 1;
        self.last_quarantine = quarantine;
        Ok(())
    }

    /// Compact: write the warehouse's current state as a fresh `Base`
    /// into a **new** log file and switch this handle to it. Returns the
    /// *old* log's file id, which the caller deletes once the new id is
    /// durably recorded — until then both files recover to the same
    /// state, so a crash anywhere in the handoff loses nothing. On error
    /// the handle still writes to the old log.
    pub fn compact(&mut self, w: &Warehouse<T, D>) -> io::Result<FileId> {
        let base = BaseState::of(w);
        let (file, blocks) = write_log(&*self.dev, &base, &self.known, &mut self.blocking_syncs)?;
        self.repin(w, base.files().collect());
        self.next_block = blocks;
        self.delta_records = 0;
        self.last_quarantine = base.quarantine;
        Ok(std::mem::replace(&mut self.file, file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsq_storage::{FileDevice, MemDevice};

    fn build(kappa: usize) -> Warehouse<u64, MemDevice> {
        let mut cfg = HsqConfig::with_epsilon(0.1);
        cfg.kappa = kappa;
        let mut w = Warehouse::new(MemDevice::new(256), cfg);
        for s in 0..13u64 {
            w.add_batch((0..200).map(|i| s * 200 + i).collect())
                .unwrap();
        }
        w
    }

    #[test]
    fn roundtrip_on_mem_device() {
        let w = build(2);
        let manifest = persist(&w).unwrap();
        let cfg = HsqConfig::with_epsilon(0.1);
        let recovered: Warehouse<u64, MemDevice> =
            recover(Arc::clone(w.device()), cfg, manifest).unwrap();
        assert_eq!(recovered.steps(), w.steps());
        assert_eq!(recovered.total_len(), w.total_len());
        assert_eq!(recovered.num_partitions(), w.num_partitions());
        assert_eq!(recovered.available_windows(), w.available_windows());
        // Partition data identical.
        let a: Vec<_> = w
            .partitions_newest_first()
            .iter()
            .map(|p| p.run.read_all(&**w.device()).unwrap())
            .collect();
        let b: Vec<_> = recovered
            .partitions_newest_first()
            .iter()
            .map(|p| p.run.read_all(&**recovered.device()).unwrap())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn recovery_continues_ingesting() {
        let w = build(3);
        let manifest = persist(&w).unwrap();
        let mut cfg = HsqConfig::with_epsilon(0.1);
        cfg.kappa = 3;
        let mut recovered: Warehouse<u64, MemDevice> =
            recover(Arc::clone(w.device()), cfg, manifest).unwrap();
        recovered.add_batch((10_000..10_500u64).collect()).unwrap();
        recovered.check_invariants().unwrap();
        assert_eq!(recovered.total_len(), w.total_len() + 500);
    }

    #[test]
    fn snapshot_backup_recovers_old_state() {
        // Persist from a snapshot, keep ingesting (merges retire pinned
        // runs — deletion deferred while the snapshot lives), then recover
        // the backup: it must reflect the snapshot-time state.
        let mut cfg = HsqConfig::with_epsilon(0.1);
        cfg.kappa = 2;
        let dev = MemDevice::new(256);
        let mut engine = crate::engine::HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), {
            let mut c = HsqConfig::with_epsilon(0.1);
            c.kappa = 2;
            c
        });
        for s in 0..5u64 {
            engine
                .ingest_step(&(s * 100..s * 100 + 100).collect::<Vec<_>>())
                .unwrap();
        }
        let snap = engine.snapshot();
        let manifest = persist_snapshot(snap.shard(0)).unwrap();
        for s in 5..8u64 {
            engine
                .ingest_step(&(s * 100..s * 100 + 100).collect::<Vec<_>>())
                .unwrap();
        }
        // Recover while the snapshot still pins the old files.
        let recovered: Warehouse<u64, MemDevice> =
            recover(Arc::clone(&dev), cfg, manifest).unwrap();
        assert_eq!(recovered.total_len(), 500);
        assert_eq!(recovered.steps(), 5);
        drop(snap);
    }

    #[test]
    fn corrupted_manifest_rejected() {
        let w = build(2);
        let manifest = persist(&w).unwrap();
        // Flip a byte in the middle of the manifest's one record: no
        // valid record is left to replay.
        let dev = w.device();
        let mut img = read_image(dev, manifest);
        let body_len = u64::from_le_bytes(img[256..264].try_into().unwrap()) as usize;
        img[264 + body_len / 2] ^= 0xFF;
        let f = write_image(dev, &img);
        let cfg = HsqConfig::with_epsilon(0.1);
        let err = recover::<u64, _>(Arc::clone(dev), cfg, f).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("no valid records"), "{err}");
    }

    #[test]
    fn wrong_item_width_rejected() {
        let w = build(2);
        let manifest = persist(&w).unwrap();
        let cfg = HsqConfig::with_epsilon(0.1);
        let err = recover::<u32, _>(Arc::clone(w.device()), cfg, manifest).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Quantiles of a history-only warehouse (m = 0: exact), for
    /// comparing recovered states by answers rather than layout.
    fn exact_quantiles(w: &Warehouse<u64, MemDevice>) -> Vec<u64> {
        let cfg = HsqConfig::with_epsilon(0.1);
        let ss = crate::stream::StreamProcessor::<u64>::new(cfg.epsilon2, cfg.beta2).summary();
        let ctx = crate::query::QueryContext::new(
            &**w.device(),
            w.partitions_newest_first(),
            &ss,
            cfg.query_epsilon(),
            cfg.cache_blocks,
        );
        [0.01, 0.25, 0.5, 0.75, 0.99]
            .iter()
            .map(|&phi| {
                let r = ((phi * w.total_len() as f64).ceil() as u64).max(1);
                ctx.accurate_rank(r).unwrap().unwrap().value
            })
            .collect()
    }

    fn log_config(kappa: usize, max_age: u64) -> HsqConfig {
        let mut cfg = HsqConfig::with_epsilon(0.1);
        cfg.kappa = kappa;
        cfg.retention = crate::retention::RetentionPolicy::unbounded().with_max_age_steps(max_age);
        cfg
    }

    #[test]
    fn log_replay_matches_live_state() {
        // Deltas under cascade merges AND retention expiry: replay must
        // land on exactly the live partition set.
        let cfg = log_config(2, 6);
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(256), cfg.clone());
        let mut log = ManifestLog::create(&w).unwrap();
        for s in 0..15u64 {
            w.add_batch((0..100).map(|i| s * 100 + i).collect())
                .unwrap();
            log.append(&w).unwrap();
        }
        let recovered: Warehouse<u64, MemDevice> =
            recover(Arc::clone(w.device()), cfg, log.file()).unwrap();
        assert_eq!(recovered.steps(), w.steps());
        assert_eq!(recovered.total_len(), w.total_len());
        assert_eq!(recovered.num_partitions(), w.num_partitions());
        assert_eq!(recovered.available_windows(), w.available_windows());
        assert_eq!(exact_quantiles(&recovered), exact_quantiles(&w));
    }

    #[test]
    fn log_compaction_shrinks_and_preserves_state() {
        let cfg = log_config(2, 4);
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(256), cfg.clone());
        let mut log = ManifestLog::create(&w).unwrap();
        for s in 0..40u64 {
            w.add_batch((0..50).map(|i| s * 50 + i).collect()).unwrap();
            log.append(&w).unwrap();
        }
        let before = log.log_bytes().unwrap();
        assert_eq!(log.delta_records(), 40);
        assert!(log.should_compact());
        let old = log.compact(&w).unwrap();
        w.device().delete(old).unwrap();
        assert_eq!(log.delta_records(), 0);
        let after = log.log_bytes().unwrap();
        assert!(
            after < before / 2,
            "compaction must shrink the log: {before} -> {after}"
        );
        let recovered: Warehouse<u64, MemDevice> =
            recover(Arc::clone(w.device()), cfg, log.file()).unwrap();
        recovered.check_invariants().unwrap();
        assert_eq!(recovered.total_len(), w.total_len());
        assert_eq!(exact_quantiles(&recovered), exact_quantiles(&w));
    }

    #[test]
    fn crash_between_compaction_write_and_old_log_removal() {
        // The satellite crash test: compaction writes the new base file,
        // then the process dies BEFORE the old log is removed. Both files
        // exist; recovery from either must yield a valid warehouse with
        // identical query answers (the uncompacted log is the control).
        let cfg = log_config(2, 5);
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(256), cfg.clone());
        let mut log = ManifestLog::create(&w).unwrap();
        for s in 0..23u64 {
            w.add_batch((0..80).map(|i| (i * 131 + s * 17) % 10_000).collect())
                .unwrap();
            log.append(&w).unwrap();
        }
        let old = log.compact(&w).unwrap();
        // -- simulated crash: old log NOT removed, new id maybe not yet
        // recorded. Recover from both files.
        let from_old: Warehouse<u64, MemDevice> =
            recover(Arc::clone(w.device()), cfg.clone(), old).unwrap();
        let from_new: Warehouse<u64, MemDevice> =
            recover(Arc::clone(w.device()), cfg.clone(), log.file()).unwrap();
        from_old.check_invariants().unwrap();
        from_new.check_invariants().unwrap();
        assert_eq!(from_old.steps(), from_new.steps());
        assert_eq!(from_old.total_len(), from_new.total_len());
        assert_eq!(from_old.available_windows(), from_new.available_windows());
        assert_eq!(exact_quantiles(&from_old), exact_quantiles(&from_new));
        // After the handoff completes (old removed), the new log still
        // recovers; the old id no longer resolves.
        w.device().delete(old).unwrap();
        let again: Warehouse<u64, MemDevice> =
            recover(Arc::clone(w.device()), cfg.clone(), log.file()).unwrap();
        assert_eq!(again.total_len(), from_new.total_len());
        assert!(recover::<u64, _>(Arc::clone(w.device()), cfg, old).is_err());
    }

    #[test]
    fn crash_between_step_and_append_recovers_from_stale_log() {
        // Retention retires (and would delete) files during
        // end_time_step; the log's write-ahead pins must keep every file
        // its last record references until the NEXT append is durable.
        // Crash in that window -> recovery from the stale log must work.
        let cfg = log_config(2, 2); // aggressive TTL + merges
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(256), cfg.clone());
        let mut log = ManifestLog::create(&w).unwrap();
        for s in 0..6u64 {
            w.add_batch((0..60).map(|i| s * 60 + i).collect()).unwrap();
            log.append(&w).unwrap();
        }
        let logged_len = w.total_len();
        // Three more steps WITHOUT appending: retention retires the very
        // partitions the last record references.
        for s in 6..9u64 {
            w.add_batch((0..60).map(|i| s * 60 + i).collect()).unwrap();
        }
        // Simulated process crash: pins never release.
        let file = log.simulate_crash();
        let recovered: Warehouse<u64, MemDevice> =
            recover(Arc::clone(w.device()), cfg, file).unwrap();
        recovered.check_invariants().unwrap();
        assert_eq!(
            recovered.total_len(),
            logged_len,
            "stale-log recovery must land on the last appended state"
        );
    }

    #[test]
    fn append_releases_superseded_files() {
        // Orderly protocol: once a delta records a file's removal, the
        // deferred deletion runs — the log must not leak storage.
        let cfg = log_config(2, 2);
        let dev = MemDevice::new(256);
        let mut w = Warehouse::<u64, _>::new(Arc::clone(&dev), cfg);
        let mut log = ManifestLog::create(&w).unwrap();
        for s in 0..20u64 {
            w.add_batch((0..60).map(|i| s * 60 + i).collect()).unwrap();
            log.append(&w).unwrap();
        }
        // Device holds: live partitions + the log file only.
        let live = w.partition_bytes().unwrap();
        let log_bytes = log.log_bytes().unwrap();
        assert_eq!(
            dev.resident_bytes(),
            live + log_bytes,
            "append must delete files superseded by the last record"
        );
    }

    #[test]
    fn create_syncs_every_referenced_run_before_base() {
        // Write-ahead holds for `Base` records as for `Delta`s: a log
        // created over archived steps makes every run it names durable
        // before the record lands, then syncs itself.
        let cfg = log_config(3, 64);
        let dev = MemDevice::new(256);
        let mut w = Warehouse::<u64, _>::new(Arc::clone(&dev), cfg);
        for s in 0..3u64 {
            w.add_batch((0..60).map(|i| s * 60 + i).collect()).unwrap();
        }
        let syncs = || dev.stats().snapshot().syncs;
        let before = syncs();
        let mut log = ManifestLog::create(&w).unwrap();
        assert_eq!(syncs() - before, w.num_partitions() as u64 + 1);
        // Compacting right after: every run is already durable, so only
        // the new log file is synced.
        let before = syncs();
        let old = log.compact(&w).unwrap();
        assert_eq!(syncs() - before, 1);
        dev.delete(old).unwrap();
    }

    #[test]
    fn persist_syncs_every_referenced_run_before_manifest() {
        // A one-record log from `persist` follows the same write-ahead
        // rule: every run it names is made durable, then the log itself.
        let cfg = log_config(3, 64);
        let dev = MemDevice::new(256);
        let mut w = Warehouse::<u64, _>::new(Arc::clone(&dev), cfg);
        for s in 0..3u64 {
            w.add_batch((0..60).map(|i| s * 60 + i).collect()).unwrap();
        }
        let syncs = || dev.stats().snapshot().syncs;
        let before = syncs();
        persist(&w).unwrap();
        assert_eq!(syncs() - before, w.num_partitions() as u64 + 1);
    }

    #[test]
    fn torn_tail_record_is_ignored() {
        // A crash mid-append leaves a trailing record with a bad CRC; the
        // replay must stop there and recover the pre-append state.
        let cfg = log_config(3, 10);
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(256), cfg.clone());
        let mut log = ManifestLog::create(&w).unwrap();
        for s in 0..5u64 {
            w.add_batch((0..60).map(|i| s * 60 + i).collect()).unwrap();
            log.append(&w).unwrap();
        }
        let steps_before = w.steps();
        let len_before = w.total_len();
        // Append one more step's record, then corrupt its bytes.
        let tail_start = w.device().num_blocks(log.file()).unwrap();
        w.add_batch((300..360u64).collect()).unwrap();
        log.append(&w).unwrap();
        let dev = w.device();
        let bs = dev.block_size();
        let mut buf = vec![0u8; bs];
        dev.read_block(log.file(), tail_start, &mut buf).unwrap();
        for b in buf[16..].iter_mut() {
            *b ^= 0xFF;
        }
        dev.write_block(log.file(), tail_start, &buf).unwrap();
        let recovered: Warehouse<u64, MemDevice> =
            recover(Arc::clone(dev), cfg, log.file()).unwrap();
        assert_eq!(recovered.steps(), steps_before);
        assert_eq!(recovered.total_len(), len_before);
    }

    #[test]
    fn record_length_near_u64_max_is_a_torn_tail() {
        // A garbage length word must not wrap the bounds check of the
        // record it frames: recovery stops there, like any torn tail.
        let cfg = log_config(3, 10);
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(256), cfg.clone());
        let mut log = ManifestLog::create(&w).unwrap();
        w.add_batch((0..60).collect()).unwrap();
        log.append(&w).unwrap();
        let (steps, len, quantiles) = (w.steps(), w.total_len(), exact_quantiles(&w));
        let third = w.device().num_blocks(log.file()).unwrap() as usize * 256;
        w.add_batch((60..120).collect()).unwrap();
        log.append(&w).unwrap();
        let dev = w.device();
        let mut img = read_image(dev, log.file());
        img[third..third + 8].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        let f = write_image(dev, &img);
        let r: Warehouse<u64, MemDevice> = recover(Arc::clone(dev), cfg, f).unwrap();
        r.check_invariants().unwrap();
        assert_eq!((r.steps(), r.total_len()), (steps, len));
        assert_eq!(exact_quantiles(&r), quantiles);
    }

    #[test]
    fn engine_recovers_from_log_file() {
        // Engine::recover replays a multi-record log like the one-record
        // log `persist` writes.
        let cfg = log_config(2, 8);
        let dev = MemDevice::new(256);
        let mut engine =
            crate::engine::HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg.clone());
        let mut log = ManifestLog::create(engine.warehouse()).unwrap();
        for s in 0..12u64 {
            engine
                .ingest_step(&(s * 100..s * 100 + 100).collect::<Vec<_>>())
                .unwrap();
            log.append(engine.warehouse()).unwrap();
        }
        let recovered =
            crate::engine::HistStreamQuantiles::<u64, _>::recover(dev, cfg, log.file()).unwrap();
        assert_eq!(recovered.historical_len(), engine.historical_len());
        assert_eq!(
            recovered.quantile(0.5).unwrap(),
            engine.quantile(0.5).unwrap()
        );
    }

    #[test]
    fn full_restart_cycle_on_real_filesystem() {
        let dir = std::env::temp_dir().join(format!("hsq-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest;
        let windows;
        {
            let dev = FileDevice::new(&dir, 256).unwrap();
            let mut cfg = HsqConfig::with_epsilon(0.1);
            cfg.kappa = 2;
            let mut w = Warehouse::<u64, _>::new(dev, cfg);
            for s in 0..13u64 {
                w.add_batch((0..100).map(|i| s * 100 + i).collect())
                    .unwrap();
            }
            manifest = persist(&w).unwrap();
            windows = w.available_windows();
            // Device handles dropped here: simulated process exit.
        }
        {
            // Fresh device over the same directory: files re-registered.
            let dev = FileDevice::new(&dir, 256).unwrap();
            let mut cfg = HsqConfig::with_epsilon(0.1);
            cfg.kappa = 2;
            let recovered: Warehouse<u64, _> = recover(dev, cfg.clone(), manifest).unwrap();
            assert_eq!(recovered.total_len(), 1300);
            assert_eq!(recovered.available_windows(), windows);
            // Queries over recovered data are exact (no stream).
            let parts = recovered.partitions_newest_first();
            let ss = crate::stream::StreamProcessor::<u64>::new(cfg.epsilon2, cfg.beta2).summary();
            let ctx = crate::query::QueryContext::new(
                &**recovered.device(),
                parts,
                &ss,
                cfg.query_epsilon(),
                cfg.cache_blocks,
            );
            let med = ctx.accurate_rank(650).unwrap().unwrap();
            assert_eq!(med.estimated_rank, 650);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Read a manifest/log file's full byte image.
    fn read_image(dev: &MemDevice, file: FileId) -> Vec<u8> {
        let bs = dev.block_size();
        let mut raw = Vec::new();
        let mut buf = vec![0u8; bs];
        for b in 0..dev.num_blocks(file).unwrap() {
            let got = dev.read_block(file, b, &mut buf).unwrap();
            raw.extend_from_slice(&buf[..got]);
        }
        raw
    }

    /// Write a byte image as a fresh file on the device.
    fn write_image(dev: &MemDevice, raw: &[u8]) -> FileId {
        let file = dev.create().unwrap();
        for (i, chunk) in raw.chunks(dev.block_size()).enumerate() {
            dev.write_block(file, i as u64, chunk).unwrap();
        }
        file
    }

    /// A log image on 256-byte blocks: the header, then one record per
    /// `(kind, payload)`, each framed and sealed with its CRC.
    fn log_image(records: &[(u64, &Writer)]) -> Vec<u8> {
        let mut img = log_header::<u64>(256);
        for (kind, payload) in records {
            push_record(&mut img, 256, *kind, &payload.buf);
        }
        img
    }

    /// The `Base` payload of an empty warehouse, ready for a stream tail.
    fn empty_base() -> Writer {
        let mut out = Writer::new();
        out.u64(0); // steps
        out.u64(0); // total_len
        encode_quarantine(&mut out, 0, &[]);
        out.u64(0); // partitions
        out
    }

    /// Append a stream tail holding one item, 42, in a KLL sketch whose
    /// three reserved words are `reserved`.
    fn kll_stream_tail(out: &mut Writer, reserved: [u64; 3]) {
        out.u64(SKETCH_KLL);
        out.u64(0.05f64.to_bits());
        out.u64(1); // n
        out.item(42u64); // min
        out.item(42u64); // max
        out.u64(0); // tracked err
        out.u64(0); // parity
        out.u64(1); // levels
        out.u64(1);
        out.item(42u64);
        for w in reserved {
            out.u64(w);
        }
        out.u64(1); // staging
        out.item(42u64);
        out.u64(1); // segments
        out.u64(1);
    }

    #[test]
    fn quarantine_state_survives_persist_recover() {
        let w = build(2);
        let file = w.partitions_newest_first()[0].run.file();
        w.set_quarantine(17, vec![file]);
        let manifest = persist(&w).unwrap();
        let cfg = HsqConfig::with_epsilon(0.1);
        let r: Warehouse<u64, MemDevice> = recover(Arc::clone(w.device()), cfg, manifest).unwrap();
        assert_eq!(r.lost_items(), 17);
        assert_eq!(r.quarantined_files(), vec![file]);
        assert_eq!(r.quarantined_mass(), w.quarantined_mass());
        assert_eq!(
            r.healthy_partitions_newest_first().len(),
            w.num_partitions() - 1
        );
    }

    #[test]
    fn quarantine_rides_the_log_through_detection_and_repair() {
        let cfg = log_config(3, 64);
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(256), cfg.clone());
        let mut log = ManifestLog::create(&w).unwrap();
        for s in 0..4u64 {
            w.add_batch((0..62).map(|i| s * 62 + i).collect()).unwrap();
            log.append(&w).unwrap();
        }
        // Rot a block; the scrub's verify pass quarantines the partition
        // and the next append records it as a Quarantine record.
        let file = w.partitions_newest_first()[0].run.file();
        let dev = Arc::clone(w.device());
        let mut buf = vec![0u8; dev.block_size()];
        let got = dev.read_block(file, 1, &mut buf).unwrap();
        buf[got / 2] ^= 0x01;
        dev.write_block(file, 1, &buf[..got]).unwrap();
        assert_eq!(w.scrub(1_000).unwrap().quarantined_after, 1);
        w.add_batch((500..562u64).collect()).unwrap();
        log.append(&w).unwrap();
        let mid: Warehouse<u64, MemDevice> =
            recover(Arc::clone(&dev), cfg.clone(), log.file()).unwrap();
        assert_eq!(mid.quarantined_files(), vec![file]);
        assert_eq!(mid.quarantined_mass(), w.quarantined_mass());

        // Repair, append again: replay must land on the healed state —
        // suspect file gone, only the confirmed loss remaining.
        let healed = w.scrub(1_000).unwrap();
        assert_eq!(healed.partitions_repaired, 1);
        w.add_batch((600..662u64).collect()).unwrap();
        log.append(&w).unwrap();
        let end: Warehouse<u64, MemDevice> = recover(Arc::clone(&dev), cfg, log.file()).unwrap();
        assert!(end.quarantined_files().is_empty());
        assert_eq!(end.lost_items(), healed.items_lost);
        assert_eq!(end.total_len(), w.total_len());
        end.check_invariants().unwrap();
    }

    #[test]
    fn engine_manifest_roundtrips_stream_state() {
        // persist() mid-step: the recovered engine must hold the same
        // sketch, staging and segment boundaries, for both backends.
        for kind in [hsq_sketch::SketchKind::Gk, hsq_sketch::SketchKind::Kll] {
            let cfg = HsqConfig::builder()
                .epsilon(0.1)
                .merge_threshold(3)
                .sketch(kind)
                .build();
            let dev = MemDevice::new(256);
            let mut engine =
                crate::engine::HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg.clone());
            for s in 0..4u64 {
                engine
                    .ingest_step(&(s * 100..s * 100 + 100).collect::<Vec<_>>())
                    .unwrap();
            }
            // Mid-step state: one sorted batch segment + a scalar tail.
            engine.stream_extend(&(400..450u64).collect::<Vec<_>>());
            for v in [777u64, 5, 450] {
                engine.stream_update(v);
            }
            let manifest = engine.persist().unwrap();
            let recovered =
                crate::engine::HistStreamQuantiles::<u64, _>::recover(dev, cfg, manifest).unwrap();
            assert_eq!(recovered.stream_len(), engine.stream_len());
            assert_eq!(recovered.total_len(), engine.total_len());
            assert_eq!(recovered.stream().sketch().kind(), kind);
            for phi in [0.1, 0.5, 0.9, 1.0] {
                assert_eq!(
                    recovered.quantile(phi).unwrap(),
                    engine.quantile(phi).unwrap(),
                    "kind {kind}, phi {phi}"
                );
            }
        }
    }

    #[test]
    fn engine_manifest_recovers_under_other_backend() {
        // A GK-written stream recovers under a KLL-configured build (and
        // vice versa): the persisted sketch is used as-is, the configured
        // backend takes over at the next step boundary.
        for (wrote, reopens) in [
            (hsq_sketch::SketchKind::Gk, hsq_sketch::SketchKind::Kll),
            (hsq_sketch::SketchKind::Kll, hsq_sketch::SketchKind::Gk),
        ] {
            let cfg = |k| {
                HsqConfig::builder()
                    .epsilon(0.1)
                    .merge_threshold(3)
                    .sketch(k)
                    .build()
            };
            let dev = MemDevice::new(256);
            let mut engine =
                crate::engine::HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg(wrote));
            engine
                .ingest_step(&(0..300u64).collect::<Vec<_>>())
                .unwrap();
            engine.stream_extend(&(300..400u64).collect::<Vec<_>>());
            let manifest = engine.persist().unwrap();
            let mut recovered =
                crate::engine::HistStreamQuantiles::<u64, _>::recover(dev, cfg(reopens), manifest)
                    .unwrap();
            assert_eq!(recovered.stream().sketch().kind(), wrote);
            assert_eq!(
                recovered.quantile(0.5).unwrap(),
                engine.quantile(0.5).unwrap()
            );
            // The interrupted step finishes; the configured backend takes
            // over from the reset.
            recovered.end_time_step().unwrap();
            assert_eq!(recovered.stream().sketch().kind(), reopens);
            assert_eq!(recovered.historical_len(), 400);
        }
    }

    #[test]
    fn kll_stream_resumes_mid_step() {
        // Persist mid-step under KLL, recover, and run both engines
        // through the same suffix: the recovered parity mask must continue
        // the exact compaction schedule, so the two sketches stay
        // byte-identical.
        let cfg = HsqConfig::builder()
            .epsilon(0.05)
            .merge_threshold(3)
            .sketch(hsq_sketch::SketchKind::Kll)
            .build();
        let dev = MemDevice::new(256);
        let mut engine =
            crate::engine::HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg.clone());
        let data: Vec<u64> = (0..30_000u64)
            .map(|i| i.wrapping_mul(2654435761) % 100_000)
            .collect();
        engine.stream_extend(&data[..20_000]);
        let manifest = engine.persist().unwrap();
        let mut recovered =
            crate::engine::HistStreamQuantiles::<u64, _>::recover(dev, cfg, manifest).unwrap();
        engine.stream_extend(&data[20_000..]);
        recovered.stream_extend(&data[20_000..]);
        match (engine.stream().sketch(), recovered.stream().sketch()) {
            (AnySketch::Kll(x), AnySketch::Kll(y)) => {
                assert_eq!(x.parity_mask(), y.parity_mask(), "parity must resume");
                assert_eq!(x.raw_levels(), y.raw_levels());
                assert_eq!(x.tracked_err(), y.tracked_err());
            }
            _ => panic!("expected KLL on both sides"),
        }
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(
                engine.quantile(phi).unwrap(),
                recovered.quantile(phi).unwrap()
            );
        }
    }

    #[test]
    fn nonzero_kll_reserved_words_rejected() {
        // A log whose `Base` carries a one-item KLL stream tail; only its
        // three reserved words vary. All-zero recovers, anything else (a
        // randomized-compaction descriptor) is refused.
        let dev = MemDevice::new(256);
        let image = |reserved: [u64; 3]| {
            let mut base = empty_base();
            kll_stream_tail(&mut base, reserved);
            write_image(&dev, &log_image(&[(REC_BASE, &base)]))
        };
        let cfg = HsqConfig::with_epsilon(0.1);
        let (_, stream) =
            replay_log::<u64, _>(Arc::clone(&dev), cfg.clone(), image([0, 0, 0])).unwrap();
        assert_eq!(stream.unwrap().staging, vec![42]);
        for reserved in [[1, 7, 0], [1, 7, 0x9E37], [0, 0, 5]] {
            let err = recover::<u64, _>(Arc::clone(&dev), cfg.clone(), image(reserved))
                .err()
                .unwrap();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{reserved:?}");
            assert!(err.to_string().contains("randomized"), "{err}");
        }
    }

    #[test]
    fn overflowing_gk_delta_recovers_as_corrupt() {
        // A log whose `Base` carries a two-tuple GK stream tail whose
        // second tuple's Δ varies. `Σg + Δ` must fit in u64 — every rank
        // query computes it — so Δ = u64::MAX is a typed corrupt error,
        // not a panic or an `rmax < rmin` answer.
        let dev = MemDevice::new(256);
        let image = |delta: u64| {
            let mut out = empty_base();
            out.u64(SKETCH_GK);
            out.u64(0.05f64.to_bits());
            out.u64(2); // n
            out.item(10u64); // min
            out.item(20u64); // max
            out.u64(2); // tuples
            for (v, g, d) in [(10u64, 1, 0), (20, 1, delta)] {
                out.item(v);
                out.u64(g);
                out.u64(d);
            }
            out.u64(2); // staging
            out.item(10u64);
            out.item(20u64);
            out.u64(1); // segments
            out.u64(2);
            write_image(&dev, &log_image(&[(REC_BASE, &out)]))
        };
        let cfg = HsqConfig::with_epsilon(0.1);
        let h = crate::engine::HistStreamQuantiles::<u64, _>::recover(
            Arc::clone(&dev),
            cfg.clone(),
            image(0),
        )
        .unwrap();
        assert_eq!(h.quantile(1.0).unwrap(), Some(20));
        let err = recover::<u64, _>(Arc::clone(&dev), cfg, image(u64::MAX))
            .err()
            .unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn future_version_rejected() {
        // Only the current version is read: older images (versions 1–3)
        // are rejected exactly like a future one.
        let dev = MemDevice::new(256);
        let cfg = HsqConfig::with_epsilon(0.1);
        let mut img = log_image(&[(REC_BASE, &empty_base())]);
        recover::<u64, _>(Arc::clone(&dev), cfg.clone(), write_image(&dev, &img)).unwrap();
        for version in [1, 2, 3, VERSION + 1] {
            img[4..12].copy_from_slice(&version.to_le_bytes());
            let file = write_image(&dev, &img);
            let err = recover::<u64, _>(Arc::clone(&dev), cfg.clone(), file).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "version {version}");
        }
    }

    #[test]
    fn snapshot_format_image_rejected() {
        // The retired `HSQM` snapshot format (here an empty warehouse, no
        // stream) no longer decodes.
        let dev = MemDevice::new(256);
        let mut out = Writer::new();
        out.buf.extend_from_slice(b"HSQM");
        for word in [VERSION, 8, 0, 0, 0, 0, 0, 0] {
            out.u64(word);
        }
        crc::seal(&mut out.buf);
        let file = write_image(&dev, &out.buf);
        let err =
            recover::<u64, _>(Arc::clone(&dev), HsqConfig::with_epsilon(0.1), file).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn stream_tail_must_end_the_log() {
        // A stream tail fills its `Base` exactly, and nothing follows a
        // stream-carrying `Base`: a mid-step state cannot take deltas.
        let dev = MemDevice::new(256);
        let cfg = HsqConfig::with_epsilon(0.1);
        let base = |extra: &[u64]| {
            let mut out = empty_base();
            kll_stream_tail(&mut out, [0; 3]);
            for &w in extra {
                out.u64(w);
            }
            out
        };
        let mut delta = Writer::new();
        for word in [1, 0, 0, 0] {
            delta.u64(word); // steps, total_len, removed, added
        }
        let ok = write_image(&dev, &log_image(&[(REC_BASE, &base(&[]))]));
        assert!(replay_log::<u64, _>(Arc::clone(&dev), cfg.clone(), ok)
            .unwrap()
            .1
            .is_some());
        for (what, img) in [
            ("trailing word", log_image(&[(REC_BASE, &base(&[7]))])),
            (
                "delta after stream",
                log_image(&[(REC_BASE, &base(&[])), (REC_DELTA, &delta)]),
            ),
        ] {
            let err = recover::<u64, _>(Arc::clone(&dev), cfg.clone(), write_image(&dev, &img))
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        }
    }

    #[test]
    fn corrupt_stream_tail_fails_recovery() {
        // The stream tail sits inside its `Base` record's CRC: a flipped
        // byte there leaves no valid record, rather than a warehouse
        // recovered without its stream.
        let cfg = HsqConfig::builder().epsilon(0.1).merge_threshold(3).build();
        let dev = MemDevice::new(256);
        let mut engine =
            crate::engine::HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg.clone());
        engine
            .ingest_step(&(0..300u64).collect::<Vec<_>>())
            .unwrap();
        engine.stream_extend(&(300..400u64).collect::<Vec<_>>());
        let mut img = read_image(&dev, engine.persist().unwrap());
        let body_len = u64::from_le_bytes(img[256..264].try_into().unwrap()) as usize;
        // The payload's last byte: the final staging segment's end.
        img[264 + body_len - 9] ^= 0x01;
        let err = crate::engine::HistStreamQuantiles::<u64, _>::recover(
            Arc::clone(&dev),
            cfg,
            write_image(&dev, &img),
        )
        .err()
        .unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("no valid records"), "{err}");
    }

    #[test]
    fn partition_level_out_of_range_rejected() {
        // A CRC-valid log naming an existing run at a crafted level: level
        // 0 recovers, a level no warehouse reaches is refused before it
        // sizes the recovered level vector.
        let cfg = HsqConfig::with_epsilon(0.1);
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(256), cfg.clone());
        w.add_batch((0..200).collect()).unwrap();
        let dev = w.device();
        let image = |level: u64| {
            let mut base = Writer::new();
            base.u64(w.steps());
            base.u64(w.total_len());
            encode_quarantine(&mut base, 0, &[]);
            base.u64(1);
            encode_partition(&mut base, level, &w.level(0)[0]);
            write_image(dev, &log_image(&[(REC_BASE, &base)]))
        };
        recover::<u64, _>(Arc::clone(dev), cfg.clone(), image(0)).unwrap();
        for level in [64, 1 << 40, u64::MAX] {
            let err = recover::<u64, _>(Arc::clone(dev), cfg.clone(), image(level)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "level {level}");
            assert!(err.to_string().contains("level out of range"), "{err}");
        }
    }

    #[test]
    fn log_create_writes_the_shipped_bytes() {
        // `ManifestLog` output is pinned: length and CRC64 of the log
        // `create` writes over a fixed warehouse.
        let w = build(2);
        let log = ManifestLog::create(&w).unwrap();
        let img = read_image(w.device(), log.file());
        assert_eq!(
            (img.len(), hsq_storage::crc64(&img)),
            (2048, 0x28e2_6719_010d_1c5a)
        );
    }

    #[test]
    fn truncated_or_bit_flipped_images_never_panic() {
        // One decoder reads every manifest: here a multi-record log and a
        // persisted mid-step engine (one `Base` with a stream tail). Every
        // strict prefix and every probed single-bit flip is rejected or
        // recovers a state the image recorded — a flip may roll the log
        // back to an earlier record or land in padding — never a panic,
        // never an invalid warehouse. An error is a clean rejection
        // (InvalidData for garbled bytes, NotFound when a flipped file id
        // dangles).
        type Engine = crate::engine::HistStreamQuantiles<u64, MemDevice>;
        let cfg = log_config(3, 64);
        let dev = MemDevice::new(256);
        let state = |e: &Engine| (e.warehouse().steps(), e.historical_len(), e.stream_len());
        let mut engine = Engine::new(Arc::clone(&dev), cfg.clone());
        let mut log = ManifestLog::create(engine.warehouse()).unwrap();
        let mut logged = vec![state(&engine)];
        for s in 0..6u64 {
            engine
                .ingest_step(&(s * 60..s * 60 + 60).collect::<Vec<_>>())
                .unwrap();
            log.append(engine.warehouse()).unwrap();
            logged.push(state(&engine));
        }
        engine.stream_extend(&(1_000..1_050u64).collect::<Vec<_>>());
        let persisted = engine.persist().unwrap();
        for (file, states) in [(log.file(), logged), (persisted, vec![state(&engine)])] {
            let raw = read_image(&dev, file);
            let check = |img: &[u8], what: &dyn Fn() -> String| {
                let f = write_image(&dev, img);
                if let Ok(r) = Engine::recover(Arc::clone(&dev), cfg.clone(), f) {
                    r.warehouse().check_invariants().unwrap();
                    assert!(states.contains(&state(&r)), "{}: unrecorded state", what());
                }
                dev.delete(f).unwrap();
            };
            for len in 0..raw.len() {
                check(&raw[..len], &|| format!("{len}-byte prefix"));
            }
            for pos in (0..raw.len()).step_by(7) {
                let mut img = raw.clone();
                img[pos] ^= 1 << (pos % 8);
                check(&img, &|| format!("bit flip at byte {pos}"));
            }
        }
    }
}
