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
//! Two on-disk forms share one partition codec:
//!
//! **Snapshot manifest** (magic `HSQM`) — one self-contained state dump,
//! written by [`persist`] / [`persist_snapshot`]:
//!
//! ```text
//! magic "HSQM"  version  item_width  steps  total_len
//! quarantine: lost_items num_files file*
//! num_partitions
//! per partition:
//!   format  level  file_id  run_len  first_step  last_step  min  max
//!   num_entries  (value rank block)*
//! stream_flag (0|1); if 1:
//!   kind  epsilon  n  [min max]  sketch payload (GK tuples | KLL levels
//!   + three reserved words, must be 0)
//!   num_staged  item*  num_segments  segment_end*
//! crc64 (of everything above)
//! ```
//!
//! **Manifest log** (magic `HSQL`) — an append-only record stream kept by
//! [`ManifestLog`] for long-running engines: one `Base` record (a full
//! state dump) followed by per-step `Delta` records (partitions added,
//! files retired — by cascade merges *or* retention expiry). Records are
//! block-aligned and individually CRC-framed, so a torn tail record (a
//! crash mid-append) is detected and ignored on replay. Because every
//! step appends a bounded delta while retention retires old partitions,
//! the log grows without bound unless compacted:
//! [`ManifestLog::compact`] rewrites a fresh `Base` of only the *live*
//! partitions into a **new** file and hands the old log back to the
//! caller for deletion — recovery then replays live partitions only.
//! The two-file handoff is crash-safe: until the caller durably records
//! the new log's id and deletes the old one, both files recover to
//! identical states.
//!
//! The log follows **write-ahead discipline** via the warehouse's pin
//! registry: every partition file the last durable record references is
//! pinned, so deletions a step defers (cascade merges, retention expiry)
//! only execute *after* the record superseding them is appended **and
//! synced** ([`hsq_storage::BlockDevice::sync`] — an fsync barrier on
//! [`hsq_storage::FileDevice`]). A crash at any point — process death or
//! power loss — therefore leaves a log whose referenced files all exist:
//! recovery never dangles. Orderly shutdown protocol: append (or
//! compact) at the final step boundary, then drop the log; dropping
//! releases the pins, deleting only files already superseded by the
//! last record.
//!
//! [`recover`] accepts either form (it dispatches on the magic), so
//! engine-level recovery is oblivious to which one produced the file.
//!
//! The snapshot manifest carries an optional **stream section** after the
//! partition list: the live sketch (kind-tagged — GK tuples or KLL
//! compactor levels, per [`hsq_sketch::SketchKind`]) plus the staging
//! buffer with its sorted-segment boundaries. The engine-level
//! [`crate::engine::HistStreamQuantiles::persist`] writes it, so recovery
//! resumes *mid-step* with identical query answers — whichever sketch
//! backend wrote the state, under whichever backend recovers it.
//! Warehouse-level [`persist`] / [`persist_snapshot`] write warehouse-only
//! manifests (stream flag 0), which recover with an empty stream — the
//! paper's §1.1 model, where un-archived data is the volatile stream and
//! recovery is at time-step granularity.
//!
//! Both forms are at format version 4, the only version read: older or
//! newer files are rejected with `InvalidData`.

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::Arc;

use hsq_sketch::{AnySketch, GkSketch, KllSketch, QuantileSketch, SketchKind};
use hsq_storage::{crc, BlockDevice, FileId, Item, SortedRun};

use crate::config::HsqConfig;
use crate::stream::StreamProcessor;
use crate::summary::{PartitionSummary, SummaryEntry};
use crate::warehouse::{StoredPartition, Warehouse};

const MAGIC: &[u8; 4] = b"HSQM";
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

/// Serialize the warehouse's metadata into a new file on its device;
/// returns the manifest's [`FileId`] (persist it out of band, e.g. in a
/// config file — it is the only thing recovery needs besides the device).
pub fn persist<T: Item, D: BlockDevice>(w: &Warehouse<T, D>) -> io::Result<FileId> {
    let mut parts: Vec<(u64, &StoredPartition<T>)> = Vec::new();
    for level in 0..w.num_levels() {
        for p in w.level(level) {
            parts.push((level as u64, p));
        }
    }
    write_manifest(
        &**w.device(),
        w.steps(),
        w.total_len(),
        w.lost_items(),
        &w.quarantined_files(),
        &parts,
        None,
    )
}

/// Serialize an [`crate::engine::EngineSnapshot`]'s pinned partition list
/// as a manifest on the snapshot's device: a *consistent online backup*
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
    let parts: Vec<(u64, &StoredPartition<T>)> = snap
        .leveled_partitions()
        .iter()
        .map(|(l, p)| (*l as u64, p))
        .collect();
    write_manifest(
        &**snap.device(),
        snap.steps(),
        snap.historical_len(),
        snap.lost_items(),
        snap.quarantined_files(),
        &parts,
        None,
    )
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
    let level = r.u64()? as usize;
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
        level,
        StoredPartition {
            run: SortedRun::from_raw_parts(file, run_len, min, max),
            summary: PartitionSummary::from_raw_parts(entries, run_len),
            first_step,
            last_step,
        },
    ))
}

/// Decode a quarantine block (`lost_items`, count, file ids) — shared by
/// the snapshot header, `Base` payload, and `Quarantine` record.
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

/// Borrowed live-stream state handed to [`persist_engine`]'s serializer.
struct StreamRefs<'a, T: Item> {
    proc: &'a StreamProcessor<T>,
    staging: &'a [T],
    segments: &'a [usize],
}

/// A stream state decoded from an engine manifest: the live sketch
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
    let mut parts: Vec<(u64, &StoredPartition<T>)> = Vec::new();
    for level in 0..w.num_levels() {
        for p in w.level(level) {
            parts.push((level as u64, p));
        }
    }
    write_manifest(
        &**w.device(),
        w.steps(),
        w.total_len(),
        w.lost_items(),
        &w.quarantined_files(),
        &parts,
        Some(StreamRefs {
            proc,
            staging,
            segments,
        }),
    )
}

/// Check that every live partition's backing file exists, then rebuild
/// the warehouse and verify its structural invariants.
fn validate_and_build<T: Item, D: BlockDevice>(
    dev: Arc<D>,
    config: HsqConfig,
    partitions: Vec<(usize, StoredPartition<T>)>,
    steps: u64,
    total_len: u64,
    quarantine: QuarantineParts,
) -> io::Result<Warehouse<T, D>> {
    for (_, p) in &partitions {
        let file_blocks = dev.num_blocks(p.run.file())?;
        if file_blocks == 0 && !p.run.is_empty() {
            return Err(corrupt("partition file missing or empty"));
        }
    }
    let w = Warehouse::from_recovered_parts(dev, config, partitions, steps, total_len);
    // Install quarantine before checking invariants: a quarantined level
    // is legitimately allowed to exceed the merge threshold.
    let (lost, files) = quarantine;
    w.set_quarantine(lost, files);
    w.check_invariants()
        .map_err(|e| corrupt(&format!("recovered state invalid: {e}")))?;
    Ok(w)
}

/// Shared serializer behind [`persist`], [`persist_snapshot`] and
/// [`persist_engine`] (the only caller passing a stream section).
fn write_manifest<T: Item, D: BlockDevice>(
    dev: &D,
    steps: u64,
    total_len: u64,
    lost_items: u64,
    quarantined: &[FileId],
    parts: &[(u64, &StoredPartition<T>)],
    stream: Option<StreamRefs<'_, T>>,
) -> io::Result<FileId> {
    let mut out = Writer::new();
    out.buf.extend_from_slice(MAGIC);
    out.u64(VERSION);
    out.u64(T::ENCODED_LEN as u64);
    out.u64(steps);
    out.u64(total_len);
    encode_quarantine(&mut out, lost_items, quarantined);

    out.u64(parts.len() as u64);
    for &(level, p) in parts {
        encode_partition(&mut out, level, p);
    }
    match &stream {
        Some(s) => {
            out.u64(1);
            encode_stream_state(&mut out, s);
        }
        None => out.u64(0),
    }
    crc::seal(&mut out.buf);

    // Write-ahead, as for log records: every run the manifest names is
    // durable before the manifest lands, in file-id order.
    let mut runs: Vec<FileId> = parts.iter().map(|(_, p)| p.run.file()).collect();
    runs.sort_unstable();
    for f in runs {
        dev.sync(f)?;
    }
    // Write chunked into device blocks, then make the manifest durable.
    let file = dev.create()?;
    for (i, chunk) in out.buf.chunks(dev.block_size()).enumerate() {
        dev.write_block(file, i as u64, chunk)?;
    }
    dev.sync(file)?;
    Ok(file)
}

/// Reopen a warehouse from a [`persist`]ed snapshot manifest **or** a
/// [`ManifestLog`] file (dispatches on the magic).
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
    recover_with_stream(dev, config, manifest).map(|(w, _)| w)
}

/// [`recover`], additionally returning the stream section when the
/// manifest carries one (engine manifests) — the full path
/// behind [`crate::engine::HistStreamQuantiles::recover`].
#[allow(clippy::type_complexity)]
pub(crate) fn recover_with_stream<T: Item, D: BlockDevice>(
    dev: Arc<D>,
    config: HsqConfig,
    manifest: FileId,
) -> io::Result<(Warehouse<T, D>, Option<RecoveredStream<T>>)> {
    // Read the manifest file fully.
    let blocks = dev.num_blocks(manifest)?;
    let mut raw = Vec::with_capacity((blocks as usize) * dev.block_size());
    let mut buf = vec![0u8; dev.block_size()];
    for b in 0..blocks {
        let got = dev.read_block(manifest, b, &mut buf)?;
        raw.extend_from_slice(&buf[..got]);
    }
    if raw.len() >= 4 && &raw[..4] == LOG_MAGIC {
        // Log records never carry a stream section: logs checkpoint at
        // step boundaries, where the stream is empty by definition.
        return replay_log(dev, config, &raw).map(|w| (w, None));
    }
    if raw.len() < 4 + 8 || &raw[..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let body = crc::open(&raw).map_err(|_| corrupt("checksum mismatch"))?;
    let mut r = Reader { buf: body, pos: 4 };
    if r.u64()? != VERSION {
        return Err(corrupt("unsupported version"));
    }
    if r.u64()? != T::ENCODED_LEN as u64 {
        return Err(corrupt("item width mismatch"));
    }
    let steps = r.u64()?;
    let total_len = r.u64()?;
    let quarantine = decode_quarantine(&mut r)?;
    let num_parts = r.u64()?;

    let mut partitions: Vec<(usize, StoredPartition<T>)> = Vec::new();
    for _ in 0..num_parts {
        partitions.push(decode_partition(&mut r)?);
    }
    let stream = match r.u64()? {
        0 => None,
        1 => Some(decode_stream_state(&mut r, &config)?),
        _ => return Err(corrupt("bad stream flag")),
    };
    let w = validate_and_build(dev, config, partitions, steps, total_len, quarantine)?;
    Ok((w, stream))
}

/// Replay an `HSQL` log image: apply the `Base` record then every valid
/// `Delta`, stopping cleanly at a torn tail record.
fn replay_log<T: Item, D: BlockDevice>(
    dev: Arc<D>,
    config: HsqConfig,
    raw: &[u8],
) -> io::Result<Warehouse<T, D>> {
    let bs = dev.block_size();
    // Header block: magic, version, item width.
    let mut header = Reader { buf: raw, pos: 4 };
    if header.u64()? != VERSION {
        return Err(corrupt("unsupported log version"));
    }
    if header.u64()? != T::ENCODED_LEN as u64 {
        return Err(corrupt("item width mismatch"));
    }

    let mut state: HashMap<FileId, (usize, StoredPartition<T>)> = HashMap::new();
    let mut steps = 0u64;
    let mut total_len = 0u64;
    let mut quarantine: QuarantineParts = (0, Vec::new());
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
        let mut r = Reader { buf: body, pos: 0 };
        let kind = r.u64()?;
        match kind {
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
    let partitions: Vec<(usize, StoredPartition<T>)> = state.into_values().collect();
    validate_and_build(dev, config, partitions, steps, total_len, quarantine)
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
    /// Start a new log on the warehouse's device, writing the header and
    /// a `Base` record of the warehouse's current state.
    pub fn create(w: &Warehouse<T, D>) -> io::Result<Self> {
        let dev = Arc::clone(w.device());
        let file = dev.create()?;
        let mut log = ManifestLog {
            dev,
            file,
            next_block: 0,
            blocking_syncs: 0,
            known: HashSet::new(),
            guard: None,
            delta_records: 0,
            last_quarantine: (0, Vec::new()),
            _t: std::marker::PhantomData,
        };
        log.write_header()?;
        log.write_base(w)?;
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

    /// The write-ahead rule for every record, `Base` or `Delta`: before
    /// it lands, make durable each file of `referenced` that no earlier
    /// record named (those were synced when they were first named). One
    /// blocking `sync` per such file, in file-id order.
    fn sync_new_files(&mut self, referenced: impl IntoIterator<Item = FileId>) -> io::Result<()> {
        let mut fresh: Vec<FileId> = referenced
            .into_iter()
            .filter(|f| !self.known.contains(f))
            .collect();
        fresh.sort_unstable();
        for f in fresh {
            self.dev.sync(f)?;
            self.blocking_syncs += 1;
        }
        Ok(())
    }

    /// The durability barrier on the log file itself, after a record is
    /// written.
    fn sync_log(&mut self) -> io::Result<()> {
        self.dev.sync(self.file)?;
        self.blocking_syncs += 1;
        Ok(())
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

    fn write_header(&mut self) -> io::Result<()> {
        let mut out = Writer::new();
        out.buf.extend_from_slice(LOG_MAGIC);
        out.u64(VERSION);
        out.u64(T::ENCODED_LEN as u64);
        self.write_padded_blocks(&out.buf)
    }

    /// Frame `payload` as one record (`len | kind+payload | crc`) and
    /// append it on a fresh block boundary.
    fn write_record(&mut self, kind: u64, payload: &[u8]) -> io::Result<()> {
        let mut body = Writer::new();
        body.u64(kind);
        body.buf.extend_from_slice(payload);
        crc::seal(&mut body.buf);
        let mut framed = Writer::new();
        framed.u64(body.buf.len() as u64);
        framed.buf.extend_from_slice(&body.buf);
        self.write_padded_blocks(&framed.buf)
    }

    /// Write `buf` as whole zero-padded blocks (the device only allows a
    /// short block at the very end of a file, and the log keeps
    /// appending).
    fn write_padded_blocks(&mut self, buf: &[u8]) -> io::Result<()> {
        let bs = self.dev.block_size();
        let mut block = vec![0u8; bs];
        for chunk in buf.chunks(bs) {
            block[..chunk.len()].copy_from_slice(chunk);
            block[chunk.len()..].fill(0);
            self.dev.write_block(self.file, self.next_block, &block)?;
            self.next_block += 1;
        }
        Ok(())
    }

    fn encode_state(w: &Warehouse<T, D>) -> (Vec<u8>, HashSet<FileId>) {
        let mut out = Writer::new();
        out.u64(w.steps());
        out.u64(w.total_len());
        encode_quarantine(&mut out, w.lost_items(), &w.quarantined_files());
        let mut parts: Vec<(u64, &StoredPartition<T>)> = Vec::new();
        for level in 0..w.num_levels() {
            for p in w.level(level) {
                parts.push((level as u64, p));
            }
        }
        out.u64(parts.len() as u64);
        let mut files = HashSet::with_capacity(parts.len());
        for &(level, p) in &parts {
            encode_partition(&mut out, level, p);
            files.insert(p.run.file());
        }
        (out.buf, files)
    }

    fn write_base(&mut self, w: &Warehouse<T, D>) -> io::Result<()> {
        let (payload, files) = Self::encode_state(w);
        self.sync_new_files(files.iter().copied())?;
        self.write_record(REC_BASE, &payload)?;
        // Durability barrier before acting on the record: pins are only
        // released (deleting superseded files) once the record that
        // supersedes them has actually reached storage.
        self.sync_log()?;
        // Pin the newly referenced set *before* releasing the previous
        // pins, so no referenced file is ever deletable in between.
        let new_guard = w.pin_files(files.iter().copied().collect());
        self.guard = Some(new_guard);
        self.known = files;
        self.delta_records = 0;
        self.last_quarantine = (w.lost_items(), w.quarantined_files());
        Ok(())
    }

    /// Append a `Delta` record capturing every partition added or retired
    /// (by merges or retention) since the last record. Call once per
    /// archived step, after
    /// [`crate::engine::HistStreamQuantiles::end_time_step`]. A no-change
    /// step still appends (it advances the recovered step clock).
    pub fn append(&mut self, w: &Warehouse<T, D>) -> io::Result<()> {
        let mut current: HashMap<FileId, (u64, &StoredPartition<T>)> = HashMap::new();
        for level in 0..w.num_levels() {
            for p in w.level(level) {
                current.insert(p.run.file(), (level as u64, p));
            }
        }
        let removed: Vec<FileId> = self
            .known
            .iter()
            .copied()
            .filter(|f| !current.contains_key(f))
            .collect();
        let added: Vec<(u64, &StoredPartition<T>)> = current
            .iter()
            .filter(|(f, _)| !self.known.contains(*f))
            .map(|(_, &(l, p))| (l, p))
            .collect();

        // A record must never reference a partition whose data could be
        // lost with it: the added runs reach durable storage before the
        // record lands.
        self.sync_new_files(added.iter().map(|&(_, p)| p.run.file()))?;

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
        self.write_record(REC_DELTA, &out.buf)?;
        // Quarantine changes (scrub repairs, new corruption finds) ride
        // as a full-state record whenever the state moved since the last
        // record — replayed by replacement, so one record suffices.
        let quarantine = (w.lost_items(), w.quarantined_files());
        if quarantine != self.last_quarantine {
            let mut q = Writer::new();
            encode_quarantine(&mut q, quarantine.0, &quarantine.1);
            self.write_record(REC_QUARANTINE, &q.buf)?;
            self.last_quarantine = quarantine;
        }
        // Durability barrier, then swap pins: the delta is on storage, so
        // re-pin the now-referenced set and drop the old pins — which
        // executes the deletions this step's merges and retention
        // deferred on the log's behalf.
        self.sync_log()?;
        let new_guard = w.pin_files(current.keys().copied().collect());
        self.guard = Some(new_guard);
        self.known = current.keys().copied().collect();
        self.delta_records += 1;
        Ok(())
    }

    /// Compact: write the warehouse's current state as a fresh `Base`
    /// into a **new** log file and switch this handle to it. Returns the
    /// *old* log's file id, which the caller deletes once the new id is
    /// durably recorded — until then both files recover to the same
    /// state, so a crash anywhere in the handoff loses nothing.
    pub fn compact(&mut self, w: &Warehouse<T, D>) -> io::Result<FileId> {
        let old = self.file;
        self.file = self.dev.create()?;
        self.next_block = 0;
        self.write_header()?;
        self.write_base(w)?;
        Ok(old)
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
        let manifest = persist_snapshot(&snap).unwrap();
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
        // Flip a byte in the middle of the manifest.
        let dev = w.device();
        let mut buf = vec![0u8; dev.block_size()];
        let got = dev.read_block(manifest, 0, &mut buf).unwrap();
        buf[got / 2] ^= 0xFF;
        dev.write_block(manifest, 0, &buf[..got]).unwrap();
        let cfg = HsqConfig::with_epsilon(0.1);
        let err = recover::<u64, _>(Arc::clone(dev), cfg, manifest).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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
        // The snapshot manifest follows the same write-ahead rule: every
        // run it names is made durable, then the manifest itself.
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
        // Engine::recover dispatches on the magic: a log file works in
        // place of a snapshot manifest.
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
        // A CRC-valid engine image holding a one-item KLL stream sketch;
        // only its three reserved words vary. All-zero recovers, anything
        // else (a randomized-compaction descriptor) is refused.
        let dev = MemDevice::new(256);
        let image = |reserved: [u64; 3]| {
            let mut out = Writer::new();
            out.buf.extend_from_slice(MAGIC);
            out.u64(VERSION);
            out.u64(8);
            out.u64(0); // steps
            out.u64(0); // total_len
            encode_quarantine(&mut out, 0, &[]);
            out.u64(0); // partitions
            out.u64(1); // stream section
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
            crc::seal(&mut out.buf);
            write_image(&dev, &out.buf)
        };
        let cfg = HsqConfig::with_epsilon(0.1);
        let (_, stream) =
            recover_with_stream::<u64, _>(Arc::clone(&dev), cfg.clone(), image([0, 0, 0])).unwrap();
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
        // A CRC-valid engine image holding a two-tuple GK stream sketch
        // whose second tuple's Δ varies. `Σg + Δ` must fit in u64 — every
        // rank query computes it — so Δ = u64::MAX is a typed corrupt
        // error, not a panic or an `rmax < rmin` answer.
        let dev = MemDevice::new(256);
        let image = |delta: u64| {
            let mut out = Writer::new();
            out.buf.extend_from_slice(MAGIC);
            out.u64(VERSION);
            out.u64(8);
            out.u64(0); // steps
            out.u64(0); // total_len
            encode_quarantine(&mut out, 0, &[]);
            out.u64(0); // partitions
            out.u64(1); // stream section
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
            crc::seal(&mut out.buf);
            write_image(&dev, &out.buf)
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
        for version in [1, 2, 3, VERSION + 1] {
            let mut out = Writer::new();
            out.buf.extend_from_slice(MAGIC);
            out.u64(version);
            out.u64(8);
            out.u64(0);
            out.u64(0);
            out.u64(0);
            crc::seal(&mut out.buf);
            let file = write_image(&dev, &out.buf);
            let err = recover::<u64, _>(Arc::clone(&dev), HsqConfig::with_epsilon(0.1), file)
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "version {version}");
        }
    }

    #[test]
    fn truncated_manifest_never_panics() {
        // Fuzz-style sweep: every strict prefix of a valid snapshot
        // manifest must be rejected with an error — never a panic, never
        // a bogus warehouse.
        let w = build(2);
        let manifest = persist(&w).unwrap();
        let dev = w.device();
        let raw = read_image(dev, manifest);
        let cfg = HsqConfig::with_epsilon(0.1);
        for len in 0..raw.len() {
            let trunc = write_image(dev, &raw[..len]);
            assert!(
                recover::<u64, _>(Arc::clone(dev), cfg.clone(), trunc).is_err(),
                "a {len}-byte prefix of a {}-byte manifest must be rejected",
                raw.len()
            );
            dev.delete(trunc).unwrap();
        }
    }

    #[test]
    fn bit_flipped_manifest_never_panics() {
        // The whole-image CRC makes every single-bit flip detectable.
        let w = build(2);
        let manifest = persist(&w).unwrap();
        let dev = w.device();
        let raw = read_image(dev, manifest);
        let cfg = HsqConfig::with_epsilon(0.1);
        for pos in (0..raw.len()).step_by(7) {
            let mut img = raw.clone();
            img[pos] ^= 1 << (pos % 8);
            let f = write_image(dev, &img);
            assert!(
                recover::<u64, _>(Arc::clone(dev), cfg.clone(), f).is_err(),
                "bit flip at byte {pos} must be rejected"
            );
            dev.delete(f).unwrap();
        }
    }

    #[test]
    fn bit_flipped_log_recovers_cleanly_or_rejects() {
        // Log replay treats a record failing its CRC as a torn tail: a
        // flip may legitimately roll recovery back to an earlier record,
        // but must never panic or yield an invalid warehouse.
        let cfg = log_config(3, 64);
        let mut w = Warehouse::<u64, _>::new(MemDevice::new(256), cfg.clone());
        let mut log = ManifestLog::create(&w).unwrap();
        for s in 0..6u64 {
            w.add_batch((0..60).map(|i| s * 60 + i).collect()).unwrap();
            log.append(&w).unwrap();
        }
        let dev = w.device();
        let raw = read_image(dev, log.file());
        let final_len = w.total_len();
        for pos in (0..raw.len()).step_by(13) {
            let mut img = raw.clone();
            img[pos] ^= 1 << (pos % 8);
            let f = write_image(dev, &img);
            // An error is a clean rejection (InvalidData for garbled
            // bytes, NotFound when a flipped file id dangles).
            if let Ok(r) = recover::<u64, _>(Arc::clone(dev), cfg.clone(), f) {
                r.check_invariants().unwrap();
                assert!(
                    r.total_len() <= final_len,
                    "rolled-back state can only be a prefix of history"
                );
            }
            dev.delete(f).unwrap();
        }
    }
}
