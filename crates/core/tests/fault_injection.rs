//! Deterministic fault-injection harness for the storage path.
//!
//! The durability claim under test is the manifest log's write-ahead
//! discipline: *a [`ManifestLog`]'s last durable record never references
//! a missing partition file, at **any** crash point* — process death or
//! power loss between any two device mutations, torn final blocks
//! included.
//!
//! The harness shape:
//!
//! 1. run the append→sync→compact workload once un-faulted to learn the
//!    total mutation count `M` and the non-crashing oracle state at
//!    every step;
//! 2. for **every** crash point `k ∈ 0..=M`, rerun the workload on a
//!    fresh [`FaultDevice`] armed with `CrashAfter(k)` (or
//!    `TornWrite(k)`), "reboot" ([`FaultDevice::revive`]), recover from
//!    the manifest id the two-phase protocol had durably committed, and
//!    assert the recovered engine's quantile answers match the oracle
//!    within `ε·m` (the stream is empty after recovery, so the accurate
//!    response is exact — the bound degenerates to equality).

use std::sync::Arc;

use hsq_core::manifest::{self, ManifestLog};
use hsq_core::query::QueryContext;
use hsq_core::stream::StreamProcessor;
use hsq_core::{HsqConfig, RetentionPolicy, Warehouse};
use hsq_storage::{BlockDevice, Fault, FaultDevice, FileId, MemDevice};

type FDev = FaultDevice<MemDevice>;

const STEPS: u64 = 8;
const STEP_ITEMS: u64 = 48;
const COMPACT_EVERY: u64 = 3;

/// Aggressive everything: kappa = 2 merges constantly, a 5-step TTL
/// expires under the log's pins, compaction handoffs land mid-workload.
fn cfg() -> HsqConfig {
    HsqConfig::builder()
        .epsilon(0.1)
        .merge_threshold(2)
        .retention(RetentionPolicy::unbounded().with_max_age_steps(5))
        .build()
}

/// Step `step`'s batch (deterministic, distinct values).
fn batch(step: u64) -> Vec<u64> {
    (0..STEP_ITEMS).map(|i| step * 1_000 + i * 7).collect()
}

/// All retained data of `w`, sorted (reads every partition — which is
/// itself the "no missing file" assertion).
fn sorted_data<D: BlockDevice>(w: &Warehouse<u64, D>, label: &str) -> Vec<u64> {
    let mut all = Vec::new();
    for p in w.partitions_newest_first() {
        all.extend(
            p.run
                .read_all(&**w.device())
                .unwrap_or_else(|e| panic!("{label}: partition file unreadable: {e}")),
        );
    }
    all.sort_unstable();
    all
}

/// The non-crashing oracle: retained data after `s` steps, for every `s`.
fn oracle_states() -> Vec<Vec<u64>> {
    let mut w = Warehouse::<u64, _>::new(MemDevice::new(256), cfg());
    let mut states = vec![Vec::new()];
    for step in 1..=STEPS {
        w.add_batch(batch(step)).unwrap();
        states.push(sorted_data(&w, "oracle"));
    }
    states
}

/// Drive the workload to completion, simulating process death at the
/// end (the log's write-ahead pins are leaked via `simulate_crash` —
/// `Drop` does not run in a crash). A failed `append` or `compact` on a
/// live device is transient: that step's record is skipped and the
/// workload goes on. Any other failure, or any on a halted (crashed)
/// device, stops it. Returns the manifest id the two-phase protocol had
/// durably committed and the handle's final `log.file()`, `None` when the
/// failure preceded the first base record.
fn drive(dev: &Arc<FDev>) -> Option<(FileId, FileId)> {
    let mut w = Warehouse::<u64, _>::new(Arc::clone(dev), cfg());
    let Ok(mut log) = ManifestLog::create(&w) else {
        return None;
    };
    let mut committed = log.file();
    for step in 1..=STEPS {
        if w.add_batch(batch(step)).is_err() {
            break;
        }
        if log.append(&w).is_err() {
            if dev.halted() {
                break;
            }
            continue;
        }
        if step % COMPACT_EVERY == 0 {
            // Two-phase handoff: write the new base, durably record its
            // id "out of band" (this variable), only then delete the old
            // log. A crash anywhere in between leaves `committed` naming
            // a file that recovers.
            match log.compact(&w) {
                Ok(old) => {
                    committed = log.file();
                    if dev.delete(old).is_err() {
                        break;
                    }
                }
                Err(_) if dev.halted() => break,
                Err(_) => {}
            }
        }
    }
    let last = log.simulate_crash(); // leak the pins
    Some((committed, last))
}

/// "Reboot" the device and recover from `committed`; the recovered
/// warehouse must be structurally valid, reference no missing file, and
/// answer quantiles exactly like the oracle at its recovered step count.
fn assert_recovers(dev: &Arc<FDev>, committed: FileId, oracle: &[Vec<u64>], label: &str) {
    dev.revive();
    let cfg = cfg();
    let recovered: Warehouse<u64, FDev> =
        manifest::recover(Arc::clone(dev), cfg.clone(), committed)
            .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    recovered
        .check_invariants()
        .unwrap_or_else(|e| panic!("{label}: invariants violated: {e}"));
    let data = sorted_data(&recovered, label);
    let expect = &oracle[recovered.steps() as usize];
    assert_eq!(
        &data,
        expect,
        "{label}: recovered multiset diverges from the oracle at step {}",
        recovered.steps()
    );
    if expect.is_empty() {
        return;
    }
    // Quantile answers vs the oracle: m = 0 after recovery, so the
    // accurate response's eps*m window degenerates to exact equality.
    let ss = StreamProcessor::<u64>::new(cfg.epsilon2, cfg.beta2).summary();
    let ctx = QueryContext::new(
        &**recovered.device(),
        recovered.partitions_newest_first(),
        &ss,
        cfg.query_epsilon(),
        cfg.cache_blocks,
    );
    for phi in [0.25f64, 0.5, 0.9] {
        let r = ((phi * expect.len() as f64).ceil() as u64).max(1);
        let got = ctx
            .accurate_rank(r)
            .unwrap_or_else(|e| panic!("{label}: query failed: {e}"))
            .expect("non-empty warehouse answers");
        let dist = rank_distance(expect, got.value, r);
        assert_eq!(
            dist, 0,
            "{label}: phi={phi} answer {} off the oracle by {dist} ranks",
            got.value
        );
    }
}

/// Rank distance of `v` from the requested rank `r` in `sorted` (0 when
/// `v`'s rank interval covers `r` — Definition 1's acceptance).
fn rank_distance(sorted: &[u64], v: u64, r: u64) -> u64 {
    let hi = sorted.partition_point(|&x| x <= v) as u64;
    let lo = sorted.partition_point(|&x| x < v) as u64 + 1;
    if lo > hi {
        return r.abs_diff(hi);
    }
    if r < lo {
        lo - r
    } else {
        r.saturating_sub(hi)
    }
}

/// Sweep every mutation index with `fault_of(k)` armed: satellite 1's
/// exhaustive enumeration (the PR 3 `mem::forget` crash test generalized
/// from one hand-picked window to every op).
fn crash_sweep(fault_of: fn(u64) -> Fault) {
    let oracle = oracle_states();

    // Recording pass: no fault, learn the op-index space.
    let dev = FaultDevice::new(MemDevice::new(256));
    let (committed, _) = drive(&dev).expect("clean run commits a manifest");
    assert!(!dev.halted());
    let total = dev.mutations();
    assert!(total > 60, "workload too small to sweep: {total} ops");
    assert_recovers(&dev, committed, &oracle, "clean run");

    for k in 0..=total {
        let dev = FaultDevice::new(MemDevice::new(256));
        dev.arm(fault_of(k));
        let label = format!("{:?}", fault_of(k));
        match drive(&dev) {
            Some((committed, _)) => assert_recovers(&dev, committed, &oracle, &label),
            None => assert!(
                k <= 12,
                "{label}: only the first few ops may precede the first base"
            ),
        }
    }
}

#[test]
fn crash_point_sweep_serial() {
    crash_sweep(Fault::CrashAfter);
}

#[test]
fn torn_write_sweep_serial() {
    crash_sweep(Fault::TornWrite);
}

/// A transient (non-crash) failure surfaces as an error but never
/// corrupts: a failed `append` or `compact` leaves the log as it was, so
/// the workload goes on past it, and both the committed log and the
/// handle's final log recover — at every mutation index. An un-faulted
/// retry from the recovered state then proceeds normally.
#[test]
fn transient_fault_leaves_recoverable_state() {
    let oracle = oracle_states();
    let clean = FaultDevice::new(MemDevice::new(256));
    drive(&clean).expect("clean run commits a manifest");
    for k in 0..=clean.mutations() {
        let dev = FaultDevice::new(MemDevice::new(256));
        dev.arm(Fault::FailOp(k));
        let label = format!("FailOp({k})");
        if let Some((committed, last)) = drive(&dev) {
            assert_recovers(&dev, committed, &oracle, &label);
            assert_recovers(&dev, last, &oracle, &format!("{label}, final log"));
            // The device is healthy again (the fault was one-shot):
            // recovery + continued ingestion must work.
            let mut w: Warehouse<u64, FDev> =
                manifest::recover(Arc::clone(&dev), cfg(), committed).unwrap();
            w.add_batch(batch(99)).unwrap();
            w.check_invariants().unwrap();
        }
    }
}
