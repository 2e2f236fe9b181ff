//! Differential property test: the pipelined group-commit path must be
//! observationally identical to the serial `flush_to` path.
//!
//! Both stacks are driven single-threaded through the same random
//! commit/abort schedule over a [`FaultLogStore`], with the same
//! [`FaultSchedule`] armed on both clocks. Because `flush_to` is exactly
//! `append_upto` + `sync_appended` — the same two calls a pipeline leader
//! makes for a batch of one — the I/O event streams align and every
//! injected fault (transient error, torn write, crash) hits both stacks
//! at the same logical point. After the run, both are crash-restored and
//! reopened; the durable byte image, the decoded record list, and the set
//! of acked commits must all be identical.

use proptest::prelude::*;
use std::sync::Arc;
use txview_common::{Error, Lsn, TxnId};
use txview_storage::fault::{FaultClock, FaultKind, FaultSchedule};
use txview_txn::CommitPipeline;
use txview_wal::{FaultLogStore, LogManager, RecordBody};

#[derive(Clone, Copy, Debug)]
enum Step {
    /// Append a Commit record and force it (serial or pipelined).
    Commit,
    /// Append an Abort record without forcing (rollback never forces).
    Abort,
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Serial,
    Pipelined,
}

/// Everything observable about one run, in comparable form.
#[derive(Debug, PartialEq, Eq)]
struct RunResult {
    /// Durable log bytes after crash-restore (byte-identical check).
    durable_bytes: Vec<u8>,
    /// Decoded durable records: (lsn, txn, body discriminant); `None`
    /// when the reopen refused the log as corruption.
    records: Option<Vec<(u64, u64, &'static str)>>,
    /// (txn, acked) per Commit step, in schedule order.
    acks: Vec<(u64, bool)>,
    /// Whether the armed crash fired during the run.
    crashed: bool,
}

fn body_kind(body: &RecordBody) -> &'static str {
    match body {
        RecordBody::Commit => "commit",
        RecordBody::Abort => "abort",
        RecordBody::End => "end",
        RecordBody::Update { .. } => "update",
        RecordBody::Clr { .. } => "clr",
        RecordBody::Checkpoint { .. } => "checkpoint",
    }
}

fn run(mode: Mode, steps: &[Step], schedule: &FaultSchedule) -> RunResult {
    let clock = FaultClock::new();
    let store = FaultLogStore::new(Arc::clone(&clock));
    let log = Arc::new(LogManager::open(Box::new(store.clone())).unwrap());
    clock.arm(schedule);
    let pipeline = CommitPipeline::new(Arc::clone(&log));

    let mut acks = Vec::new();
    let mut acked_durable = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let txn = TxnId((i + 1) as u64);
        match step {
            Step::Commit => {
                let lsn = log.append(txn, Lsn::NULL, RecordBody::Commit);
                let pre_crash = !clock.fired();
                let ok = match mode {
                    Mode::Serial => log.flush_to(lsn).is_ok(),
                    Mode::Pipelined => pipeline.commit_wait(txn, lsn, None).is_ok(),
                };
                acks.push((txn.0, ok));
                // Recovery oracle: an ack granted while the durable image
                // was still live must survive the crash.
                if ok && pre_crash && !clock.fired() {
                    acked_durable.push(txn.0);
                }
            }
            Step::Abort => {
                log.append(txn, Lsn::NULL, RecordBody::Abort);
            }
        }
    }

    drop(pipeline);
    drop(log);
    let crashed = store.crash_restore();
    // A torn write models bytes lost at the *next* crash; without one the
    // live watermarks stay authoritative, so acked ⇒ durable only holds
    // for schedules whose torn writes cannot have fired.
    let torn_possible =
        schedule.faults.iter().any(|&(_, k)| matches!(k, FaultKind::TornWrite));
    // Reboot onto the durable image with a healthy clock. A tear that
    // ends on a record boundary leaves every record appended after it
    // short of the offset its LSN names; the reopen refuses that log as
    // corruption, and nothing but a torn write may cause it.
    let records = match LogManager::open(Box::new(store.clone())) {
        Ok(recovered) => Some(
            recovered
                .read_durable_from(0)
                .unwrap()
                .into_iter()
                .map(|r| (r.lsn.0, r.txn.0, body_kind(&r.body)))
                .collect::<Vec<_>>(),
        ),
        Err(Error::Corruption(_)) if torn_possible => None,
        Err(e) => panic!("reopen failed without a torn write: {e}"),
    };
    if !torn_possible {
        let records = records.as_ref().expect("reopened");
        for txn in acked_durable {
            assert!(
                records.iter().any(|&(_, t, k)| t == txn && k == "commit"),
                "txn {txn} acked before the crash point but its commit record \
                 is not durable ({mode:?})"
            );
        }
    }
    use txview_wal::LogStore;
    RunResult { durable_bytes: store.read_from(0).unwrap(), records, acks, crashed }
}

fn step_strategy() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![3 => Just(Step::Commit), 1 => Just(Step::Abort)],
        1..40,
    )
}

/// Random fault schedule: a sprinkle of transient errors and torn writes,
/// plus at most one crash, all at random I/O-event offsets.
fn fault_strategy() -> impl Strategy<Value = FaultSchedule> {
    (
        proptest::collection::vec((0u64..120, 0u8..2), 0..6),
        // 100..110 encodes "no crash"; below 100 is the crash offset.
        (0u64..110).prop_map(|v| (v < 100).then_some(v)),
    )
        .prop_map(|(noise, crash_at)| {
            let mut faults: Vec<(u64, FaultKind)> = noise
                .into_iter()
                .map(|(off, kind)| {
                    (off, if kind == 0 { FaultKind::Transient } else { FaultKind::TornWrite })
                })
                .collect();
            if let Some(off) = crash_at {
                faults.push((off, FaultKind::Crash));
            }
            faults.sort_by_key(|&(off, _)| off);
            FaultSchedule { faults }
        })
}

proptest! {
    /// Pipelined vs serial: identical durable bytes, records,
    /// and ack sets under random schedules and random faults.
    #[test]
    fn pipelined_matches_serial(steps in step_strategy(), faults in fault_strategy()) {
        let serial = run(Mode::Serial, &steps, &faults);
        let piped = run(Mode::Pipelined, &steps, &faults);
        prop_assert_eq!(serial, piped);
    }

    /// Storm variant: transient-only bursts within the retry budget must
    /// be fully absorbed — every commit acks in both stacks, identically.
    #[test]
    fn storm_is_absorbed_identically(steps in step_strategy(), seed in 0u64..1_000) {
        let storm = FaultSchedule::storm(seed, 200);
        let serial = run(Mode::Serial, &steps, &storm);
        let piped = run(Mode::Pipelined, &steps, &storm);
        prop_assert!(!serial.crashed);
        prop_assert!(serial.acks.iter().all(|&(_, ok)| ok),
            "storm bursts exceed the retry budget: {:?}", serial.acks);
        prop_assert_eq!(serial, piped);
    }
}
