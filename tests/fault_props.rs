//! Property tests for the fault-injection layer: schedule generation is a
//! pure function of the seed, and a torn page write is always detected by
//! the page checksum on the next read, whatever the payload. Plus bounded
//! restart: checkpoints taken anywhere — inside user transactions and
//! system brackets too — never lose or resurrect work, and restart reads
//! only the log from the master checkpoint's `scan_from` on.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use txview_btree::{logctx::LogCtx, tree::Tree, OpLog};
use txview_common::{Error, IndexId, Key, Lsn, PageId, Result as TxResult, TxnId, Value};
use txview_engine::torture::{run_episode, TortureConfig};
use txview_storage::buffer::BufferPool;
use txview_storage::disk::MemDisk;
use txview_storage::fault::{FaultClock, FaultDisk, FaultKind, FaultSchedule};
use txview_storage::slotted::Slotted;
use txview_storage::{DiskManager, Page, PageType, PAGE_PAYLOAD_SIZE};
use txview_wal::log::PAYLOAD_HEADER_LEN;
use txview_wal::{recover, LogManager, RecordBody, RedoOp, UndoHandler, UndoOp};

const INDEX: IndexId = IndexId(3);

/// One step of the checkpointed workload. `ck` is how many of the `n`
/// operations run before a checkpoint inside the transaction (none when
/// `ck >= n`); an uncommitted transaction is abandoned, a loser at restart.
#[derive(Clone, Debug)]
enum Step {
    /// A user transaction inserting `n` fresh keys into the tree.
    User { n: usize, ck: usize, commit: bool },
    /// A system bracket appending `n` slots to the system page.
    System { n: usize, ck: usize, commit: bool },
    Checkpoint,
    /// Write every dirty page back (a steal).
    Steal,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (1usize..6, 0usize..8, 0u8..4)
            .prop_map(|(n, ck, c)| Step::User { n, ck, commit: c != 0 }),
        3 => (1usize..5, 0usize..6, 0u8..4)
            .prop_map(|(n, ck, c)| Step::System { n, ck, commit: c != 0 }),
        2 => Just(Step::Checkpoint),
        1 => Just(Step::Steal),
    ]
}

/// Logical undo of the only user operation the workload logs: an insert,
/// undone by ghosting the key.
struct GhostInserts<'a> {
    tree: &'a Tree,
    log: &'a LogManager,
}

impl UndoHandler for GhostInserts<'_> {
    fn undo(&self, txn: TxnId, op: &UndoOp, undo_next: Lsn, chain: &mut Lsn) -> TxResult<()> {
        match op {
            UndoOp::IndexInsert { key, .. } => {
                let mut ctx = LogCtx { log: self.log, txn, last_lsn: chain };
                self.tree.set_ghost(&Key::from_bytes(key.clone()), true, &mut ctx, &OpLog::Clr { undo_next })?;
                Ok(())
            }
            other => panic!("unexpected logical undo {other:?}"),
        }
    }
}

fn key_of(k: i64) -> Key {
    Key::from_values(&[Value::Int(k)])
}

fn value_of(k: i64) -> Vec<u8> {
    vec![(k % 251) as u8; 180]
}

fn system_slots(pool: &Arc<BufferPool>, page: PageId) -> Vec<Vec<u8>> {
    let p = pool.fetch(page).unwrap();
    let mut g = p.write();
    let s = Slotted::wrap(&mut g.payload_mut()[PAYLOAD_HEADER_LEN..]);
    (0..s.count()).map(|i| s.get(i).to_vec()).collect()
}

/// The workload's database: a tree for user keys, one system page.
struct Rig {
    log: Arc<LogManager>,
    pool: Arc<BufferPool>,
    tree: Tree,
    page: PageId,
}

impl Rig {
    fn new() -> Rig {
        let log = Arc::new(LogManager::in_memory());
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 24);
        let l2 = Arc::clone(&log);
        pool.set_wal_flush(Arc::new(move |lsn| l2.flush_to(lsn)));
        let tree = Tree::create(&pool, &log, INDEX).unwrap();
        let (page, pinned) = pool.new_page(PageType::BTreeLeaf).unwrap();
        let sys = log.alloc_txn_id();
        let fmt = RedoOp::FormatPage { ty: 2, header_len: PAYLOAD_HEADER_LEN as u16 };
        let mut g = pinned.write();
        fmt.apply(g.payload_mut(), PAYLOAD_HEADER_LEN).unwrap();
        let u = log.append(sys, Lsn::NULL, RecordBody::Update { page, redo: fmt, undo: UndoOp::None });
        g.set_lsn(u);
        drop(g);
        log.append(sys, u, RecordBody::Commit);
        log.flush_all().unwrap();
        Rig { log, pool, tree, page }
    }

    /// Append `bytes` as the system page's next slot, logged with its
    /// physical inverse (apply, then log, under the page latch).
    fn append_slot(&self, sys: TxnId, last: &mut Lsn, bytes: Vec<u8>) {
        let p = self.pool.fetch(self.page).unwrap();
        let mut g = p.write();
        let idx = Slotted::wrap(&mut g.payload_mut()[PAYLOAD_HEADER_LEN..]).count() as u16;
        let redo = RedoOp::SlotInsert { idx, bytes };
        redo.apply(g.payload_mut(), PAYLOAD_HEADER_LEN).unwrap();
        let undo = UndoOp::Page { page: self.page, op: RedoOp::SlotRemove { idx } };
        *last = self.log.append(sys, *last, RecordBody::Update { page: self.page, redo, undo });
        g.set_lsn(*last);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Checkpoints at random points — between transactions and inside
    /// user transactions and system brackets — then a crash with a random
    /// steal: the recovered tree and system page equal the model (winners
    /// kept, losers undone), restart read no more than the log from
    /// `scan_from` on, and a second crash-recovery finds nothing to do.
    #[test]
    fn checkpoints_anywhere_recover_to_the_model(
        steps in proptest::collection::vec(arb_step(), 1..24),
        steal in 0u8..3,
        flush_tail in any::<bool>(),
    ) {
        let rig = Rig::new();
        let (log, pool): (&LogManager, _) = (&rig.log, &rig.pool);
        let mut keys: BTreeMap<i64, bool> = BTreeMap::new(); // key → committed
        let mut slots: Vec<Vec<u8>> = Vec::new(); // committed, in page order
        let mut next = 0i64;
        for step in &steps {
            match *step {
                Step::User { n, ck, commit } => {
                    let txn = log.alloc_txn_id();
                    let mut last = Lsn::NULL;
                    for i in 0..n {
                        if i == ck {
                            log.checkpoint(pool).unwrap();
                        }
                        let key = key_of(next);
                        let undo = UndoOp::IndexInsert { index: INDEX, key: key.as_bytes().to_vec() };
                        let mut ctx = LogCtx { log, txn, last_lsn: &mut last };
                        rig.tree.insert(&key, &value_of(next), &mut ctx, &OpLog::Update { undo }).unwrap();
                        keys.insert(next, commit);
                        next += 1;
                    }
                    // A transaction that logged nothing commits nothing.
                    if commit && !last.is_null() {
                        let c = log.append(txn, last, RecordBody::Commit);
                        log.flush_to(c).unwrap();
                    }
                }
                Step::System { n, ck, commit } => {
                    let sys = log.alloc_txn_id();
                    let mut last = Lsn::NULL;
                    let mut mine = Vec::new();
                    for i in 0..n {
                        if i == ck {
                            log.checkpoint(pool).unwrap();
                        }
                        let bytes = format!("slot-{}-{i}", sys.0).into_bytes();
                        rig.append_slot(sys, &mut last, bytes.clone());
                        mine.push(bytes);
                    }
                    if commit && !last.is_null() {
                        let c = log.append(sys, last, RecordBody::Commit);
                        log.flush_to(c).unwrap();
                    }
                    if commit {
                        slots.extend(mine);
                    }
                }
                Step::Checkpoint => {
                    log.checkpoint(pool).unwrap();
                }
                Step::Steal => pool.flush_all().unwrap(),
            }
        }
        if flush_tail {
            log.flush_all().unwrap();
        }
        let mut rng = txview_common::rng::Rng::new(steps.len() as u64);
        pool.simulate_crash(steal as f64 / 2.0, &mut rng).unwrap();
        log.simulate_crash();
        let durable = log.durable_len().unwrap();

        let handler = GhostInserts { tree: &rig.tree, log };
        let report = recover(log, pool, &handler).unwrap();
        prop_assert!(
            report.bytes_read <= durable - report.scan_from,
            "read {} bytes from {} of {durable}", report.bytes_read, report.scan_from
        );
        let master = log.master().unwrap();
        if !master.is_null() {
            prop_assert!(report.scan_from <= master.0, "scan starts after its checkpoint");
        }

        let check = |stage: &str| {
            rig.tree.validate().unwrap();
            for (&k, &committed) in &keys {
                match rig.tree.get(&key_of(k)).unwrap() {
                    Some((false, v)) if committed => assert_eq!(v, value_of(k), "[{stage}] key {k}"),
                    None | Some((true, _)) if !committed => {}
                    other => panic!("[{stage}] key {k} (committed {committed}): {other:?}"),
                }
            }
            assert_eq!(system_slots(pool, rig.page), slots, "[{stage}] system page");
        };
        check("recovered");

        // Idempotence: crash again with every page stolen; nothing to redo.
        pool.simulate_crash(1.0, &mut rng).unwrap();
        log.simulate_crash();
        let again = recover(log, pool, &handler).unwrap();
        prop_assert_eq!(again.redo_applied, 0);
        prop_assert_eq!(again.losers, 0);
        check("second");
    }
}

proptest! {
    /// Same seed + horizon ⇒ byte-identical fault schedule, every time.
    #[test]
    fn schedule_is_a_pure_function_of_the_seed(
        seed in any::<u64>(),
        horizon in 1u64..10_000,
    ) {
        let a = FaultSchedule::random(seed, horizon);
        let b = FaultSchedule::random(seed, horizon);
        prop_assert_eq!(&a, &b);
        // Well-formed: sorted by event, unique events, everything inside
        // the horizon, and nothing scheduled after the crash.
        let events: Vec<u64> = a.faults.iter().map(|(e, _)| *e).collect();
        let mut sorted = events.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&events, &sorted);
        prop_assert!(events.iter().all(|&e| e < horizon));
        if let Some(pos) =
            a.faults.iter().position(|(_, k)| *k == FaultKind::Crash)
        {
            prop_assert_eq!(pos, a.faults.len() - 1, "crash must be last");
        }
    }

    /// A torn write is always caught by the checksum on read, for any
    /// payload bytes written at any offset.
    #[test]
    fn torn_writes_never_pass_the_checksum(
        bytes in proptest::collection::vec(any::<u8>(), 1..256),
        offset in 0usize..PAGE_PAYLOAD_SIZE - 256,
    ) {
        let clock = FaultClock::new();
        let disk = FaultDisk::new(std::sync::Arc::clone(&clock));
        let pid = disk.allocate().unwrap();
        let mut page = Page::new(PageType::BTreeLeaf);
        page.payload_mut()[offset..offset + bytes.len()].copy_from_slice(&bytes);
        // Tear the very next disk write.
        clock.arm(&FaultSchedule { faults: vec![(0, FaultKind::TornWrite)] });
        disk.write_page(pid, &mut page).unwrap();
        prop_assert!(
            matches!(disk.read_page(pid), Err(Error::Corruption(_))),
            "torn write went undetected"
        );
        prop_assert_eq!(clock.stats().torn_writes, 1);
    }

    /// Storm schedules are pure functions of the seed and always
    /// transient-only with bounded consecutive runs (≤ 3, strictly inside
    /// the 5-attempt retry budget).
    #[test]
    fn storm_schedules_are_pure_and_transient_only(
        seed in any::<u64>(),
        horizon in 1u64..5_000,
    ) {
        let a = FaultSchedule::storm(seed, horizon);
        let b = FaultSchedule::storm(seed, horizon);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.is_transient_only());
        let events: Vec<u64> = a.faults.iter().map(|(e, _)| *e).collect();
        prop_assert!(events.iter().all(|&e| e < horizon));
        let mut run = 1u32;
        for w in events.windows(2) {
            run = if w[1] == w[0] + 1 { run + 1 } else { 1 };
            prop_assert!(run <= 3, "consecutive fault run exceeds the retry budget");
        }
    }

    /// The resilience layer is *transparent*: any transient-only schedule
    /// leaves the committed state byte-identical to the fault-free run of
    /// the same seed, with the same acknowledged commits and no
    /// degradation (satellite oracle of the storm mode).
    #[test]
    fn transient_storms_preserve_committed_state(
        seed in any::<u32>(),
        storm_seed in any::<u64>(),
    ) {
        let cfg = TortureConfig { txns: 10, seed: seed as u64, ..Default::default() };
        let horizon = txview_engine::torture::measure_horizon(&cfg).unwrap();
        let schedule = FaultSchedule::storm(storm_seed, horizon);
        // An empty storm (rare seeds) is trivially absorbed; skip it.
        if !schedule.faults.is_empty() {
            let ep = txview_engine::torture::run_storm_episode(&cfg, &schedule).unwrap();
            prop_assert!(ep.violations.is_empty(), "storm not absorbed: {:?}", ep.violations);
            prop_assert_eq!(ep.resilience.health, txview_engine::HealthState::Healthy);
        }
    }

    /// Torture episodes are deterministic: same seed + crash point ⇒ same
    /// workload trace, same crash event, same oracle outcome.
    #[test]
    fn episodes_replay_bit_identically(seed in any::<u32>(), point in 0u64..80) {
        let cfg = TortureConfig { txns: 8, seed: seed as u64, ..Default::default() };
        let schedule = FaultSchedule::crash_at(point);
        let a = run_episode(&cfg, &schedule).unwrap();
        let b = run_episode(&cfg, &schedule).unwrap();
        prop_assert_eq!(a.crash_event, b.crash_event);
        prop_assert_eq!(a.trace.acked_commits, b.trace.acked_commits);
        prop_assert_eq!(a.trace.acked_transfers, b.trace.acked_transfers);
        prop_assert_eq!(a.fault_stats.events, b.fault_stats.events);
        prop_assert_eq!(&a.violations, &b.violations);
        prop_assert!(a.violations.is_empty(), "oracle violation: {:?}", a.violations);
    }
}
