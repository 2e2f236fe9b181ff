//! Property tests for WAL-shipping replication: follower replay must be a
//! pure function of the *log contents*, not of the delivery order. For any
//! duplicated, reordered subsequence of the leader's framed log — followed
//! by a full in-order retransmit, which is what the leader's go-back-N
//! recovery eventually produces — the follower converges to exactly the
//! state of a follower that replayed the log strictly in order, and
//! replaying the whole log a second time changes nothing (redo idempotence
//! across the wire).

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use txview_common::rng::Rng;
use txview_common::row;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_engine::repl::{ChannelFaults, Follower, Frame, Message, ReplChannel, ReplConfig};
use txview_engine::{
    AggSpec, Database, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};
use txview_storage::fault::{FaultClock, FaultDisk};
use txview_wal::log::LOG_HEADER;
use txview_wal::{FaultLogStore, LogRecord, LogStore};

/// Build a small leader (accounts table + escrow sum view), run `txns`
/// committed/aborted transactions, and return its catalog plus the durable
/// framed log bytes — the exact bytes the replication stream ships.
fn shipped_log(seed: u64, txns: usize) -> (Vec<u8>, Vec<u8>) {
    let clock = FaultClock::new();
    let disk = FaultDisk::new(Arc::clone(&clock));
    let store = FaultLogStore::new(Arc::clone(&clock));
    let db = Database::with_parts(
        Arc::new(disk),
        Box::new(store.clone()),
        64,
        Duration::from_secs(2),
    )
    .unwrap();
    db.create_table(
        "accounts",
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("branch", ValueType::Int),
                Column::new("balance", ValueType::Int),
            ],
            vec![0],
        )
        .unwrap(),
    )
    .map(|t| {
        db.create_indexed_view(ViewSpec {
            name: "by_branch".into(),
            source: ViewSource::Single { table: t, group_by: vec![1] },
            aggs: vec![AggSpec::SumInt { col: 2 }],
            filter: Predicate::True,
            maintenance: MaintenanceMode::Escrow,
            deferred: false,
            eager_group_delete: false,
        })
        .unwrap()
    })
    .unwrap();

    let mut rng = Rng::new(seed);
    let mut next_id = 0i64;
    for t in 0..txns {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        for _ in 0..=rng.below(3) {
            db.insert(&mut txn, "accounts", row![next_id, next_id % 4, 100i64]).unwrap();
            next_id += 1;
        }
        if t % 3 == 2 {
            // Aborts put CLRs in the shipped log too.
            db.rollback(&mut txn).unwrap();
        } else {
            db.commit(&mut txn).unwrap();
        }
    }
    db.log().flush_all().unwrap();
    let catalog = db.export_catalog();
    let shipped = store.read_from(0).unwrap();
    (catalog, shipped)
}

/// Cut the shipped bytes into single-record frames, exactly as the
/// stream's re-encoder would at batch size 1.
fn cut_frames(shipped: &[u8]) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut off = LOG_HEADER.len();
    while let Some((_, used)) = LogRecord::decode_framed(&shipped[off..], off as u64).unwrap() {
        frames.push(Frame::new(0, off as u64, shipped[off..off + used].to_vec()));
        off += used;
    }
    assert_eq!(off, shipped.len(), "shipped log must cut into whole frames");
    frames
}

/// Generic committed-state fingerprint over this test's schema (the
/// engine-level `Follower::fingerprint` assumes the torture bank schema).
fn state_fp(db: &Database) -> Vec<u8> {
    let mut out = Vec::new();
    for r in db.harness().dump_table("accounts").unwrap() {
        out.extend_from_slice(&r.to_bytes());
    }
    for r in db.harness().dump_view("by_branch").unwrap() {
        out.extend_from_slice(&r.to_bytes());
    }
    out
}

fn fresh_follower(catalog: &[u8], buffer: usize) -> Follower {
    let cfg = ReplConfig { reorder_buffer: buffer, ..ReplConfig::default() };
    Follower::new(cfg, catalog.to_vec()).unwrap()
}

fn feed(f: &mut Follower, ch: &ReplChannel, frames: &[Frame]) {
    for frame in frames {
        f.ingest(Message::Frame(frame.clone()), ch).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Any dup/reorder-perturbed subsequence + in-order retransmit lands on
    /// the in-order replay state, byte for byte.
    #[test]
    fn perturbed_replay_converges_to_in_order_replay(
        seed in any::<u64>(),
        txns in 3usize..9,
    ) {
        let (catalog, shipped) = shipped_log(seed, txns);
        let frames = cut_frames(&shipped);
        prop_assert!(frames.len() >= 4, "workload produced too few records");
        let ch = ReplChannel::new(ChannelFaults::default(), 0);
        let buffer = frames.len() * 2 + 4;

        // Reference: strict in-order replay of every frame.
        let mut inorder = fresh_follower(&catalog, buffer);
        feed(&mut inorder, &ch, &frames);
        prop_assert_eq!(inorder.durable_len(), frames.last().unwrap().end());
        prop_assert_eq!(inorder.durable_len(), shipped.len() as u64);
        let want = state_fp(inorder.db());

        // Perturbed: keep ~70% of frames, duplicate ~30% of the kept ones,
        // then shuffle the whole multiset. This is an arbitrary lossy
        // prefix of what a faulty channel delivers.
        let mut rng = Rng::new(seed ^ 0xC0FF_EE00_D00D_F00D);
        let mut perturbed: Vec<Frame> = Vec::new();
        for frame in &frames {
            if rng.chance(0.7) {
                perturbed.push(frame.clone());
                if rng.chance(0.3) {
                    perturbed.push(frame.clone());
                }
            }
        }
        for i in (1..perturbed.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perturbed.swap(i, j);
        }

        let mut f = fresh_follower(&catalog, buffer);
        feed(&mut f, &ch, &perturbed);
        // The follower must never run ahead of the longest contiguous
        // prefix it was given, and never past the shipped log.
        prop_assert!(f.durable_len() <= shipped.len() as u64);
        // In-order retransmit (go-back-N from offset 0) completes replay.
        feed(&mut f, &ch, &frames);
        prop_assert_eq!(f.durable_len(), inorder.durable_len());
        prop_assert_eq!(f.durable_len(), shipped.len() as u64);
        prop_assert_eq!(state_fp(f.db()), want.clone());
        // The follower's own log is byte-identical to the leader's.
        prop_assert_eq!(f.store().read_from(0).unwrap(), shipped.clone());

        // Redo idempotence across the wire: a full second replay of the
        // log must change nothing.
        feed(&mut f, &ch, &frames);
        prop_assert_eq!(state_fp(f.db()), want);
    }
}
