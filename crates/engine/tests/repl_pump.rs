//! The leader ships its log's stored bytes: each frame is exactly the run
//! of records that decoding the durable log from the cursor and
//! re-encoding up to `max_batch` records would give, cut without that
//! re-encode, and shipping stops where the durable log's whole records do.

use std::sync::Arc;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{row, Lsn, TxnId};
use txview_engine::repl::{ChannelFaults, Message, ReplChannel, ReplConfig, ReplicationStream};
use txview_engine::{
    AggSpec, Database, FaultParts, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};
use txview_wal::record::{LogRecord, RecordBody};
use txview_wal::LogStore;

fn setup(db: &Database) {
    let schema = Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("grp", ValueType::Int),
            Column::new("amount", ValueType::Int),
        ],
        vec![0],
    )
    .unwrap();
    let t = db.create_table("items", schema).unwrap();
    db.create_indexed_view(ViewSpec {
        name: "totals".into(),
        source: ViewSource::Single { table: t, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::True,
        maintenance: MaintenanceMode::Escrow,
        deferred: false,
        eager_group_delete: false,
    })
    .unwrap();
}

fn insert_rows(db: &Database, ids: std::ops::Range<i64>) {
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for id in ids {
        db.insert(&mut txn, "items", row![id, id % 7, 3i64]).unwrap();
    }
    db.commit(&mut txn).unwrap();
}

/// The frames the leader once cut: from `cursor` on, decode every durable
/// record, re-encode the first `max_batch`, and repeat.
fn reference_frames(db: &Database, mut cursor: u64, max_batch: usize) -> Vec<(u64, Vec<u8>)> {
    let mut frames = Vec::new();
    loop {
        let records = db.log().read_durable_from(cursor).unwrap();
        if records.is_empty() {
            return frames;
        }
        let batch = &records[..records.len().min(max_batch)];
        let payload: Vec<u8> = batch.iter().flat_map(LogRecord::encode_framed).collect();
        let start = cursor;
        cursor += payload.len() as u64;
        frames.push((start, payload));
    }
}

fn shipped(channel: &ReplChannel) -> Vec<(u64, Vec<u8>)> {
    std::iter::from_fn(|| channel.recv_data())
        .map(|msg| match msg {
            Message::Frame(frame) => (frame.start, frame.payload),
            other => panic!("the leader shipped {other:?}"),
        })
        .collect()
}

#[test]
fn pump_ships_the_stored_records_and_stops_at_a_torn_tail() {
    let parts = FaultParts::new();
    let db = parts.open(64).unwrap();
    setup(&db);
    for batch in 0..10 {
        insert_rows(&db, batch * 12..batch * 12 + 12);
    }
    let cfg = ReplConfig { window_bytes: u64::MAX, ..ReplConfig::default() };
    let start = txview_wal::log::LOG_HEADER_LEN;
    let ahead = db.log().read_durable_from(start).unwrap().len();
    assert!(ahead >= 200, "the leader is only {ahead} records ahead");
    let reference = reference_frames(&db, start, cfg.max_batch);
    let channel = ReplChannel::new(ChannelFaults::default(), 0);
    let mut stream = ReplicationStream::new(Arc::clone(&db), parts.store.clone(), cfg.clone());
    assert_eq!(stream.pump(&channel).unwrap(), reference.len());
    assert_eq!(shipped(&channel), reference);

    // One more commit, then half a record: the pump ships the commit's
    // records and nothing of the torn one, as the durable read stops there.
    insert_rows(&db, 1_000..1_003);
    let cursor = parts.store.durable_len();
    let after = reference.last().map(|(at, p)| at + p.len() as u64).unwrap();
    let torn = LogRecord { lsn: Lsn(cursor), prev_lsn: Lsn::NULL, txn: TxnId(999), body: RecordBody::Commit };
    let torn = torn.encode_framed();
    parts.store.append(&torn[..torn.len() / 2]).unwrap();
    let reference = reference_frames(&db, after, cfg.max_batch);
    assert_eq!(reference.last().map(|(at, p)| at + p.len() as u64), Some(cursor));
    assert_eq!(stream.pump(&channel).unwrap(), reference.len());
    assert_eq!(shipped(&channel), reference);
    assert_eq!(stream.pump(&channel).unwrap(), 0, "nothing whole is left to ship");
}
