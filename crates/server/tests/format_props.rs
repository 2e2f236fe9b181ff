//! One refusal suite over every byte format the engine writes and reads
//! back: wire requests and responses, WAL records, replication frames,
//! pages, the master file and the catalog. Each format is one row of
//! [`FORMATS`]: how to build a sample from a seed, and what the format's
//! own decoder makes of some bytes. For every row and sample:
//!
//! * no single-bit flip anywhere, length prefix included, decodes to a
//!   different value;
//! * every strict prefix is `Incomplete` for a stream (wire, WAL) and
//!   refused for a unit that arrives whole (page, master, catalog). A
//!   replication frame cut on a record boundary is the shorter run of
//!   records: a prefix of the leader's log, so safe to apply;
//! * garbage, alone or in front of a valid encoding, never panics;
//! * retired layouts are refused: WAL tag 7, wire code 6, catalog view tag
//!   1 (an attached hash index), the headerless catalog and the 16-byte
//!   master.

use proptest::prelude::*;
use std::path::PathBuf;
use txview_common::codec::Writer;
use txview_common::{frame, Lsn, PageId, TxnId, Value};
use txview_engine::catalog::{Catalog, CATALOG_HEADER};
use txview_engine::repl::Frame;
use txview_server::wire::{decode_frame, encode_frame, Request, Response, WireErrorCode};
use txview_storage::page::{Page, PageType, PAGE_SIZE};
use txview_wal::log::LOG_HEADER_LEN;
use txview_wal::record::{RedoOp, TxnKind, UndoOp, ValueDelta};
use txview_wal::{FileLogStore, LogRecord, LogStore, RecordBody};
use txview_workload::bank::{Bank, BankConfig};

/// What a format's decoder made of some bytes.
#[derive(Debug, PartialEq)]
enum Seen {
    /// A value, in the format's own encoding.
    Value(Vec<u8>),
    /// Wait for more bytes (for the WAL: the log ends here).
    Incomplete,
    /// Refused.
    Refused,
}

/// What every strict prefix of a sample must decode to.
#[derive(Clone, Copy, Debug)]
enum Prefix {
    Incomplete,
    Refused,
    /// Refused, or the whole records it holds: a prefix of the sample.
    RecordRun,
}

struct Format {
    name: &'static str,
    prefix: Prefix,
    sample: fn(u64) -> Vec<u8>,
    decode: fn(&[u8]) -> Seen,
    retired: fn() -> Vec<Vec<u8>>,
}

const FORMATS: [Format; 7] = [
    Format {
        name: "wire request",
        prefix: Prefix::Incomplete,
        sample: |seed| encode_frame(&request(seed).encode()),
        decode: |b| wire(b, |p| Request::decode(p).map(|r| r.encode())),
        retired: Vec::new,
    },
    Format {
        name: "wire response",
        prefix: Prefix::Incomplete,
        sample: |seed| encode_frame(&response(seed).encode()),
        decode: |b| wire(b, |p| Response::decode(p).map(|r| r.encode())),
        retired: || {
            let code = WireErrorCode::Overloaded;
            let mut payload = Response::Err { code, msg: "x".into() }.encode();
            payload[1..3].copy_from_slice(&6u16.to_le_bytes());
            vec![encode_frame(&payload)]
        },
    },
    Format {
        name: "WAL record",
        prefix: Prefix::Incomplete,
        sample: |seed| record(seed, LOG_HEADER_LEN).encode_framed(),
        decode: |b| match LogRecord::decode_framed(b, LOG_HEADER_LEN) {
            Ok(Some((rec, used))) if used == b.len() => Seen::Value(rec.encode_framed()),
            Ok(Some(_)) | Err(_) => Seen::Refused,
            Ok(None) => Seen::Incomplete,
        },
        retired: || {
            let mut w = Writer::new();
            w.lsn(Lsn(LOG_HEADER_LEN)).lsn(Lsn::NULL).txn(TxnId::NONE);
            w.u8(7).u32(1).txn(TxnId(5)).u8(0).lsn(Lsn(4)).u32(0);
            vec![frame::encode(&w.into_bytes())]
        },
    },
    Format {
        name: "replication frame",
        prefix: Prefix::RecordRun,
        sample: |seed| {
            let mut payload = Vec::new();
            for i in 0..1 + seed % 3 {
                let at = LOG_HEADER_LEN + payload.len() as u64;
                payload.extend(record(seed.wrapping_add(i), at).encode_framed());
            }
            payload
        },
        decode: |b| match Frame::new(1, LOG_HEADER_LEN, b.to_vec()).records() {
            Ok(recs) => Seen::Value(recs.iter().flat_map(|r| r.encode_framed()).collect()),
            Err(_) => Seen::Refused,
        },
        retired: Vec::new,
    },
    Format {
        name: "page",
        prefix: Prefix::Refused,
        sample: |seed| {
            let mut page = Page::new(PageType::BTreeLeaf);
            page.set_lsn(Lsn(seed));
            for (i, b) in page.payload_mut().iter_mut().enumerate().step_by(97) {
                *b = (seed >> (i % 64)) as u8;
            }
            page.to_disk().to_vec()
        },
        // A disk reads a page whole (`read_exact`): a short one never
        // reaches `from_disk`.
        decode: |b| match <[u8; PAGE_SIZE]>::try_from(b).map(Page::from_disk) {
            Ok(Ok(mut page)) => Seen::Value(page.to_disk().to_vec()),
            _ => Seen::Refused,
        },
        retired: Vec::new,
    },
    Format {
        name: "master file",
        prefix: Prefix::Refused,
        sample: |seed| {
            let (dir, store) = master_store(None);
            store.set_master(Lsn(LOG_HEADER_LEN + seed % 4096)).unwrap();
            store.set_epoch(seed >> 12).unwrap();
            let bytes = std::fs::read(dir.join("wal.log.master")).unwrap();
            let _ = std::fs::remove_dir_all(dir);
            bytes
        },
        decode: |b| {
            let (dir, store) = master_store(Some(b));
            let seen = match (store.get_master(), store.get_epoch()) {
                (Ok(lsn), Ok(epoch)) => Seen::Value([lsn.0, epoch].map(u64::to_le_bytes).concat()),
                _ => Seen::Refused,
            };
            let _ = std::fs::remove_dir_all(dir);
            seen
        },
        retired: || vec![[LOG_HEADER_LEN, 3].map(u64::to_le_bytes).concat()],
    },
    Format {
        name: "catalog",
        prefix: Prefix::Refused,
        sample: |seed| {
            let chain_depth = (seed % 3) as usize;
            let cfg = BankConfig { accounts: 8, pool_pages: 32, chain_depth, ..Default::default() };
            Bank::setup(cfg).unwrap().db.export_catalog()
        },
        decode: |b| Catalog::decode(b).map_or(Seen::Refused, |cat| Seen::Value(cat.encode())),
        retired: || {
            let cfg = BankConfig { accounts: 8, pool_pages: 32, ..Default::default() };
            let good = Bank::setup(cfg).unwrap().db.export_catalog();
            let body = frame::decode_exact(&good[CATALOG_HEADER.len()..], "catalog").unwrap();
            // The last view's reserved tag sits before the 4-byte count of
            // secondary indexes (none here).
            let mut tagged = body.to_vec();
            let tag_at = tagged.len() - 5;
            tagged[tag_at] = 1;
            let sealed = [&CATALOG_HEADER[..], &frame::encode(&tagged)].concat();
            vec![sealed, frame::encode(body), body.to_vec()]
        },
    },
];

fn wire(bytes: &[u8], message: fn(&[u8]) -> txview_common::Result<Vec<u8>>) -> Seen {
    match decode_frame(bytes) {
        Ok(Some((payload, used))) if used == bytes.len() => {
            message(&payload).map_or(Seen::Refused, Seen::Value)
        }
        Ok(Some(_)) | Err(_) => Seen::Refused,
        Ok(None) => Seen::Incomplete,
    }
}

fn request(seed: u64) -> Request {
    let a = seed as i64 >> 3;
    let group = vec![Value::Int(a), Value::Str(format!("g{seed}"))];
    match seed % 8 {
        0 => Request::Ping,
        1 => Request::Begin { isolation: (seed % 3) as u8 },
        2 => Request::Commit,
        3 => Request::Rollback,
        4 => Request::Deposit { account: a, delta: -a },
        5 => Request::ViewRead { view: format!("v{}", seed % 100), group },
        6 => Request::ViewAvg { view: "v".into(), group, agg_idx: (seed % 7) as u32 },
        _ => Request::Metrics,
    }
}

fn response(seed: u64) -> Response {
    let present = seed.is_multiple_of(2);
    match seed % 7 {
        0 => Response::Pong,
        1 => Response::Ok,
        2 => Response::Committed { lsn: seed },
        3 => Response::Row { present, values: vec![Value::Float(seed as f64 / 7.0), Value::Null] },
        4 => Response::Avg { present, value: seed as f64 },
        5 => Response::Metrics { text: format!("k={seed}\n") },
        _ => Response::Err { code: WireErrorCode::LockTimeout, msg: format!("e{seed}") },
    }
}

/// A log record stored at `at`, its body chosen by `seed`.
fn record(seed: u64, at: u64) -> LogRecord {
    let page = PageId(seed as u32 % 64);
    let body = match seed % 4 {
        0 => RecordBody::Begin { kind: TxnKind::User },
        1 => RecordBody::Commit,
        2 => RecordBody::Update {
            page,
            redo: RedoOp::SlotPatch { idx: 1, off: 4, bytes: seed.to_le_bytes().to_vec() },
            undo: UndoOp::Escrow {
                index: txview_common::IndexId(3),
                key: vec![1, 2],
                deltas: vec![(2, ValueDelta::Int(seed as i64))],
            },
        },
        _ => RecordBody::Checkpoint {
            scan_from: LOG_HEADER_LEN,
            begin: Lsn(at),
            next_txn: seed,
            dirty: vec![(page, Lsn(LOG_HEADER_LEN))],
        },
    };
    LogRecord { lsn: Lsn(at), prev_lsn: Lsn(seed % at), txn: TxnId(seed), body }
}

/// A fresh file log store whose master file holds `master` (no file for
/// `None`), in a directory of the calling thread's own.
fn master_store(master: Option<&[u8]>) -> (PathBuf, FileLogStore) {
    let thread = format!("{:?}", std::thread::current().id()).replace(['(', ')'], "");
    let dir = std::env::temp_dir().join(format!("txview-format-{}-{thread}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    if let Some(bytes) = master {
        std::fs::write(dir.join("wal.log.master"), bytes).unwrap();
    }
    let store = FileLogStore::open(dir.join("wal.log")).unwrap();
    (dir, store)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// Round trip, every single-bit flip, every strict prefix and garbage,
    /// for every format.
    #[test]
    fn every_format_refuses_damage(
        seed in any::<u64>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        for f in &FORMATS {
            let sample = (f.sample)(seed);
            let Seen::Value(value) = (f.decode)(&sample) else {
                panic!("{}: a fresh sample did not decode", f.name);
            };
            let mut flipped = sample.clone();
            for bit in 0..sample.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                let seen = (f.decode)(&flipped);
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(
                    !matches!(&seen, Seen::Value(v) if *v != value),
                    "{}: flip of bit {} decoded to another value", f.name, bit
                );
            }
            for cut in 0..sample.len() {
                let seen = (f.decode)(&sample[..cut]);
                let ok = match (f.prefix, &seen) {
                    (Prefix::Incomplete, Seen::Incomplete) => true,
                    (Prefix::Refused | Prefix::RecordRun, Seen::Refused) => true,
                    (Prefix::RecordRun, Seen::Value(v)) => sample.starts_with(v),
                    _ => false,
                };
                prop_assert!(ok, "{}: prefix of {} bytes gave {:?}", f.name, cut, seen);
            }
            let _ = (f.decode)(&garbage);
            let _ = (f.decode)(&[&garbage[..], &sample[..]].concat());
        }
    }
}

#[test]
fn retired_layouts_are_refused() {
    for f in &FORMATS {
        for (i, bytes) in (f.retired)().iter().enumerate() {
            assert_eq!((f.decode)(bytes), Seen::Refused, "{}: retired layout {i}", f.name);
        }
    }
}
