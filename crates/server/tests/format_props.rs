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
//! * retired layouts are refused: WAL tags 1 (Begin) and 7, wire code 6,
//!   catalog format 1 (secondary indexes), the headerless catalog and the
//!   16-byte master;
//! * a catalog that names two views alike or gives two definitions one id
//!   is refused, though every byte of it is well formed.
//!
//! The log gets one more, exhaustive check of its own (log format version
//! 2): every truncation and every single-byte substitution of an encoded
//! record run is a torn tail or `Corruption` — never another record, never
//! a panic — and malformed varints in every varint field, under a valid
//! checksum, are refused too.

use proptest::prelude::*;
use std::path::PathBuf;
use txview_common::codec::Writer;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{frame, Error, IndexId, Lsn, ObjectId, PageId, TxnId, Value, ViewId};
use txview_engine::catalog::{Catalog, CATALOG_HEADER};
use txview_engine::repl::Frame;
use txview_engine::{AggSpec, MaintenanceMode, Predicate, TableDef, ViewDef, ViewSource};
use txview_server::wire::{decode_frame, encode_frame, Request, Response, WireErrorCode};
use txview_storage::page::{Page, PageType, PAGE_SIZE};
use txview_wal::log::LOG_HEADER_LEN;
use txview_wal::record::{RedoOp, UndoOp, ValueDelta};
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
            let head = |tag: u8| {
                let mut w = Writer::new();
                w.lsn(Lsn(LOG_HEADER_LEN)).varint(0).varint(5).u8(tag);
                w
            };
            let mut checkpoint = head(7);
            checkpoint.u32(1).txn(TxnId(5)).u8(0).lsn(Lsn(4)).u32(0);
            let mut begin = head(1);
            begin.u8(0);
            [checkpoint, begin].map(|w| frame::encode_var(&w.into_bytes())).to_vec()
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
        decode: |b| match Frame::new(1, LOG_HEADER_LEN, b.to_vec()).into_run() {
            Ok(run) => Seen::Value(run.records().iter().flat_map(|r| r.encode_framed()).collect()),
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
            // Well-formed format 1: the one view's reserved tag byte, then a
            // count of no secondary indexes, under a version-1 header.
            let v1_body = [body, &[0], &0u32.to_le_bytes()].concat();
            let mut v1_header = CATALOG_HEADER;
            v1_header[4] = 1;
            let v1 = [&v1_header[..], &frame::encode(&v1_body)].concat();
            vec![v1, frame::encode(body), body.to_vec()]
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
    let deltas = vec![(1, ValueDelta::Int(seed as i64)), (2, ValueDelta::Float(seed as f64 / 3.0))];
    let body = match seed % 6 {
        0 => RecordBody::Update {
            page,
            redo: RedoOp::SlotAdd { idx: 1, off: 11, deltas: deltas.clone() },
            undo: UndoOp::Escrow { index: IndexId(3), key: vec![1, 2], deltas },
        },
        1 => RecordBody::Commit,
        2 => RecordBody::Update {
            page,
            redo: RedoOp::SlotPatch { idx: 1, off: 4, bytes: seed.to_le_bytes().to_vec() },
            undo: UndoOp::IndexPatch {
                index: IndexId(3),
                key: vec![1, 2],
                off: (seed % 300) as u16,
                old: vec![seed as u8; 8],
            },
        },
        3 => RecordBody::Clr {
            page,
            redo: RedoOp::SlotAdd { idx: 2, off: 30, deltas: vec![(0, ValueDelta::Int(-1))] },
            undo_next: Lsn(seed % at),
        },
        4 => RecordBody::Update {
            page,
            redo: RedoOp::SlotInsert { idx: 0, bytes: vec![seed as u8; 20] },
            undo: UndoOp::Page { page, op: RedoOp::SlotRemove { idx: 0 } },
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

/// A run of encoded records starting at `LOG_HEADER_LEN`: the records and
/// where each one ends in the run.
fn wal_run(seed: u64, n: u64) -> (Vec<LogRecord>, Vec<u8>, Vec<usize>) {
    let (mut recs, mut bytes, mut ends) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n {
        let rec = record(seed.wrapping_add(i), LOG_HEADER_LEN + bytes.len() as u64);
        bytes.extend(rec.encode_framed());
        ends.push(bytes.len());
        recs.push(rec);
    }
    (recs, bytes, ends)
}

/// What the log makes of a damaged run: `Corruption`, or the records of
/// the run up to the damage, ended as a torn tail.
fn check_damaged_run(recs: &[LogRecord], ends: &[usize], damaged: &[u8], at: usize, what: &str) {
    match LogRecord::decode_run(damaged, LOG_HEADER_LEN) {
        Err(Error::Corruption(_)) => {}
        Err(e) => panic!("{what} at {at}: {e}"),
        Ok((got, used)) => {
            let k = got.len();
            assert!(ends.get(k).is_some_and(|&e| at < e), "{what} at {at}: {k} records decoded past it");
            assert_eq!(got, recs[..k], "{what} at {at}: a record decoded differently");
            assert_eq!(used, if k == 0 { 0 } else { ends[k - 1] }, "{what} at {at}");
        }
    }
}

/// Every truncation and every substitution of one byte, by each of its
/// 255 other values, of an encoded v2 record run.
#[test]
fn wal_runs_refuse_every_truncation_and_byte_substitution() {
    for seed in [0u64, 7, 1 << 40, u64::MAX - 5] {
        let (recs, bytes, ends) = wal_run(seed, 6);
        assert_eq!(LogRecord::decode_run(&bytes, LOG_HEADER_LEN).unwrap(), (recs.clone(), bytes.len()));
        for cut in 0..bytes.len() {
            check_damaged_run(&recs, &ends, &bytes[..cut], cut, "truncation");
        }
        let mut damaged = bytes.clone();
        for at in 0..bytes.len() {
            for v in (0..=255u8).filter(|&v| v != bytes[at]) {
                damaged[at] = v;
                check_damaged_run(&recs, &ends, &damaged, at, "substitution");
            }
            damaged[at] = bytes[at];
        }
    }
}

/// Malformed varints in every varint field — header and body — under a
/// checksum that holds are `Corruption`; in the frame's length field they
/// end the log as a torn tail. Neither panics.
#[test]
fn wal_malformed_varints_are_refused() {
    const OVER_U64: [u8; 10] = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
    const TOO_LONG: [u8; 11] = [0x80; 11];
    const PADDED: [u8; 2] = [0x85, 0x00];
    let at = LOG_HEADER_LEN;
    // (tag and fixed fields before the varint under test, fields after it)
    let mut fields: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let lsn = at.to_le_bytes().to_vec();
    fields.push((lsn.clone(), vec![5, 2]));
    fields.push(([lsn.clone(), vec![0]].concat(), vec![2]));
    let head = [lsn, vec![0, 5]].concat();
    fields.push(([head.clone(), vec![5]].concat(), vec![4, 0, 0]));
    fields.push(([head.clone(), vec![5, 1, 4]].concat(), vec![0]));
    fields.push(([head.clone(), vec![5, 1, 6]].concat(), vec![0, 0, 0]));
    fields.push(([head.clone(), vec![5, 1, 6, 0, 0, 0, 2]].concat(), vec![1, 9]));
    fields.push(([head.clone(), vec![9, 1, 0, 0, 3, 1, 7]].concat(), vec![]));
    fields.push(([head.clone(), vec![9, 1, 0, 0, 3, 1, 7, 1]].concat(), vec![2]));
    fields.push(([head.clone(), vec![9, 1, 0, 0, 3, 1, 7, 1, 2]].concat(), vec![]));
    fields.push(([head, vec![6, 1, 4, 0]].concat(), vec![]));
    for (before, after) in &fields {
        for bad in [&OVER_U64[..], &TOO_LONG[..], &PADDED[..]] {
            let payload = [&before[..], bad, &after[..]].concat();
            match LogRecord::decode_framed(&frame::encode_var(&payload), at) {
                Err(Error::Corruption(_)) => {}
                other => panic!("{bad:?} after {before:?}: {other:?}"),
            }
        }
    }
    let body = record(1, at).encode_framed();
    for bad in [&OVER_U64[..], &TOO_LONG[..], &PADDED[..]] {
        let framed = [bad, &body[1..]].concat();
        assert!(LogRecord::decode_framed(&framed, at).unwrap().is_none(), "length {bad:?}");
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

/// A catalog whose second view takes the first view's name, or whose
/// definitions share an id, is `Corruption`: decoding it would drop a
/// definition or open two definitions over one tree. Each sample is a
/// valid catalog (a table and views `va` and `vb`; every id a distinct
/// 4-byte pattern) with one field overwritten, re-sealed.
#[test]
fn catalog_duplicates_are_refused() {
    let id = |n: u32| 0x5A5A_0000 | n;
    let mut cat = Catalog::new();
    let schema = Schema::new(
        vec![Column::new("id", ValueType::Int), Column::new("grp", ValueType::Int)],
        vec![0],
    )
    .unwrap();
    let (t, root) = (ObjectId(id(1)), PageId(1));
    cat.add_table(TableDef { id: t, name: "t".into(), schema, index: IndexId(id(2)), root })
        .unwrap();
    for (n, name) in [(0x10, "va"), (0x20, "vb")] {
        cat.add_view(ViewDef {
            id: ViewId(id(n)),
            object: ObjectId(id(n + 1)),
            name: name.into(),
            source: ViewSource::Single { table: t, group_by: vec![1] },
            aggs: vec![AggSpec::SumInt { col: 1 }],
            filter: Predicate::True,
            maintenance: MaintenanceMode::Escrow,
            deferred: false,
            eager_group_delete: false,
            index: IndexId(id(n + 2)),
            root,
            group_types: vec![ValueType::Int],
        })
        .unwrap();
    }
    let good = cat.encode();
    assert!(Catalog::decode(&good).is_ok());
    let body = frame::decode_exact(&good[CATALOG_HEADER.len()..], "catalog").unwrap();
    let le = |n: u32| id(n).to_le_bytes().to_vec();
    for (what, from, to) in [
        ("a view's name", b"vb".to_vec(), b"va".to_vec()),
        ("a view id", le(0x20), le(0x10)),
        ("a view's object id", le(0x21), le(0x11)),
        ("a table's object id", le(0x21), le(1)),
        ("a view's index id", le(0x22), le(0x12)),
        ("a table's index id", le(0x22), le(2)),
    ] {
        let at: Vec<usize> = (0..body.len()).filter(|&i| body[i..].starts_with(&from)).collect();
        assert_eq!(at.len(), 1, "{what}: the field is found once");
        let mut patched = body.to_vec();
        patched[at[0]..at[0] + to.len()].copy_from_slice(&to);
        let sealed = [&CATALOG_HEADER[..], &frame::encode(&patched)].concat();
        let decoded = Catalog::decode(&sealed).map(|cat| cat.views().count());
        assert!(matches!(decoded, Err(Error::Corruption(_))), "{what} taken twice: {decoded:?}");
    }
}
