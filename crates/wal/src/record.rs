//! Log record types and their binary encoding.
//!
//! A record is one [`frame`] around
//!
//! ```text
//! [ lsn:u64 | prev_lsn:u64 | txn:u64 | tag:u8 | body ]
//! ```
//!
//! `lsn` is the byte offset the record sits at in the log; the decoder is
//! told that offset and refuses a record that stores another. `prev_lsn`
//! back-chains the records of one transaction (used by rollback and
//! crash-undo). A frame that is short or fails its checksum — a torn tail
//! after a crash — ends the log.

use txview_common::codec::{Reader, Writer};
use txview_common::frame::{self, Decoded};
use txview_common::{Error, IndexId, Lsn, PageId, Result, TxnId, Value};
use txview_storage::page::PageType;
use txview_storage::slotted::Slotted;

/// Numeric delta applied to one column of a view record (escrow op).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ValueDelta {
    /// Integer delta (COUNT_BIG and integer SUM columns).
    Int(i64),
    /// Float delta (float SUM columns).
    Float(f64),
}

impl ValueDelta {
    /// The inverse delta (for logical undo / rollback).
    pub fn inverse(self) -> ValueDelta {
        match self {
            ValueDelta::Int(v) => ValueDelta::Int(-v),
            ValueDelta::Float(v) => ValueDelta::Float(-v),
        }
    }

    /// `self + other`: the one delta addition of escrow accumulators and
    /// cascade coalescing. Refuses integer overflow and mixed types.
    pub fn checked_add(self, other: ValueDelta) -> Result<ValueDelta> {
        match (self, other) {
            (ValueDelta::Int(x), ValueDelta::Int(y)) => x
                .checked_add(y)
                .map(ValueDelta::Int)
                .ok_or_else(|| Error::invalid("delta overflow")),
            (ValueDelta::Float(x), ValueDelta::Float(y)) => Ok(ValueDelta::Float(x + y)),
            _ => Err(Error::corruption("mismatched delta types")),
        }
    }

    /// Apply to a [`Value`] (NULL is treated as zero, per SUM semantics).
    pub fn apply_to(self, v: &Value) -> Result<Value> {
        match self {
            ValueDelta::Int(d) => v.numeric_add(&Value::Int(d)),
            ValueDelta::Float(d) => v.numeric_add(&Value::Float(d)),
        }
    }

    fn encode(&self, w: &mut Writer) {
        match self {
            ValueDelta::Int(v) => {
                w.u8(1).i64(*v);
            }
            ValueDelta::Float(v) => {
                w.u8(2).f64(*v);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<ValueDelta> {
        Ok(match r.u8()? {
            1 => ValueDelta::Int(r.i64()?),
            2 => ValueDelta::Float(r.f64()?),
            t => return Err(Error::corruption(format!("bad delta tag {t}"))),
        })
    }
}

/// Physiological redo operation: re-applied to a single page, idempotently
/// guarded by the pageLSN test. Slot indices refer to the page's slotted
/// area; `Patch` offsets are payload-relative (used for node headers).
#[derive(Clone, PartialEq, Debug)]
pub enum RedoOp {
    /// (Re)format the page with the given type and empty slotted area
    /// preceded by `header_len` reserved header bytes.
    FormatPage {
        /// Page-type tag (see `PageType`).
        ty: u8,
        /// Reserved node-header bytes before the slotted area.
        header_len: u16,
    },
    /// Raw patch of payload bytes (node header fields).
    Patch {
        /// Payload-relative byte offset.
        off: u16,
        /// Replacement bytes.
        bytes: Vec<u8>,
    },
    /// Insert `bytes` as a new slot at `idx`.
    SlotInsert {
        /// Slot position.
        idx: u16,
        /// Record bytes.
        bytes: Vec<u8>,
    },
    /// Remove slot `idx`.
    SlotRemove {
        /// Slot position.
        idx: u16,
    },
    /// Replace slot `idx` with `bytes`.
    SlotUpdate {
        /// Slot position.
        idx: u16,
        /// Replacement record bytes.
        bytes: Vec<u8>,
    },
    /// Patch bytes inside slot `idx` at record offset `off` (ghost bit,
    /// escrow counter result image).
    SlotPatch {
        /// Slot position.
        idx: u16,
        /// Record-relative byte offset.
        off: u16,
        /// Replacement bytes (result image — redo is idempotent via LSN).
        bytes: Vec<u8>,
    },
}

impl RedoOp {
    /// Apply this operation to a page payload. `header_len` bytes at the
    /// start of the payload are reserved for the node header; the slotted
    /// area begins after them.
    pub fn apply(&self, payload: &mut [u8], header_len: usize) -> Result<()> {
        match self {
            RedoOp::FormatPage { header_len: h, .. } => {
                payload.fill(0);
                Slotted::format(&mut payload[*h as usize..]);
            }
            RedoOp::Patch { off, bytes } => {
                let off = *off as usize;
                payload[off..off + bytes.len()].copy_from_slice(bytes);
            }
            RedoOp::SlotInsert { idx, bytes } => {
                Slotted::wrap(&mut payload[header_len..]).insert_at(*idx as usize, bytes)?;
            }
            RedoOp::SlotRemove { idx } => {
                Slotted::wrap(&mut payload[header_len..]).remove_at(*idx as usize);
            }
            RedoOp::SlotUpdate { idx, bytes } => {
                Slotted::wrap(&mut payload[header_len..]).update_at(*idx as usize, bytes)?;
            }
            RedoOp::SlotPatch { idx, off, bytes } => {
                let mut s = Slotted::wrap(&mut payload[header_len..]);
                let rec = s.get_mut(*idx as usize);
                let off = *off as usize;
                rec[off..off + bytes.len()].copy_from_slice(bytes);
            }
        }
        Ok(())
    }

    /// The page type a `FormatPage` op creates (needed when redo must
    /// recreate a never-flushed page); `None` for every other op. A tag
    /// outside [`PageType`]'s table is corruption, never a Free page.
    pub fn format_type(&self) -> Result<Option<PageType>> {
        match self {
            RedoOp::FormatPage { ty, .. } => PageType::from_u8(*ty).map(Some),
            _ => Ok(None),
        }
    }

    fn encode(&self, w: &mut Writer) {
        match self {
            RedoOp::FormatPage { ty, header_len } => {
                w.u8(1).u8(*ty).u16(*header_len);
            }
            RedoOp::Patch { off, bytes } => {
                w.u8(2).u16(*off).bytes(bytes);
            }
            RedoOp::SlotInsert { idx, bytes } => {
                w.u8(3).u16(*idx).bytes(bytes);
            }
            RedoOp::SlotRemove { idx } => {
                w.u8(4).u16(*idx);
            }
            RedoOp::SlotUpdate { idx, bytes } => {
                w.u8(5).u16(*idx).bytes(bytes);
            }
            RedoOp::SlotPatch { idx, off, bytes } => {
                w.u8(6).u16(*idx).u16(*off).bytes(bytes);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<RedoOp> {
        Ok(match r.u8()? {
            1 => RedoOp::FormatPage { ty: r.u8()?, header_len: r.u16()? },
            2 => RedoOp::Patch { off: r.u16()?, bytes: r.bytes()?.to_vec() },
            3 => RedoOp::SlotInsert { idx: r.u16()?, bytes: r.bytes()?.to_vec() },
            4 => RedoOp::SlotRemove { idx: r.u16()? },
            5 => RedoOp::SlotUpdate { idx: r.u16()?, bytes: r.bytes()?.to_vec() },
            6 => RedoOp::SlotPatch { idx: r.u16()?, off: r.u16()?, bytes: r.bytes()?.to_vec() },
            t => return Err(Error::corruption(format!("bad redo tag {t}"))),
        })
    }
}

/// Undo descriptor. `Page` variants are *physical* (system transactions —
/// splits, ghost cleanup); the rest are *logical* and handled by the engine
/// resource manager, which re-traverses the index by key.
#[derive(Clone, PartialEq, Debug)]
pub enum UndoOp {
    /// Redo-only record (CLRs, commits, and committed-system-txn work).
    None,
    /// Physical page-level inverse (system transactions only).
    Page {
        /// The page to apply the inverse to.
        page: PageId,
        /// The inverse operation.
        op: RedoOp,
    },
    /// Undo an index insert: ghost/delete `key`.
    IndexInsert {
        /// Target index.
        index: IndexId,
        /// Encoded key bytes.
        key: Vec<u8>,
    },
    /// Undo an index delete (ghosting): resurrect `key` with `row` bytes.
    IndexDelete {
        /// Target index.
        index: IndexId,
        /// Encoded key bytes.
        key: Vec<u8>,
        /// Record value bytes for defensive re-insertion.
        row: Vec<u8>,
    },
    /// Undo an index update: restore `old_row` under `key`.
    IndexUpdate {
        /// Target index.
        index: IndexId,
        /// Encoded key bytes.
        key: Vec<u8>,
        /// The pre-update value bytes.
        old_row: Vec<u8>,
    },
    /// Undo an escrow delta: apply the inverse deltas to `key`'s record.
    /// `deltas` holds `(region position, delta)` pairs as originally applied.
    Escrow {
        /// The view's index.
        index: IndexId,
        /// Encoded group-key bytes.
        key: Vec<u8>,
        /// Forward pairs as logged (undo applies their inverses).
        deltas: Vec<(u16, ValueDelta)>,
    },
}

impl UndoOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            UndoOp::None => {
                w.u8(0);
            }
            UndoOp::Page { page, op } => {
                w.u8(1).page(*page);
                op.encode(w);
            }
            UndoOp::IndexInsert { index, key } => {
                w.u8(2).u32(index.0).bytes(key);
            }
            UndoOp::IndexDelete { index, key, row } => {
                w.u8(3).u32(index.0).bytes(key).bytes(row);
            }
            UndoOp::IndexUpdate { index, key, old_row } => {
                w.u8(4).u32(index.0).bytes(key).bytes(old_row);
            }
            UndoOp::Escrow { index, key, deltas } => {
                w.u8(5).u32(index.0).bytes(key);
                w.u16(deltas.len() as u16);
                for (col, d) in deltas {
                    w.u16(*col);
                    d.encode(w);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<UndoOp> {
        Ok(match r.u8()? {
            0 => UndoOp::None,
            1 => UndoOp::Page { page: r.page()?, op: RedoOp::decode(r)? },
            2 => UndoOp::IndexInsert { index: IndexId(r.u32()?), key: r.bytes()?.to_vec() },
            3 => UndoOp::IndexDelete {
                index: IndexId(r.u32()?),
                key: r.bytes()?.to_vec(),
                row: r.bytes()?.to_vec(),
            },
            4 => UndoOp::IndexUpdate {
                index: IndexId(r.u32()?),
                key: r.bytes()?.to_vec(),
                old_row: r.bytes()?.to_vec(),
            },
            5 => {
                let index = IndexId(r.u32()?);
                let key = r.bytes()?.to_vec();
                let n = r.u16()? as usize;
                let mut deltas = Vec::with_capacity(n);
                for _ in 0..n {
                    let col = r.u16()?;
                    deltas.push((col, ValueDelta::decode(r)?));
                }
                UndoOp::Escrow { index, key, deltas }
            }
            t => return Err(Error::corruption(format!("bad undo tag {t}"))),
        })
    }
}

/// Whether a transaction is a user transaction or a system transaction
/// (nested top action for structure modifications / ghost cleanup).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnKind {
    /// Ordinary user transaction.
    User,
    /// System transaction: commits independently; physically undone if
    /// caught in-flight by a crash.
    System,
}

/// The variants a log record body can take.
#[derive(Clone, PartialEq, Debug)]
pub enum RecordBody {
    /// Transaction begin.
    Begin {
        /// User or system transaction.
        kind: TxnKind,
    },
    /// Transaction commit (durable once this record is flushed).
    Commit,
    /// Rollback has started (records after this are CLRs).
    Abort,
    /// Transaction fully finished (after commit or complete rollback).
    End,
    /// A page modification with its redo image and undo descriptor.
    Update {
        /// The modified page.
        page: PageId,
        /// Physiological redo operation.
        redo: RedoOp,
        /// Undo descriptor (logical, physical, or none).
        undo: UndoOp,
    },
    /// Compensation record: the redo image of one undo step;
    /// `undo_next` points at the next record to undo.
    Clr {
        /// The modified page.
        page: PageId,
        /// Physiological redo of the undo step.
        redo: RedoOp,
        /// Where undo continues after this compensation.
        undo_next: Lsn,
    },
    /// Fuzzy checkpoint: where restart must start reading, the next
    /// transaction id, and the dirty-page table. The active-transaction
    /// table is not stored: the scan starts at or before every bracket
    /// still open, so restart rebuilds it from the records themselves.
    Checkpoint {
        /// LSN restart reads the log from: the earliest of the oldest open
        /// bracket's Begin, the dirty pages' recLSNs and the point the
        /// checkpoint began.
        scan_from: u64,
        /// LSN the checkpoint began at. Page records from here on may
        /// postdate the dirty-page snapshot, so analysis adds their pages
        /// to the DPT itself; older ones are covered by `dirty`.
        begin: Lsn,
        /// Every transaction id allocated before this record is below it;
        /// restart allocates from here (or above any later record's id).
        next_txn: u64,
        /// (page, recLSN) of each dirty page at checkpoint.
        dirty: Vec<(PageId, Lsn)>,
    },
}

/// A fully decoded log record.
#[derive(Clone, PartialEq, Debug)]
pub struct LogRecord {
    /// This record's LSN: the byte offset it sits at in the log.
    pub lsn: Lsn,
    /// Previous record of the same transaction (back-chain), or null.
    pub prev_lsn: Lsn,
    /// Owning transaction (TxnId::NONE for checkpoints).
    pub txn: TxnId,
    /// Payload.
    pub body: RecordBody,
}

impl LogRecord {
    /// Encode including framing (length + checksum).
    pub fn encode_framed(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        w.lsn(self.lsn).lsn(self.prev_lsn).txn(self.txn);
        match &self.body {
            RecordBody::Begin { kind } => {
                w.u8(1).u8(match kind {
                    TxnKind::User => 0,
                    TxnKind::System => 1,
                });
            }
            RecordBody::Commit => {
                w.u8(2);
            }
            RecordBody::Abort => {
                w.u8(3);
            }
            RecordBody::End => {
                w.u8(4);
            }
            RecordBody::Update { page, redo, undo } => {
                w.u8(5).page(*page);
                redo.encode(&mut w);
                undo.encode(&mut w);
            }
            RecordBody::Clr { page, redo, undo_next } => {
                w.u8(6).page(*page);
                redo.encode(&mut w);
                w.lsn(*undo_next);
            }
            RecordBody::Checkpoint { scan_from, begin, next_txn, dirty } => {
                // Tag 7 was the retired layout that carried an active-
                // transaction list; it decodes to corruption below.
                w.u8(8).u64(*scan_from).lsn(*begin).u64(*next_txn);
                w.u32(dirty.len() as u32);
                for (p, l) in dirty {
                    w.page(*p).lsn(*l);
                }
            }
        }
        frame::encode(&w.into_bytes())
    }

    /// Decode one framed record from `buf`, which starts at LSN `at` in
    /// the log, returning it and the bytes consumed. Returns `Ok(None)` for
    /// a clean end / torn tail, and `Corruption` for a whole record that
    /// stores an LSN other than `at`: it was written somewhere else.
    pub fn decode_framed(buf: &[u8], at: u64) -> Result<Option<(LogRecord, usize)>> {
        let Decoded::Complete(payload, used) = frame::decode(buf, usize::MAX) else {
            return Ok(None);
        };
        let mut r = Reader::new(payload);
        let lsn = r.lsn()?;
        if lsn.0 != at {
            return Err(Error::corruption(format!("record at offset {at} stores {lsn:?}")));
        }
        let prev_lsn = r.lsn()?;
        let txn = r.txn()?;
        let body = match r.u8()? {
            1 => RecordBody::Begin {
                kind: match r.u8()? {
                    0 => TxnKind::User,
                    _ => TxnKind::System,
                },
            },
            2 => RecordBody::Commit,
            3 => RecordBody::Abort,
            4 => RecordBody::End,
            5 => RecordBody::Update {
                page: r.page()?,
                redo: RedoOp::decode(&mut r)?,
                undo: UndoOp::decode(&mut r)?,
            },
            6 => RecordBody::Clr {
                page: r.page()?,
                redo: RedoOp::decode(&mut r)?,
                undo_next: r.lsn()?,
            },
            8 => {
                let scan_from = r.u64()?;
                let begin = r.lsn()?;
                let next_txn = r.u64()?;
                let nd = r.u32()? as usize;
                let mut dirty = Vec::with_capacity(nd);
                for _ in 0..nd {
                    dirty.push((r.page()?, r.lsn()?));
                }
                RecordBody::Checkpoint { scan_from, begin, next_txn, dirty }
            }
            t => return Err(Error::corruption(format!("bad record tag {t}"))),
        };
        Ok(Some((LogRecord { lsn, prev_lsn, txn, body }, used)))
    }

    /// Decode the whole records at the front of `bytes`, which start at LSN
    /// `at`, plus how many bytes they span.
    pub fn decode_run(bytes: &[u8], at: u64) -> Result<(Vec<LogRecord>, usize)> {
        let (mut out, mut off) = (Vec::new(), 0usize);
        while let Some((rec, used)) = LogRecord::decode_framed(&bytes[off..], at + off as u64)? {
            out.push(rec);
            off += used;
        }
        Ok((out, off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: &LogRecord) {
        let bytes = rec.encode_framed();
        let (back, used) = LogRecord::decode_framed(&bytes, rec.lsn.0).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(&back, rec);
    }

    #[test]
    fn roundtrip_all_bodies() {
        let bodies = vec![
            RecordBody::Begin { kind: TxnKind::User },
            RecordBody::Begin { kind: TxnKind::System },
            RecordBody::Commit,
            RecordBody::Abort,
            RecordBody::End,
            RecordBody::Update {
                page: PageId(3),
                redo: RedoOp::SlotInsert { idx: 2, bytes: vec![1, 2, 3] },
                undo: UndoOp::IndexInsert { index: IndexId(7), key: vec![9] },
            },
            RecordBody::Update {
                page: PageId(3),
                redo: RedoOp::SlotPatch { idx: 0, off: 4, bytes: vec![0xFF] },
                undo: UndoOp::Escrow {
                    index: IndexId(1),
                    key: vec![1, 2],
                    deltas: vec![(2, ValueDelta::Int(-5)), (3, ValueDelta::Float(1.5))],
                },
            },
            RecordBody::Clr {
                page: PageId(9),
                redo: RedoOp::SlotRemove { idx: 1 },
                undo_next: Lsn(17),
            },
            RecordBody::Checkpoint {
                scan_from: 4096,
                begin: Lsn(40),
                next_txn: 12,
                dirty: vec![(PageId(1), Lsn(30)), (PageId(2), Lsn(35))],
            },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            roundtrip(&LogRecord {
                lsn: Lsn(100 + i as u64),
                prev_lsn: Lsn(50),
                txn: TxnId(8),
                body,
            });
        }
    }

    #[test]
    fn torn_tail_returns_none() {
        let rec = LogRecord {
            lsn: Lsn(1),
            prev_lsn: Lsn::NULL,
            txn: TxnId(1),
            body: RecordBody::Commit,
        };
        let bytes = rec.encode_framed();
        for cut in 0..bytes.len() {
            assert!(LogRecord::decode_framed(&bytes[..cut], 1).unwrap().is_none());
        }
    }

    #[test]
    fn corrupt_payload_returns_none() {
        let rec = LogRecord {
            lsn: Lsn(1),
            prev_lsn: Lsn::NULL,
            txn: TxnId(1),
            body: RecordBody::Commit,
        };
        let mut bytes = rec.encode_framed();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(LogRecord::decode_framed(&bytes, 1).unwrap().is_none());
    }

    /// The retired checkpoint layout (tag 7: an active-transaction list,
    /// then the DPT) is refused as corruption, not misread as the new one.
    #[test]
    fn retired_checkpoint_tag_is_corruption() {
        let mut w = Writer::with_capacity(64);
        w.lsn(Lsn(9)).lsn(Lsn::NULL).txn(TxnId::NONE);
        w.u8(7).u32(1).txn(TxnId(5)).u8(0).lsn(Lsn(4)).u32(0);
        let err = LogRecord::decode_framed(&frame::encode(&w.into_bytes()), 9).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "got {err:?}");
    }

    #[test]
    fn delta_inverse_and_apply() {
        let d = ValueDelta::Int(5);
        assert_eq!(d.inverse(), ValueDelta::Int(-5));
        assert_eq!(d.apply_to(&Value::Int(10)).unwrap(), Value::Int(15));
        assert_eq!(d.apply_to(&Value::Null).unwrap(), Value::Int(5));
        let f = ValueDelta::Float(-0.5);
        assert_eq!(f.apply_to(&Value::Float(2.0)).unwrap(), Value::Float(1.5));
    }

    #[test]
    fn redo_ops_apply_to_payload() {
        let mut payload = vec![0u8; 256];
        RedoOp::FormatPage { ty: 2, header_len: 16 }
            .apply(&mut payload, 16)
            .unwrap();
        RedoOp::SlotInsert { idx: 0, bytes: vec![7, 8, 9] }
            .apply(&mut payload, 16)
            .unwrap();
        RedoOp::SlotInsert { idx: 1, bytes: vec![1, 1] }
            .apply(&mut payload, 16)
            .unwrap();
        RedoOp::SlotPatch { idx: 0, off: 1, bytes: vec![0xAA] }
            .apply(&mut payload, 16)
            .unwrap();
        {
            let mut tmp = payload.clone();
            let s = Slotted::wrap(&mut tmp[16..]);
            assert_eq!(s.get(0), &[7, 0xAA, 9]);
            assert_eq!(s.count(), 2);
        }
        RedoOp::SlotRemove { idx: 0 }.apply(&mut payload, 16).unwrap();
        RedoOp::SlotUpdate { idx: 0, bytes: vec![5] }
            .apply(&mut payload, 16)
            .unwrap();
        let s = Slotted::wrap(&mut payload[16..]);
        assert_eq!(s.count(), 1);
        assert_eq!(s.get(0), &[5]);
        RedoOp::Patch { off: 200, bytes: vec![1, 2] }
            .apply(&mut payload, 16)
            .unwrap();
        assert_eq!(&payload[200..202], &[1, 2]);
    }

    #[test]
    fn format_type_mapping() {
        assert_eq!(
            RedoOp::FormatPage { ty: 2, header_len: 0 }.format_type().unwrap(),
            Some(PageType::BTreeLeaf)
        );
        assert_eq!(
            RedoOp::FormatPage { ty: 0, header_len: 0 }.format_type().unwrap(),
            Some(PageType::Free)
        );
        assert_eq!(RedoOp::SlotRemove { idx: 0 }.format_type().unwrap(), None);
        for ty in [5u8, 9] {
            let err = RedoOp::FormatPage { ty, header_len: 0 }.format_type().unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "tag {ty}: {err}");
        }
    }
}
