//! Log record types and their binary encoding (log format version 2).
//!
//! A record is one varint [`frame`] around
//!
//! ```text
//! [ lsn:u64 | prev:varint | txn:varint | tag:u8 | body ]
//! ```
//!
//! `lsn` is the byte offset the record sits at in the log; the decoder is
//! told that offset and refuses a record that stores another, so a record
//! copied or misplaced is `Corruption`, never a torn tail. `prev` is the
//! back-distance to the previous record of the same transaction (0: none)
//! and back-chains a transaction's records for rollback and crash-undo; a
//! CLR's `undo_next` is stored the same way. Page ids, slot indices,
//! offsets, index ids and lengths are varints too. A frame that is short
//! or fails its checksum (a torn tail after a crash) ends the log.
//!
//! There is no Begin record: a transaction's first record opens its
//! bracket, and Commit (or End, after a rollback) closes it. A transaction
//! that logged no page record logs nothing at all.
//!
//! What a record carries is what redo and undo need:
//!
//! * an escrow change carries one delta list, nonzero entries only, with
//!   zigzag-varint integers. Redo adds it to the row under the pageLSN
//!   test ([`RedoOp::SlotAdd`]); undo adds its inverse by key
//!   ([`UndoOp::Escrow`]); record tag 9 stores the list once for both;
//! * a same-length row update carries only the changed byte range: redo
//!   is a [`RedoOp::SlotPatch`], undo an [`UndoOp::IndexPatch`] of the old
//!   bytes at the same value offset.

use txview_common::codec::{Reader, Writer};
use txview_common::frame::{self, Decoded};
use txview_common::{Error, IndexId, Lsn, PageId, Result, TxnId, Value};
use txview_storage::page::PageType;
use txview_storage::slotted::{Slotted, AREA_HEADER_LEN};

/// Largest record payload the decoder accepts; a longer length field is a
/// torn or damaged frame.
pub const MAX_RECORD_LEN: usize = u32::MAX as usize;

/// Encoded byte length of one fixed-width INT/FLOAT value (tag + 8): the
/// unit [`RedoOp::SlotAdd`] positions count in.
pub const FIXED_VALUE_BYTES: usize = 9;

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

    /// True for a delta that changes no stored value: `Int(0)`, or a float
    /// zero of either sign (stored float sums start at +0.0 and never
    /// become -0.0 by addition, so neither zero changes one).
    pub fn is_zero(self) -> bool {
        match self {
            ValueDelta::Int(v) => v == 0,
            ValueDelta::Float(v) => v == 0.0,
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

    /// Apply to a stored aggregate, refusing any type-changing coercion: an
    /// `Int` delta reaches only an `Int` value and a `Float` delta only a
    /// `Float` (the permissive [`ValueDelta::apply_to`] would promote
    /// `Int + Float` to `Float`, changing the column's stored type).
    pub fn apply_checked(self, v: &Value) -> Result<Value> {
        match (self, v) {
            (ValueDelta::Int(_), Value::Int(_)) | (ValueDelta::Float(_), Value::Float(_)) => {
                self.apply_to(v)
            }
            (d, v) => Err(Error::type_mismatch(
                format!("{} delta for stored aggregate {v:?}", stored_kind(v)),
                format!("{d:?}"),
            )),
        }
    }
}

fn stored_kind(v: &Value) -> &'static str {
    match v {
        Value::Int(_) => "Int",
        Value::Float(_) => "Float",
        _ => "numeric",
    }
}

/// Add `(position, delta)` pairs to a region of fixed-width values, in
/// place: position `p` is the value at bytes `9p..9p + 9`. Every pair is
/// checked ([`ValueDelta::apply_checked`], and the position must lie inside
/// `region` and appear once) before any byte is written, so an error leaves
/// the region as it was. Redo of [`RedoOp::SlotAdd`] and the version
/// store's materializer both add through here.
///
/// Each call adds the first pair into a 9-byte buffer on its own stack
/// frame, checks (and adds) the rest, and only then writes its sum: the
/// sums are all computed, once each and without allocating, before the
/// first write. Positions are distinct, so no write changes what another
/// pair reads, and in range, so the depth is at most one more than the
/// region's value count.
pub fn add_deltas(region: &mut [u8], pairs: &[(u16, ValueDelta)]) -> Result<()> {
    let Some((&(pos, d), rest)) = pairs.split_first() else {
        return Ok(());
    };
    if rest.iter().any(|&(p, _)| p == pos) {
        return Err(Error::corruption(format!("escrow position {pos} repeated")));
    }
    let at = pos as usize * FIXED_VALUE_BYTES;
    let slot = region
        .get(at..)
        .and_then(|r| r.get(..FIXED_VALUE_BYTES))
        .ok_or_else(|| Error::corruption("escrow position out of range"))?;
    let mut sum = [0; FIXED_VALUE_BYTES];
    d.apply_checked(&Value::decode(&mut Reader::new(slot))?)?.encode_fixed(&mut sum)?;
    add_deltas(region, rest)?;
    region[at..][..FIXED_VALUE_BYTES].copy_from_slice(&sum);
    Ok(())
}

fn encode_deltas(w: &mut Writer, deltas: &[(u16, ValueDelta)]) {
    w.varint(deltas.len() as u64);
    for &(pos, d) in deltas {
        match d {
            ValueDelta::Int(v) => {
                w.varint(u64::from(pos) << 1).zigzag(v);
            }
            ValueDelta::Float(v) => {
                w.varint(u64::from(pos) << 1 | 1).f64(v);
            }
        }
    }
}

fn decode_deltas(r: &mut Reader<'_>) -> Result<Vec<(u16, ValueDelta)>> {
    let n = r.varint()?;
    // Each pair takes at least two bytes: a longer count is damage, and
    // must not size an allocation.
    if n > r.remaining() as u64 / 2 {
        return Err(Error::corruption(format!("delta list of {n} pairs overruns its record")));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let head = r.varint()?;
        let pos = narrow::<u16>(head >> 1, "delta position")?;
        let d = if head & 1 == 0 { ValueDelta::Int(r.zigzag()?) } else { ValueDelta::Float(r.f64()?) };
        out.push((pos, d));
    }
    Ok(out)
}

/// A decoded varint narrowed to its field's width; a wider value is damage.
fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T> {
    T::try_from(v).map_err(|_| Error::corruption(format!("{what} {v} out of range")))
}

fn read_u16(r: &mut Reader<'_>, what: &str) -> Result<u16> {
    narrow(r.varint()?, what)
}

fn read_page(r: &mut Reader<'_>) -> Result<PageId> {
    Ok(PageId(narrow(r.varint()?, "page id")?))
}

fn read_index(r: &mut Reader<'_>) -> Result<IndexId> {
    Ok(IndexId(narrow(r.varint()?, "index id")?))
}

fn out_of_bounds(what: &str) -> Error {
    Error::corruption(format!("redo {what} out of bounds"))
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
    /// the changed range of a same-length row update).
    SlotPatch {
        /// Slot position.
        idx: u16,
        /// Record-relative byte offset.
        off: u16,
        /// Replacement bytes (an image: redo is idempotent via the LSN).
        bytes: Vec<u8>,
    },
    /// Add `deltas` to the fixed-width values of slot `idx` starting at
    /// record offset `off` (an escrow change; see [`add_deltas`]). Redo
    /// applies each such record once, by the pageLSN test, in LSN order;
    /// addition commutes, so the result does not depend on the order two
    /// E-lock holders applied their deltas in.
    SlotAdd {
        /// Slot position.
        idx: u16,
        /// Record-relative byte offset of position 0.
        off: u16,
        /// `(position, delta)` pairs, nonzero only.
        deltas: Vec<(u16, ValueDelta)>,
    },
}

impl RedoOp {
    /// Apply this operation to a page payload. `header_len` bytes at the
    /// start of the payload are reserved for the node header; the slotted
    /// area begins after them. A slot index that is not a live slot (one
    /// past the last for an insert), or a range outside the record or
    /// payload, is `Corruption`, and the payload is left as it was.
    pub fn apply(&self, payload: &mut [u8], header_len: usize) -> Result<()> {
        if let RedoOp::FormatPage { header_len: h, .. } = self {
            let h = *h as usize;
            if h + AREA_HEADER_LEN > payload.len() {
                return Err(out_of_bounds("format header"));
            }
            payload.fill(0);
            Slotted::format(&mut payload[h..]);
            return Ok(());
        }
        if let RedoOp::Patch { off, bytes } = self {
            let at = *off as usize;
            let dst = payload.get_mut(at..at + bytes.len()).ok_or_else(|| out_of_bounds("patch"))?;
            dst.copy_from_slice(bytes);
            return Ok(());
        }
        let area = payload
            .get_mut(header_len..)
            .filter(|a| a.len() >= AREA_HEADER_LEN)
            .ok_or_else(|| out_of_bounds("slotted area"))?;
        let mut s = Slotted::wrap(area);
        let count = s.count();
        match self {
            RedoOp::FormatPage { .. } | RedoOp::Patch { .. } => unreachable!("handled above"),
            RedoOp::SlotInsert { idx, bytes } => {
                if *idx as usize > count {
                    return Err(out_of_bounds("slot insert index"));
                }
                s.insert_at(*idx as usize, bytes)?;
            }
            RedoOp::SlotRemove { idx } => {
                if *idx as usize >= count {
                    return Err(out_of_bounds("slot remove index"));
                }
                s.remove_at(*idx as usize);
            }
            RedoOp::SlotUpdate { idx, bytes } => {
                if *idx as usize >= count {
                    return Err(out_of_bounds("slot update index"));
                }
                s.update_at(*idx as usize, bytes)?;
            }
            RedoOp::SlotPatch { idx, off, bytes } => {
                let rec = s.try_get_mut(*idx as usize).ok_or_else(|| out_of_bounds("slot patch index"))?;
                let at = *off as usize;
                let dst = rec.get_mut(at..at + bytes.len()).ok_or_else(|| out_of_bounds("slot patch"))?;
                dst.copy_from_slice(bytes);
            }
            RedoOp::SlotAdd { idx, off, deltas } => {
                let rec = s.try_get_mut(*idx as usize).ok_or_else(|| out_of_bounds("slot add index"))?;
                let region = rec.get_mut(*off as usize..).ok_or_else(|| out_of_bounds("slot add"))?;
                add_deltas(region, deltas)?;
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
                w.u8(1).u8(*ty).varint(u64::from(*header_len));
            }
            RedoOp::Patch { off, bytes } => {
                w.u8(2).varint(u64::from(*off)).var_bytes(bytes);
            }
            RedoOp::SlotInsert { idx, bytes } => {
                w.u8(3).varint(u64::from(*idx)).var_bytes(bytes);
            }
            RedoOp::SlotRemove { idx } => {
                w.u8(4).varint(u64::from(*idx));
            }
            RedoOp::SlotUpdate { idx, bytes } => {
                w.u8(5).varint(u64::from(*idx)).var_bytes(bytes);
            }
            RedoOp::SlotPatch { idx, off, bytes } => {
                w.u8(6).varint(u64::from(*idx)).varint(u64::from(*off)).var_bytes(bytes);
            }
            RedoOp::SlotAdd { idx, off, deltas } => {
                w.u8(7).varint(u64::from(*idx)).varint(u64::from(*off));
                encode_deltas(w, deltas);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<RedoOp> {
        Ok(match r.u8()? {
            1 => RedoOp::FormatPage { ty: r.u8()?, header_len: read_u16(r, "header length")? },
            2 => RedoOp::Patch { off: read_u16(r, "offset")?, bytes: r.var_bytes()?.to_vec() },
            3 => RedoOp::SlotInsert { idx: read_u16(r, "slot")?, bytes: r.var_bytes()?.to_vec() },
            4 => RedoOp::SlotRemove { idx: read_u16(r, "slot")? },
            5 => RedoOp::SlotUpdate { idx: read_u16(r, "slot")?, bytes: r.var_bytes()?.to_vec() },
            6 => RedoOp::SlotPatch {
                idx: read_u16(r, "slot")?,
                off: read_u16(r, "offset")?,
                bytes: r.var_bytes()?.to_vec(),
            },
            7 => RedoOp::SlotAdd {
                idx: read_u16(r, "slot")?,
                off: read_u16(r, "offset")?,
                deltas: decode_deltas(r)?,
            },
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
    /// Undo a same-length index update: put `old` back at byte `off` of
    /// `key`'s value.
    IndexPatch {
        /// Target index.
        index: IndexId,
        /// Encoded key bytes.
        key: Vec<u8>,
        /// Value-relative byte offset of the changed range.
        off: u16,
        /// The range's pre-update bytes.
        old: Vec<u8>,
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
                w.u8(1).varint(u64::from(page.0));
                op.encode(w);
            }
            UndoOp::IndexInsert { index, key } => {
                w.u8(2).varint(u64::from(index.0)).var_bytes(key);
            }
            UndoOp::IndexDelete { index, key, row } => {
                w.u8(3).varint(u64::from(index.0)).var_bytes(key).var_bytes(row);
            }
            UndoOp::IndexUpdate { index, key, old_row } => {
                w.u8(4).varint(u64::from(index.0)).var_bytes(key).var_bytes(old_row);
            }
            UndoOp::Escrow { index, key, deltas } => {
                w.u8(5).varint(u64::from(index.0)).var_bytes(key);
                encode_deltas(w, deltas);
            }
            UndoOp::IndexPatch { index, key, off, old } => {
                w.u8(6).varint(u64::from(index.0)).var_bytes(key);
                w.varint(u64::from(*off)).var_bytes(old);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<UndoOp> {
        Ok(match r.u8()? {
            0 => UndoOp::None,
            1 => UndoOp::Page { page: read_page(r)?, op: RedoOp::decode(r)? },
            2 => UndoOp::IndexInsert { index: read_index(r)?, key: r.var_bytes()?.to_vec() },
            3 => UndoOp::IndexDelete {
                index: read_index(r)?,
                key: r.var_bytes()?.to_vec(),
                row: r.var_bytes()?.to_vec(),
            },
            4 => UndoOp::IndexUpdate {
                index: read_index(r)?,
                key: r.var_bytes()?.to_vec(),
                old_row: r.var_bytes()?.to_vec(),
            },
            5 => UndoOp::Escrow {
                index: read_index(r)?,
                key: r.var_bytes()?.to_vec(),
                deltas: decode_deltas(r)?,
            },
            6 => UndoOp::IndexPatch {
                index: read_index(r)?,
                key: r.var_bytes()?.to_vec(),
                off: read_u16(r, "offset")?,
                old: r.var_bytes()?.to_vec(),
            },
            t => return Err(Error::corruption(format!("bad undo tag {t}"))),
        })
    }
}

/// The variants a log record body can take.
#[derive(Clone, PartialEq, Debug)]
pub enum RecordBody {
    /// Transaction commit (durable once this record is flushed). Closes
    /// the transaction's bracket: nothing of it follows.
    Commit,
    /// Rollback has started (records after this are CLRs).
    Abort,
    /// Rollback finished: closes the bracket of a rolled-back transaction.
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
        /// bracket's first record, the dirty pages' recLSNs and the point
        /// the checkpoint began.
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

/// `to`, an earlier LSN (or null), as a back-distance from `from`.
fn back(from: Lsn, to: Lsn) -> u64 {
    if to.is_null() {
        return 0;
    }
    from.0.checked_sub(to.0).filter(|&d| d > 0).expect("a back-chain points at an earlier record")
}

/// Undo [`back`]: 0 is null; a distance reaching offset 0 or below is
/// damage.
fn read_back(r: &mut Reader<'_>, from: u64) -> Result<Lsn> {
    match r.varint()? {
        0 => Ok(Lsn::NULL),
        d if d < from => Ok(Lsn(from - d)),
        d => Err(Error::corruption(format!("back-chain of {d} bytes from offset {from}"))),
    }
}

impl LogRecord {
    /// Encode including framing (varint length + checksum).
    pub fn encode_framed(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_framed_into(&mut Vec::with_capacity(64), &mut out);
        out
    }

    /// [`LogRecord::encode_framed`], appended to `out`. The payload is
    /// built in `scratch`, whose allocation the next record reuses.
    pub fn encode_framed_into(&self, scratch: &mut Vec<u8>, out: &mut Vec<u8>) {
        let mut w = Writer::reuse(std::mem::take(scratch));
        w.lsn(self.lsn).varint(back(self.lsn, self.prev_lsn)).varint(self.txn.0);
        match &self.body {
            RecordBody::Commit => {
                w.u8(2);
            }
            RecordBody::Abort => {
                w.u8(3);
            }
            RecordBody::End => {
                w.u8(4);
            }
            RecordBody::Update {
                page,
                redo: RedoOp::SlotAdd { idx, off, deltas },
                undo: UndoOp::Escrow { index, key, deltas: undo_deltas },
            } if deltas == undo_deltas => {
                // An escrow change: one delta list for redo and undo.
                w.u8(9).varint(u64::from(page.0)).varint(u64::from(*idx)).varint(u64::from(*off));
                w.varint(u64::from(index.0)).var_bytes(key);
                encode_deltas(&mut w, deltas);
            }
            RecordBody::Update { page, redo, undo } => {
                w.u8(5).varint(u64::from(page.0));
                redo.encode(&mut w);
                undo.encode(&mut w);
            }
            RecordBody::Clr { page, redo, undo_next } => {
                w.u8(6).varint(u64::from(page.0));
                redo.encode(&mut w);
                w.varint(back(self.lsn, *undo_next));
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
        *scratch = w.into_bytes();
        frame::encode_var_into(out, scratch);
    }

    /// Decode one framed record from `buf`, which starts at LSN `at` in
    /// the log, returning it and the bytes consumed. Returns `Ok(None)` for
    /// a clean end / torn tail, and `Corruption` for a whole record that
    /// stores an LSN other than `at` (it was written somewhere else) or
    /// whose checksummed body does not decode (tag 1, the retired Begin,
    /// among them).
    pub fn decode_framed(buf: &[u8], at: u64) -> Result<Option<(LogRecord, usize)>> {
        let Decoded::Complete(payload, used) = frame::decode_var(buf, MAX_RECORD_LEN) else {
            return Ok(None);
        };
        let mut r = Reader::new(payload);
        let lsn = r.lsn()?;
        if lsn.0 != at {
            return Err(Error::corruption(format!("record at offset {at} stores {lsn:?}")));
        }
        let prev_lsn = read_back(&mut r, at)?;
        let txn = TxnId(r.varint()?);
        let body = match r.u8()? {
            2 => RecordBody::Commit,
            3 => RecordBody::Abort,
            4 => RecordBody::End,
            5 => RecordBody::Update {
                page: read_page(&mut r)?,
                redo: RedoOp::decode(&mut r)?,
                undo: UndoOp::decode(&mut r)?,
            },
            6 => RecordBody::Clr {
                page: read_page(&mut r)?,
                redo: RedoOp::decode(&mut r)?,
                undo_next: read_back(&mut r, at)?,
            },
            8 => {
                let scan_from = r.u64()?;
                let begin = r.lsn()?;
                let next_txn = r.u64()?;
                let nd = r.u32()? as usize;
                let mut dirty = Vec::with_capacity(nd.min(r.remaining() / 12));
                for _ in 0..nd {
                    dirty.push((r.page()?, r.lsn()?));
                }
                RecordBody::Checkpoint { scan_from, begin, next_txn, dirty }
            }
            9 => {
                let page = read_page(&mut r)?;
                let (idx, off) = (read_u16(&mut r, "slot")?, read_u16(&mut r, "offset")?);
                let (index, key) = (read_index(&mut r)?, r.var_bytes()?.to_vec());
                let deltas = decode_deltas(&mut r)?;
                RecordBody::Update {
                    page,
                    redo: RedoOp::SlotAdd { idx, off, deltas: deltas.clone() },
                    undo: UndoOp::Escrow { index, key, deltas },
                }
            }
            t => return Err(Error::corruption(format!("bad record tag {t}"))),
        };
        if !r.is_exhausted() {
            return Err(Error::corruption(format!("{} bytes after the record at {at}", r.remaining())));
        }
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

/// A run of whole records and the bytes they were decoded from, at the LSN
/// the first one stores: what a follower appends verbatim to its own log.
/// Only [`RecordRun::decode`] makes one, so the records are always those
/// bytes' records.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordRun {
    start: u64,
    bytes: Vec<u8>,
    records: Vec<LogRecord>,
}

impl RecordRun {
    /// Decode `bytes` as whole records starting at LSN `start`:
    /// `Corruption` when one fails its checksum or stores another LSN, or
    /// when the run ends inside a record.
    pub fn decode(bytes: Vec<u8>, start: u64) -> Result<RecordRun> {
        let (records, used) = LogRecord::decode_run(&bytes, start)?;
        if used != bytes.len() {
            return Err(Error::corruption("record run ends inside a record"));
        }
        Ok(RecordRun { start, bytes, records })
    }

    /// LSN of the first record.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Byte offset just past the last record.
    pub fn end(&self) -> u64 {
        self.start + self.bytes.len() as u64
    }

    /// The encoded records.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The decoded records.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: &LogRecord) -> usize {
        let bytes = rec.encode_framed();
        let (back, used) = LogRecord::decode_framed(&bytes, rec.lsn.0).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(&back, rec);
        used
    }

    fn escrow_update(deltas: Vec<(u16, ValueDelta)>) -> RecordBody {
        RecordBody::Update {
            page: PageId(3),
            redo: RedoOp::SlotAdd { idx: 0, off: 12, deltas: deltas.clone() },
            undo: UndoOp::Escrow { index: IndexId(1), key: vec![1, 2], deltas },
        }
    }

    #[test]
    fn roundtrip_all_bodies() {
        let bodies = vec![
            RecordBody::Commit,
            RecordBody::Abort,
            RecordBody::End,
            RecordBody::Update {
                page: PageId(3),
                redo: RedoOp::SlotInsert { idx: 2, bytes: vec![1, 2, 3] },
                undo: UndoOp::IndexInsert { index: IndexId(7), key: vec![9] },
            },
            escrow_update(vec![(1, ValueDelta::Int(-5)), (3, ValueDelta::Float(1.5))]),
            // An escrow undo beside another redo takes the general layout.
            RecordBody::Update {
                page: PageId(3),
                redo: RedoOp::SlotPatch { idx: 0, off: 4, bytes: vec![0xFF] },
                undo: UndoOp::Escrow {
                    index: IndexId(1),
                    key: vec![1, 2],
                    deltas: vec![(0, ValueDelta::Int(i64::MIN)), (2, ValueDelta::Float(-0.25))],
                },
            },
            RecordBody::Update {
                page: PageId(70_000),
                redo: RedoOp::SlotPatch { idx: 300, off: 40, bytes: vec![7, 8] },
                undo: UndoOp::IndexPatch { index: IndexId(2), key: vec![4; 9], off: 17, old: vec![5, 6] },
            },
            RecordBody::Update {
                page: PageId(4),
                redo: RedoOp::FormatPage { ty: 2, header_len: 16 },
                undo: UndoOp::Page { page: PageId(4), op: RedoOp::Patch { off: 0, bytes: vec![0; 16] } },
            },
            RecordBody::Update {
                page: PageId(4),
                redo: RedoOp::SlotUpdate { idx: 1, bytes: vec![3; 40] },
                undo: UndoOp::IndexUpdate { index: IndexId(2), key: vec![1], old_row: vec![2; 30] },
            },
            RecordBody::Update {
                page: PageId(4),
                redo: RedoOp::SlotRemove { idx: 1 },
                undo: UndoOp::IndexDelete { index: IndexId(2), key: vec![1], row: vec![2; 30] },
            },
            RecordBody::Clr {
                page: PageId(9),
                redo: RedoOp::SlotRemove { idx: 1 },
                undo_next: Lsn(17),
            },
            RecordBody::Clr {
                page: PageId(9),
                redo: RedoOp::SlotAdd { idx: 1, off: 3, deltas: vec![(1, ValueDelta::Int(7))] },
                undo_next: Lsn::NULL,
            },
            RecordBody::Checkpoint {
                scan_from: 4096,
                begin: Lsn(40),
                next_txn: 12,
                dirty: vec![(PageId(1), Lsn(30)), (PageId(2), Lsn(35))],
            },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            for prev_lsn in [Lsn(50), Lsn::NULL] {
                roundtrip(&LogRecord { lsn: Lsn(100 + i as u64), prev_lsn, txn: TxnId(8), body: body.clone() });
            }
        }
    }

    /// What a commit costs: a header of 8 bytes of checksum, 8 of LSN and
    /// one byte each of length, back-chain, transaction id and tag.
    #[test]
    fn small_records_have_small_headers() {
        let commit = LogRecord { lsn: Lsn(1 << 20), prev_lsn: Lsn((1 << 20) - 60), txn: TxnId(90), body: RecordBody::Commit };
        assert_eq!(roundtrip(&commit), 20);
        let deltas = vec![(1, ValueDelta::Int(250))];
        let esc = LogRecord { body: escrow_update(deltas.clone()), ..commit.clone() };
        let general = LogRecord {
            body: RecordBody::Update {
                page: PageId(3),
                redo: RedoOp::SlotAdd { idx: 0, off: 12, deltas: deltas.clone() },
                undo: UndoOp::Escrow { index: IndexId(1), key: vec![1, 2], deltas: vec![(1, ValueDelta::Int(1))] },
            },
            ..commit
        };
        let (shared, apart) = (roundtrip(&esc), roundtrip(&general));
        assert!(shared + 3 < apart, "the shared delta list is stored once: {shared} vs {apart}");
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

    /// A checksummed payload under a v2 header, for hand-made records.
    fn framed(at: u64, tag: u8, body: &[u8]) -> Vec<u8> {
        let mut w = Writer::with_capacity(32);
        w.lsn(Lsn(at)).varint(0).varint(5).u8(tag);
        let mut payload = w.into_bytes();
        payload.extend_from_slice(body);
        frame::encode_var(&payload)
    }

    /// Retired layouts are refused as corruption, not misread: tag 1 (the
    /// Begin record) and tag 7 (a checkpoint carrying an active-transaction
    /// list).
    #[test]
    fn retired_record_tags_are_corruption() {
        for (tag, body) in [(1u8, vec![0u8]), (7, vec![1, 0, 0, 0, 5, 0, 0, 0])] {
            match LogRecord::decode_framed(&framed(9, tag, &body), 9) {
                Err(Error::Corruption(m)) => assert!(m.contains(&format!("tag {tag}")), "{m}"),
                other => panic!("tag {tag}: {other:?}"),
            }
        }
    }

    /// A back-chain that reaches offset 0 or beyond, and bytes left after
    /// the body, are corruption.
    #[test]
    fn malformed_checksummed_records_are_corruption() {
        let mut w = Writer::new();
        w.lsn(Lsn(9)).varint(9).varint(5).u8(2);
        let far_back = frame::encode_var(&w.into_bytes());
        let trailing = framed(9, 2, &[0]);
        for bytes in [far_back, trailing] {
            let err = LogRecord::decode_framed(&bytes, 9).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "got {err:?}");
        }
    }

    #[test]
    fn delta_inverse_and_apply() {
        let d = ValueDelta::Int(5);
        assert_eq!(d.inverse(), ValueDelta::Int(-5));
        assert_eq!(d.apply_to(&Value::Int(10)).unwrap(), Value::Int(15));
        assert_eq!(d.apply_to(&Value::Null).unwrap(), Value::Int(5));
        let f = ValueDelta::Float(-0.5);
        assert_eq!(f.apply_to(&Value::Float(2.0)).unwrap(), Value::Float(1.5));
        assert!(ValueDelta::Int(0).is_zero() && ValueDelta::Float(-0.0).is_zero());
        assert!(!ValueDelta::Int(-1).is_zero() && !ValueDelta::Float(f64::NAN).is_zero());
    }

    fn fixed(values: &[Value]) -> Vec<u8> {
        let mut w = Writer::new();
        for v in values {
            v.encode(&mut w);
        }
        w.into_bytes()
    }

    #[test]
    fn add_deltas_is_typed_and_all_or_nothing() {
        let mut region = fixed(&[Value::Int(3), Value::Float(1.0), Value::Int(i64::MAX)]);
        add_deltas(&mut region, &[(0, ValueDelta::Int(-1)), (1, ValueDelta::Float(0.5))]).unwrap();
        assert_eq!(region, fixed(&[Value::Int(2), Value::Float(1.5), Value::Int(i64::MAX)]));
        let before = region.clone();
        for bad in [
            vec![(0, ValueDelta::Int(1)), (1, ValueDelta::Int(1))],
            vec![(0, ValueDelta::Int(1)), (2, ValueDelta::Int(1))],
            vec![(0, ValueDelta::Int(1)), (3, ValueDelta::Int(1))],
        ] {
            assert!(add_deltas(&mut region, &bad).is_err(), "{bad:?}");
            assert_eq!(region, before, "{bad:?} wrote before failing");
        }
        // No writer repeats a position, so a repeat is a damaged record.
        let repeated = [(0, ValueDelta::Int(1)), (2, ValueDelta::Int(-1)), (0, ValueDelta::Int(1))];
        let err = add_deltas(&mut region, &repeated).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err:?}");
        assert_eq!(region, before, "a repeated position wrote before failing");
        let err = add_deltas(&mut region, &[(1, ValueDelta::Int(1))]).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }), "{err:?}");
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
        let rec = [vec![0xEE], fixed(&[Value::Int(4), Value::Int(10)])].concat();
        RedoOp::SlotInsert { idx: 1, bytes: rec }.apply(&mut payload, 16).unwrap();
        RedoOp::SlotAdd { idx: 1, off: 1, deltas: vec![(1, ValueDelta::Int(-3))] }
            .apply(&mut payload, 16)
            .unwrap();
        let s = Slotted::wrap(&mut payload[16..]);
        assert_eq!(s.get(1), &[vec![0xEE], fixed(&[Value::Int(4), Value::Int(7)])].concat()[..]);
    }

    /// Every op refuses an index or range outside the page, record or
    /// payload with `Corruption`, before changing a byte.
    #[test]
    fn redo_refuses_out_of_bounds_ops() {
        let mut payload = vec![0u8; 128];
        RedoOp::FormatPage { ty: 2, header_len: 16 }.apply(&mut payload, 16).unwrap();
        let rec = fixed(&[Value::Int(1), Value::Int(2)]);
        RedoOp::SlotInsert { idx: 0, bytes: rec }.apply(&mut payload, 16).unwrap();
        let bad = [
            RedoOp::FormatPage { ty: 2, header_len: 125 },
            RedoOp::Patch { off: 127, bytes: vec![1, 2] },
            RedoOp::Patch { off: u16::MAX, bytes: vec![1] },
            RedoOp::SlotInsert { idx: 2, bytes: vec![1] },
            RedoOp::SlotRemove { idx: 1 },
            RedoOp::SlotUpdate { idx: 1, bytes: vec![1] },
            RedoOp::SlotPatch { idx: 1, off: 0, bytes: vec![1] },
            RedoOp::SlotPatch { idx: 0, off: 17, bytes: vec![1, 2] },
            RedoOp::SlotAdd { idx: 1, off: 0, deltas: vec![(0, ValueDelta::Int(1))] },
            RedoOp::SlotAdd { idx: 0, off: 19, deltas: vec![] },
            RedoOp::SlotAdd { idx: 0, off: 9, deltas: vec![(1, ValueDelta::Int(1))] },
        ];
        for op in bad {
            let before = payload.clone();
            match op.apply(&mut payload, 16) {
                Err(Error::Corruption(_)) => {}
                other => panic!("{op:?}: {other:?}"),
            }
            assert_eq!(payload, before, "{op:?} changed the payload");
        }
        // A slotted area too short for its own header.
        let err = RedoOp::SlotRemove { idx: 0 }.apply(&mut payload, 124).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err:?}");
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

    #[test]
    fn record_run_is_whole_records_at_its_start() {
        let a = LogRecord { lsn: Lsn(8), prev_lsn: Lsn::NULL, txn: TxnId(1), body: RecordBody::Commit };
        let ab = a.encode_framed();
        let b = LogRecord { lsn: Lsn(8 + ab.len() as u64), ..a.clone() };
        let bytes = [ab, b.encode_framed()].concat();
        let run = RecordRun::decode(bytes.clone(), 8).unwrap();
        assert_eq!(run.records(), &[a, b][..]);
        assert_eq!((run.start(), run.end(), run.bytes()), (8, 8 + bytes.len() as u64, &bytes[..]));
        for bad in [RecordRun::decode(bytes[..bytes.len() - 1].to_vec(), 8), RecordRun::decode(bytes, 9)] {
            assert!(matches!(bad, Err(Error::Corruption(_))), "{bad:?}");
        }
    }
}
