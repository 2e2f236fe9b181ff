//! The binary wire protocol.
//!
//! Every message is one [`frame`] (DESIGN §17):
//!
//! ```text
//! [u32 len][u64 checksum(payload)][payload: len bytes]
//! ```
//!
//! little-endian throughout, with `len` capped at [`MAX_FRAME`] so a
//! garbage prefix cannot make the reader allocate gigabytes. Decoding is
//! strictly non-panicking: an oversized length or a checksum mismatch
//! yields [`Error::Corruption`], and an incomplete buffer yields `Ok(None)`
//! so a streaming reader can simply wait for more bytes.
//!
//! Payloads are [`Request`]/[`Response`] messages encoded with the same
//! hand-rolled codec the storage layer uses (`txview_common::codec`): a
//! one-byte opcode followed by the fields. Unknown opcodes and trailing
//! bytes are corruption — the protocol has no optional fields, so a strict
//! decode catches version skew instead of misinterpreting it.
//!
//! Errors cross the wire as a **stable numeric code** ([`WireErrorCode`])
//! plus a human-readable message. Clients branch on the code's
//! [`retryability`](WireErrorCode::is_retryable) — never on the message
//! text, which is explicitly not part of the protocol contract.

use txview_common::codec::{Reader, Writer};
use txview_common::frame::{self, Decoded};
use txview_common::{Error, Result, Value};

/// Hard cap on a frame payload. Large enough for a metrics dump, small
/// enough that a hostile or corrupt length prefix cannot balloon memory.
pub const MAX_FRAME: usize = 1 << 20;

/// Encode `payload` into a self-delimiting checksummed frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME, "frame payload exceeds MAX_FRAME");
    frame::encode(payload)
}

/// Try to decode one frame from the front of `buf`.
///
/// * `Ok(Some((payload, consumed)))` — a complete, checksum-valid frame;
///   the caller should drop `consumed` bytes from the front of its buffer.
/// * `Ok(None)` — the buffer holds a valid prefix of a frame; read more.
/// * `Err(Corruption)` — oversized length prefix or checksum mismatch; the
///   stream is unrecoverable and the connection must be dropped.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>> {
    match frame::decode(buf, MAX_FRAME) {
        Decoded::Complete(payload, used) => Ok(Some((payload.to_vec(), used))),
        Decoded::Incomplete => Ok(None),
        Decoded::Corrupt(why) => Err(Error::corruption(why)),
    }
}

// ---------------------------------------------------------------------------
// error taxonomy
// ---------------------------------------------------------------------------

/// Stable wire error codes. Retryable codes are `< 100`; fatal codes are
/// `>= 100`. The numeric values are part of the protocol and must never be
/// reused or renumbered — add new codes at the end of each band. Code 6
/// (a retired commit-dependency abort) is never reused: `from_u16` refuses
/// it like any other unknown code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum WireErrorCode {
    /// Transient I/O below the engine; safe to re-issue.
    IoTransient = 1,
    /// Engine is `DegradedReadOnly`: writes shed, reads still served.
    Degraded = 2,
    /// Transaction chosen as deadlock victim; retry the whole transaction.
    DeadlockVictim = 3,
    /// Lock wait exceeded the timeout; retry the whole transaction.
    LockTimeout = 4,
    /// Snapshot-rule conflict with a committed peer; retry.
    SerializationConflict = 5,
    /// Server-side admission control shed this request/connection; retry
    /// (ideally after backoff) — the engine itself is healthy.
    Overloaded = 7,

    /// Engine fenced: no service until restart + recovery.
    Fenced = 100,
    /// Runtime value/aggregate type mismatch (a client bug).
    TypeMismatch = 101,
    /// Catalog-level schema error (unknown view/column, bad agg index).
    Schema = 102,
    /// On-disk or on-wire bytes failed validation.
    Corruption = 103,
    /// Terminal I/O error.
    Io = 104,
    /// Missing page/row/object.
    NotFound = 105,
    /// Unique-key violation.
    DuplicateKey = 106,
    /// API misuse (e.g. commit without a transaction).
    InvalidOperation = 107,
    /// Transaction was rolled back and cannot continue.
    RolledBack = 108,
    /// Buffer pool exhausted.
    BufferExhausted = 109,
    /// Record too large for a page.
    RecordTooLarge = 110,
    /// Wire-protocol violation (bad opcode, trailing bytes, bad frame).
    Protocol = 111,
    /// Anything the mapping does not know — fatal by construction.
    Internal = 112,
}

impl WireErrorCode {
    /// Clients branch on this, not on message text: `true` means the same
    /// request (or transaction) may succeed if re-issued.
    pub fn is_retryable(self) -> bool {
        (self as u16) < 100
    }

    /// Decode a code received off the wire.
    pub fn from_u16(v: u16) -> Option<WireErrorCode> {
        use WireErrorCode::*;
        Some(match v {
            1 => IoTransient,
            2 => Degraded,
            3 => DeadlockVictim,
            4 => LockTimeout,
            5 => SerializationConflict,
            7 => Overloaded,
            100 => Fenced,
            101 => TypeMismatch,
            102 => Schema,
            103 => Corruption,
            104 => Io,
            105 => NotFound,
            106 => DuplicateKey,
            107 => InvalidOperation,
            108 => RolledBack,
            109 => BufferExhausted,
            110 => RecordTooLarge,
            111 => Protocol,
            112 => Internal,
            _ => return None,
        })
    }

    /// Map an engine error to its wire code. Every `Error` variant has an
    /// explicit arm — a new variant fails to compile here rather than
    /// silently leaking as `Internal`.
    pub fn of(e: &Error) -> WireErrorCode {
        match e {
            Error::IoTransient(_) => WireErrorCode::IoTransient,
            Error::Degraded { .. } => WireErrorCode::Degraded,
            Error::DeadlockVictim { .. } => WireErrorCode::DeadlockVictim,
            Error::LockTimeout { .. } => WireErrorCode::LockTimeout,
            Error::SerializationConflict(_) => WireErrorCode::SerializationConflict,
            Error::Fenced { .. } => WireErrorCode::Fenced,
            Error::TypeMismatch { .. } => WireErrorCode::TypeMismatch,
            Error::Schema(_) => WireErrorCode::Schema,
            Error::Corruption(_) => WireErrorCode::Corruption,
            Error::Io(_) => WireErrorCode::Io,
            Error::NotFound(_) => WireErrorCode::NotFound,
            Error::DuplicateKey(_) => WireErrorCode::DuplicateKey,
            Error::InvalidOperation(_) => WireErrorCode::InvalidOperation,
            Error::RolledBack { .. } => WireErrorCode::RolledBack,
            Error::BufferExhausted => WireErrorCode::BufferExhausted,
            Error::RecordTooLarge { .. } => WireErrorCode::RecordTooLarge,
        }
    }
}

// ---------------------------------------------------------------------------
// messages
// ---------------------------------------------------------------------------

/// Client → server operations.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness check; answered with [`Response::Pong`] even while draining.
    Ping,
    /// Open a transaction on this session (`isolation`: 0 = ReadCommitted,
    /// 1 = Serializable, 2 = Snapshot). At most one per session.
    Begin { isolation: u8 },
    /// Commit the session's open transaction.
    Commit,
    /// Roll back the session's open transaction.
    Rollback,
    /// Escrow increment: adjust `account`'s balance by `delta` (the bank
    /// schema's base-table update that drives view maintenance). Inside an
    /// open transaction it buffers (→ [`Response::Ok`]); without one it
    /// autocommits (→ [`Response::Committed`]).
    Deposit { account: i64, delta: i64 },
    /// Point-read one view row by group key.
    ViewRead { view: String, group: Vec<Value> },
    /// Read-time AVG = SUM/COUNT of aggregate `agg_idx`.
    ViewAvg { view: String, group: Vec<Value>, agg_idx: u32 },
    /// Engine + server metrics, rendered as `name=value` lines.
    Metrics,
}

/// Server → client replies.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Generic success (begin, rollback, buffered deposit).
    Ok,
    /// Commit became durable at `lsn`.
    Committed { lsn: u64 },
    /// A view row (absent group ⇒ `present = false`, empty values).
    Row { present: bool, values: Vec<Value> },
    /// An AVG value (absent group ⇒ `present = false`).
    Avg { present: bool, value: f64 },
    /// Rendered metrics text.
    Metrics { text: String },
    /// The operation failed; branch on `code.is_retryable()`.
    Err { code: WireErrorCode, msg: String },
}

const REQ_PING: u8 = 1;
const REQ_BEGIN: u8 = 2;
const REQ_COMMIT: u8 = 3;
const REQ_ROLLBACK: u8 = 4;
const REQ_DEPOSIT: u8 = 5;
const REQ_VIEW_READ: u8 = 6;
const REQ_VIEW_AVG: u8 = 7;
const REQ_METRICS: u8 = 8;

const RESP_PONG: u8 = 1;
const RESP_OK: u8 = 2;
const RESP_COMMITTED: u8 = 3;
const RESP_ROW: u8 = 4;
const RESP_AVG: u8 = 5;
const RESP_METRICS: u8 = 6;
const RESP_ERR: u8 = 7;

fn put_values(w: &mut Writer, vs: &[Value]) {
    w.u32(vs.len() as u32);
    for v in vs {
        v.encode(w);
    }
}

fn get_values(r: &mut Reader<'_>) -> Result<Vec<Value>> {
    let n = r.u32()? as usize;
    // A value is at least 1 byte; bound the pre-allocation by what the
    // buffer could actually hold so a lying count cannot balloon memory.
    if n > r.remaining() {
        return Err(Error::corruption(format!("value count {n} exceeds payload")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Value::decode(r)?);
    }
    Ok(out)
}

fn finish(r: &Reader<'_>) -> Result<()> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(Error::corruption(format!("{} trailing bytes after message", r.remaining())))
    }
}

impl Request {
    /// Encode to a payload (not yet framed).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Ping => {
                w.u8(REQ_PING);
            }
            Request::Begin { isolation } => {
                w.u8(REQ_BEGIN).u8(*isolation);
            }
            Request::Commit => {
                w.u8(REQ_COMMIT);
            }
            Request::Rollback => {
                w.u8(REQ_ROLLBACK);
            }
            Request::Deposit { account, delta } => {
                w.u8(REQ_DEPOSIT).i64(*account).i64(*delta);
            }
            Request::ViewRead { view, group } => {
                w.u8(REQ_VIEW_READ).str(view);
                put_values(&mut w, group);
            }
            Request::ViewAvg { view, group, agg_idx } => {
                w.u8(REQ_VIEW_AVG).str(view);
                put_values(&mut w, group);
                w.u32(*agg_idx);
            }
            Request::Metrics => {
                w.u8(REQ_METRICS);
            }
        }
        w.into_bytes()
    }

    /// Decode a payload. Strict: unknown opcode or trailing bytes fail.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            REQ_PING => Request::Ping,
            REQ_BEGIN => Request::Begin { isolation: r.u8()? },
            REQ_COMMIT => Request::Commit,
            REQ_ROLLBACK => Request::Rollback,
            REQ_DEPOSIT => Request::Deposit { account: r.i64()?, delta: r.i64()? },
            REQ_VIEW_READ => {
                let view = r.str()?.to_string();
                Request::ViewRead { view, group: get_values(&mut r)? }
            }
            REQ_VIEW_AVG => {
                let view = r.str()?.to_string();
                let group = get_values(&mut r)?;
                Request::ViewAvg { view, group, agg_idx: r.u32()? }
            }
            REQ_METRICS => Request::Metrics,
            op => return Err(Error::corruption(format!("unknown request opcode {op}"))),
        };
        finish(&r)?;
        Ok(req)
    }
}

impl Response {
    /// Encode to a payload (not yet framed).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Pong => {
                w.u8(RESP_PONG);
            }
            Response::Ok => {
                w.u8(RESP_OK);
            }
            Response::Committed { lsn } => {
                w.u8(RESP_COMMITTED).u64(*lsn);
            }
            Response::Row { present, values } => {
                w.u8(RESP_ROW).bool(*present);
                put_values(&mut w, values);
            }
            Response::Avg { present, value } => {
                w.u8(RESP_AVG).bool(*present).f64(*value);
            }
            Response::Metrics { text } => {
                w.u8(RESP_METRICS).str(text);
            }
            Response::Err { code, msg } => {
                w.u8(RESP_ERR).u16(*code as u16).str(msg);
            }
        }
        w.into_bytes()
    }

    /// Decode a payload. Strict: unknown opcode or trailing bytes fail.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            RESP_PONG => Response::Pong,
            RESP_OK => Response::Ok,
            RESP_COMMITTED => Response::Committed { lsn: r.u64()? },
            RESP_ROW => {
                let present = r.bool()?;
                Response::Row { present, values: get_values(&mut r)? }
            }
            RESP_AVG => Response::Avg { present: r.bool()?, value: r.f64()? },
            RESP_METRICS => Response::Metrics { text: r.str()?.to_string() },
            RESP_ERR => {
                let raw = r.u16()?;
                let code = WireErrorCode::from_u16(raw)
                    .ok_or_else(|| Error::corruption(format!("unknown error code {raw}")))?;
                Response::Err { code, msg: r.str()?.to_string() }
            }
            op => return Err(Error::corruption(format!("unknown response opcode {op}"))),
        };
        finish(&r)?;
        Ok(resp)
    }

    /// Build the error response for an engine failure.
    pub fn from_error(e: &Error) -> Response {
        Response::Err { code: WireErrorCode::of(e), msg: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let f = encode_frame(b"hello");
        let (payload, used) = decode_frame(&f).unwrap().unwrap();
        assert_eq!(payload, b"hello");
        assert_eq!(used, f.len());
    }

    #[test]
    fn incomplete_frames_wait_for_more() {
        let f = encode_frame(b"payload");
        for cut in 0..f.len() {
            assert!(decode_frame(&f[..cut]).unwrap().is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn flipped_byte_is_corruption() {
        let mut f = encode_frame(b"payload");
        f[5] ^= 0x40;
        assert!(matches!(decode_frame(&f), Err(Error::Corruption(_))));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        assert!(matches!(decode_frame(&buf), Err(Error::Corruption(_))));
    }

    #[test]
    fn request_roundtrip_all_ops() {
        let reqs = vec![
            Request::Ping,
            Request::Begin { isolation: 2 },
            Request::Commit,
            Request::Rollback,
            Request::Deposit { account: -3, delta: i64::MIN },
            Request::ViewRead {
                view: "branch_balance".into(),
                group: vec![Value::Int(7), Value::Str("x".into()), Value::Null],
            },
            Request::ViewAvg { view: "v".into(), group: vec![Value::Float(1.5)], agg_idx: 0 },
            Request::Metrics,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip_all_ops() {
        let resps = vec![
            Response::Pong,
            Response::Ok,
            Response::Committed { lsn: u64::MAX },
            Response::Row { present: true, values: vec![Value::Int(1), Value::Float(2.0)] },
            Response::Row { present: false, values: vec![] },
            Response::Avg { present: true, value: -0.5 },
            Response::Metrics { text: "a=1\nb=2\n".into() },
            Response::Err { code: WireErrorCode::Degraded, msg: "shed".into() },
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut p = Request::Ping.encode();
        p.push(0);
        assert!(Request::decode(&p).is_err());
        let mut p = Response::Ok.encode();
        p.push(9);
        assert!(Response::decode(&p).is_err());
    }

    #[test]
    fn error_codes_stable_and_partitioned() {
        // The numeric values are wire contract: spot-check both bands and
        // the roundtrip through from_u16.
        assert_eq!(WireErrorCode::IoTransient as u16, 1);
        assert_eq!(WireErrorCode::Overloaded as u16, 7);
        assert_eq!(WireErrorCode::Fenced as u16, 100);
        assert_eq!(WireErrorCode::Internal as u16, 112);
        for v in 0..=200u16 {
            if let Some(c) = WireErrorCode::from_u16(v) {
                assert_eq!(c as u16, v);
                assert_eq!(c.is_retryable(), v < 100);
            }
        }
        assert!(WireErrorCode::from_u16(0).is_none());
        assert!(WireErrorCode::from_u16(6).is_none(), "retired code 6 is never reused");
        assert!(WireErrorCode::from_u16(99).is_none());
    }

    #[test]
    fn engine_errors_map_to_matching_retryability() {
        use txview_common::ids::TxnId;
        let cases: Vec<Error> = vec![
            Error::IoTransient(std::io::Error::other("hiccup")),
            Error::Degraded { reason: "log".into() },
            Error::DeadlockVictim { txn: TxnId(1) },
            Error::LockTimeout { txn: TxnId(1), what: "k".into() },
            Error::SerializationConflict("w".into()),
            Error::Fenced { reason: "corrupt".into() },
            Error::type_mismatch("SumInt", "Float"),
            Error::Schema("no such view".into()),
            Error::corruption("torn"),
            Error::Io(std::io::Error::other("dead")),
            Error::NotFound("row".into()),
            Error::DuplicateKey("pk".into()),
            Error::invalid("misuse"),
            Error::RolledBack { txn: TxnId(3), reason: "user".into() },
            Error::BufferExhausted,
            Error::RecordTooLarge { size: 9, max: 8 },
        ];
        for e in &cases {
            let code = WireErrorCode::of(e);
            assert_eq!(
                code.is_retryable(),
                e.is_retryable(),
                "retryability must survive the wire: {e:?} → {code:?}"
            );
        }
    }
}
