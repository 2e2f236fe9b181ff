//! Wire-protocol codec property tests: every well-formed message survives
//! a frame+payload roundtrip; torn, truncated, bit-flipped, and
//! garbage-prefixed byte streams are rejected by the checksum (or parked
//! as incomplete) and never panic the decoder.

use proptest::prelude::*;
use txview_common::frame::HEADER_LEN;
use txview_common::{Error, Value};
use txview_server::wire::{decode_frame, encode_frame, Request, Response, WireErrorCode};

/// Build a value list from raw generator bytes (2 bits of type selector
/// per value keeps the shim strategy simple).
fn values_from(bytes: &[u8]) -> Vec<Value> {
    bytes
        .iter()
        .map(|&b| match b % 4 {
            0 => Value::Null,
            1 => Value::Int(b as i64 * 7919 - 1024),
            2 => Value::Float(b as f64 / 3.0 - 17.5),
            _ => Value::Str(format!("s{b}")),
        })
        .collect()
}

fn request_from(op: u8, a: i64, b: i64, tag_bytes: &[u8]) -> Request {
    match op % 8 {
        0 => Request::Ping,
        1 => Request::Begin { isolation: (a % 3) as u8 },
        2 => Request::Commit,
        3 => Request::Rollback,
        4 => Request::Deposit { account: a, delta: b },
        5 => Request::ViewRead { view: format!("v{}", a % 100), group: values_from(tag_bytes) },
        6 => Request::ViewAvg {
            view: format!("v{}", b % 100),
            group: values_from(tag_bytes),
            agg_idx: (a % 7) as u32,
        },
        _ => Request::Metrics,
    }
}

/// Every assigned error code, both bands (6 is retired).
const CODES: [u16; 10] = [1, 2, 3, 4, 5, 7, 100, 103, 111, 112];

fn response_from(op: u8, a: i64, tag_bytes: &[u8]) -> Response {
    match op % 7 {
        0 => Response::Pong,
        1 => Response::Ok,
        2 => Response::Committed { lsn: a as u64 },
        3 => Response::Row { present: a % 2 == 0, values: values_from(tag_bytes) },
        4 => Response::Avg { present: a % 2 == 0, value: a as f64 / 7.0 },
        5 => Response::Metrics { text: format!("k={a}\n") },
        _ => Response::Err {
            code: WireErrorCode::from_u16(CODES[a.rem_euclid(CODES.len() as i64) as usize])
                .unwrap(),
            msg: format!("e{a}"),
        },
    }
}

proptest! {
    /// Any request roundtrips through payload encode/decode and through a
    /// full frame.
    #[test]
    fn request_roundtrips(
        op in any::<u8>(),
        a in any::<i64>(),
        b in any::<i64>(),
        tags in proptest::collection::vec(any::<u8>(), 0..6),
    ) {
        let req = request_from(op, a, b, &tags);
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req.clone());
        let frame = encode_frame(&req.encode());
        let (payload, used) = decode_frame(&frame).unwrap().unwrap();
        prop_assert_eq!(used, frame.len());
        prop_assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    /// Any response roundtrips likewise.
    #[test]
    fn response_roundtrips(
        op in any::<u8>(),
        a in any::<i64>(),
        tags in proptest::collection::vec(any::<u8>(), 0..6),
    ) {
        let resp = response_from(op, a, &tags);
        prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp.clone());
        let frame = encode_frame(&resp.encode());
        let (payload, _) = decode_frame(&frame).unwrap().unwrap();
        prop_assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    /// A torn (truncated) frame is never mistaken for a complete one: every
    /// strict prefix decodes to "incomplete", not to a payload and not to a
    /// panic.
    #[test]
    fn torn_frames_park_as_incomplete(
        op in any::<u8>(),
        a in any::<i64>(),
        b in any::<i64>(),
        cut_seed in any::<u64>(),
    ) {
        let frame = encode_frame(&request_from(op, a, b, &[]).encode());
        let cut = (cut_seed as usize) % frame.len();
        prop_assert!(decode_frame(&frame[..cut]).unwrap().is_none());
    }

    /// Flipping any single bit inside the checksum or payload region is
    /// caught by the checksum.
    #[test]
    fn bit_flips_are_rejected(
        op in any::<u8>(),
        a in any::<i64>(),
        b in any::<i64>(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut frame = encode_frame(&request_from(op, a, b, &[]).encode());
        // Skip the 4-byte length prefix: flipping it changes framing, not
        // payload integrity (format_props flips every bit, prefix included).
        let span = frame.len() - 4;
        let pos = 4 + (pos_seed as usize) % span;
        frame[pos] ^= 1 << bit;
        prop_assert!(
            matches!(decode_frame(&frame), Err(Error::Corruption(_))),
            "bit flip at {pos} went undetected"
        );
    }

    /// Arbitrary garbage — including garbage prefixed onto a valid frame —
    /// never panics the frame decoder, and whatever it yields is one of
    /// the three contractual outcomes.
    #[test]
    fn garbage_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
        op in any::<u8>(),
        a in any::<i64>(),
    ) {
        // Raw garbage alone.
        let _ = decode_frame(&garbage);
        // Garbage prefix then a valid frame: the decoder sees the garbage
        // as a (bogus) length prefix; it must reject or wait, not panic,
        // and must never hand back a payload claiming to be valid while
        // the checksum over it does not hold (decode_frame verifies by
        // construction; reaching Ok(Some) is fine either way).
        let mut buf = garbage.clone();
        buf.extend_from_slice(&encode_frame(&request_from(op, a, 0, &[]).encode()));
        let _ = decode_frame(&buf);
    }

    /// Arbitrary payload bytes never panic the message decoders.
    #[test]
    fn arbitrary_payloads_never_panic_message_decode(
        payload in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }

    /// Two frames back-to-back decode in order with exact consumption —
    /// the streaming reader's contract.
    #[test]
    fn streamed_frames_decode_in_order(
        a in any::<i64>(),
        b in any::<i64>(),
    ) {
        let r1 = Request::Deposit { account: a, delta: b };
        let r2 = Request::Ping;
        let mut buf = encode_frame(&r1.encode());
        buf.extend_from_slice(&encode_frame(&r2.encode()));
        let (p1, used1) = decode_frame(&buf).unwrap().unwrap();
        prop_assert_eq!(Request::decode(&p1).unwrap(), r1);
        let (p2, used2) = decode_frame(&buf[used1..]).unwrap().unwrap();
        prop_assert_eq!(Request::decode(&p2).unwrap(), r2);
        prop_assert_eq!(used1 + used2, buf.len());
    }
}

/// Wire code 6 is retired: `from_u16` does not know it, and a well-framed
/// error response carrying it is refused as a protocol violation.
#[test]
fn retired_error_code_is_a_protocol_error() {
    assert_eq!(WireErrorCode::from_u16(6), None);
    let mut payload =
        Response::Err { code: WireErrorCode::Overloaded, msg: "x".into() }.encode();
    assert_eq!(&payload[1..3], &7u16.to_le_bytes(), "code sits after the opcode");
    payload[1..3].copy_from_slice(&6u16.to_le_bytes());
    let (framed, _) = decode_frame(&encode_frame(&payload)).unwrap().unwrap();
    match Response::decode(&framed) {
        Err(Error::Corruption(m)) => assert!(m.contains("unknown error code 6"), "{m}"),
        other => panic!("code 6 decoded: {other:?}"),
    }
}

#[test]
fn frame_overhead_is_exactly_len_plus_checksum() {
    let f = encode_frame(b"xyz");
    assert_eq!(f.len(), 3 + HEADER_LEN);
}
