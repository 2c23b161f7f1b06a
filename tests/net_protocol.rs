//! TWNP v2 wire-format stability and corruption rejection.
//!
//! The frame layout is a public contract with the same stability
//! discipline as the TWS1/TWS2/TWR2 on-disk formats: the header fields
//! are pinned byte-for-byte, and a golden frame locks the exact encoding
//! of a representative request so accidental format drift fails loudly.
//!
//! The corruption property is the one the CRC trailer exists to provide:
//! flipping *any* single byte of a valid frame — magic, version, kind,
//! length, payload, or the CRC itself — must surface as a typed
//! [`FrameError`], never as a silently mis-parsed frame.

use proptest::prelude::*;
use tw_net::{
    decode_frame, encode_frame, FrameError, FrameKind, QueryKind, QueryRequest, WireBudget,
    DEFAULT_MAX_PAYLOAD, HEADER_BYTES, MAGIC, TRAILER_BYTES, VERSION,
};

/// A fixed representative request used by the golden pins.
fn golden_request() -> QueryRequest {
    QueryRequest {
        tenant: 7,
        budget: WireBudget {
            deadline_ms: 1_500,
            max_cells: 10_000,
            max_candidate_bytes: 0,
            max_pager_reads: 64,
        },
        kind: QueryKind::Range { epsilon: 0.25 },
        values: vec![1.0, -2.5, 0.0],
    }
}

fn golden_frame() -> Vec<u8> {
    let (kind, payload) = golden_request().encode();
    encode_frame(kind, &payload, DEFAULT_MAX_PAYLOAD).expect("golden frame encodes")
}

#[test]
fn header_layout_is_pinned() {
    // frame := "TWNP" version:u8 kind:u8 len:u32le payload crc:u32le
    assert_eq!(MAGIC, *b"TWNP");
    assert_eq!(VERSION, 2);
    assert_eq!(HEADER_BYTES, 10);
    assert_eq!(TRAILER_BYTES, 4);

    let bytes = golden_frame();
    assert_eq!(&bytes[..4], b"TWNP");
    assert_eq!(bytes[4], VERSION);
    assert_eq!(bytes[5], 1, "range request frame kind");
    let len = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
    assert_eq!(bytes.len(), HEADER_BYTES + len + TRAILER_BYTES);
}

#[test]
fn golden_request_payload_is_pinned() {
    // payload := tenant:u32le budget:4×u64le epsilon:f64le
    //            count:u32le values:[f64le]
    let (kind, payload) = golden_request().encode();
    assert_eq!(kind, FrameKind::RangeRequest);
    assert_eq!(payload.len(), 4 + 32 + 8 + 4 + 3 * 8);
    assert_eq!(&payload[..4], &7u32.to_le_bytes());
    assert_eq!(&payload[4..12], &1_500u64.to_le_bytes());
    assert_eq!(&payload[12..20], &10_000u64.to_le_bytes());
    assert_eq!(&payload[20..28], &0u64.to_le_bytes());
    assert_eq!(&payload[28..36], &64u64.to_le_bytes());
    assert_eq!(&payload[36..44], &0.25f64.to_le_bytes());
    assert_eq!(&payload[44..48], &3u32.to_le_bytes());
    assert_eq!(&payload[48..56], &1.0f64.to_le_bytes());
    assert_eq!(&payload[56..64], &(-2.5f64).to_le_bytes());
    assert_eq!(&payload[64..72], &0.0f64.to_le_bytes());
}

#[test]
fn golden_frame_bytes_are_pinned() {
    // The complete golden frame, CRC trailer included. Regenerate only on
    // a deliberate, versioned protocol change.
    let expected = "54574e5002014800000007000000dc0500000000000010270000000000000000\
                    0000000000004000000000000000000000000000d03f0300000000000000000\
                    0f03f00000000000004c00000000000000000eac6145e";
    let actual: String = golden_frame().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(actual, expected);
}

#[test]
fn version_1_frames_are_refused() {
    // v1 carried a 22-word ledger; a well-formed v1 frame (its CRC
    // recomputed) is refused by version before any payload is read.
    let mut bytes = golden_frame();
    bytes[4] = 1;
    let covered = bytes.len() - TRAILER_BYTES;
    let crc = tw_storage::crc32(&bytes[..covered]);
    bytes[covered..].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        decode_frame(&bytes, DEFAULT_MAX_PAYLOAD),
        Err(FrameError::UnsupportedVersion(1))
    ));
}

#[test]
fn golden_frame_round_trips() {
    let bytes = golden_frame();
    let (frame, consumed) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("decodes");
    assert_eq!(consumed, bytes.len());
    let request = QueryRequest::decode(frame.kind, &frame.payload).expect("payload decodes");
    assert_eq!(request, golden_request());
}

/// Strategy: an arbitrary well-formed request (finite values only — the
/// wire carries any bit pattern, but equality checks want NaN-free data).
fn arb_request() -> impl Strategy<Value = QueryRequest> {
    let kind = prop_oneof![
        (0.0f64..1e6).prop_map(|epsilon| QueryKind::Range { epsilon }),
        (1u32..1000).prop_map(|k| QueryKind::Knn { k }),
    ];
    let budget = (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
        |(deadline_ms, max_cells, max_candidate_bytes, max_pager_reads)| WireBudget {
            deadline_ms,
            max_cells,
            max_candidate_bytes,
            max_pager_reads,
        },
    );
    (
        any::<u32>(),
        budget,
        kind,
        prop::collection::vec(-1e9f64..1e9, 0..16),
    )
        .prop_map(|(tenant, budget, kind, values)| QueryRequest {
            tenant,
            budget,
            kind,
            values,
        })
}

proptest! {
    /// Any well-formed request survives an encode/decode round trip.
    #[test]
    fn any_request_round_trips(request in arb_request()) {
        let (kind, payload) = request.encode();
        let bytes = encode_frame(kind, &payload, DEFAULT_MAX_PAYLOAD).unwrap();
        let (frame, consumed) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        let decoded = QueryRequest::decode(frame.kind, &frame.payload).unwrap();
        prop_assert_eq!(decoded, request);
    }

    /// Flipping any single byte of a valid frame — with any nonzero XOR
    /// mask — yields a typed decode error, never a mis-parse. Header
    /// corruption trips the field checks; payload and trailer corruption
    /// trip the CRC.
    #[test]
    fn any_single_byte_corruption_is_refused(
        request in arb_request(),
        index in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let (kind, payload) = request.encode();
        let mut bytes = encode_frame(kind, &payload, DEFAULT_MAX_PAYLOAD).unwrap();
        let at = index % bytes.len();
        bytes[at] ^= mask;
        let result = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD);
        prop_assert!(
            result.is_err(),
            "corrupting byte {} with mask {:#04x} decoded anyway",
            at,
            mask
        );
    }

    /// Corruption of the magic or version bytes maps to the documented
    /// typed failures, not to a CRC catch-all: the decoder refuses the
    /// frame before sizing any payload read. (A corrupt kind byte can
    /// land on another *valid* kind code, where the CRC is the defense —
    /// that path is covered by the general corruption property above.)
    #[test]
    fn magic_and_version_corruption_is_typed(
        request in arb_request(),
        at in 0usize..5,
        mask in 1u8..=255,
    ) {
        let (kind, payload) = request.encode();
        let mut bytes = encode_frame(kind, &payload, DEFAULT_MAX_PAYLOAD).unwrap();
        bytes[at] ^= mask;
        match decode_frame(&bytes, DEFAULT_MAX_PAYLOAD) {
            Err(FrameError::BadMagic(_) | FrameError::UnsupportedVersion(_)) => {}
            other => prop_assert!(false, "expected a typed header error, got {other:?}"),
        }
    }

    /// A truncated frame is refused with a typed truncation at every
    /// possible cut point.
    #[test]
    fn any_truncation_is_refused(request in arb_request(), cut in any::<usize>()) {
        let (kind, payload) = request.encode();
        let bytes = encode_frame(kind, &payload, DEFAULT_MAX_PAYLOAD).unwrap();
        let keep = cut % bytes.len(); // strictly shorter than the frame
        let result = decode_frame(&bytes[..keep], DEFAULT_MAX_PAYLOAD);
        prop_assert!(matches!(result, Err(FrameError::Truncated { .. })), "{result:?}");
    }
}
