//! Property tests for the incremental frame decoders: the reactor
//! feeds them whatever byte spans nonblocking reads happen to return,
//! so a decoder must produce the identical frame sequence under
//! *every* chunking of the stream — including 1-byte reads and chunk
//! boundaries that split the 4-byte length prefix — and must poison
//! itself permanently the moment a hostile length prefix appears,
//! no matter where in the stream (or mid-prefix) it lands.
//!
//! The zero-copy [`SharedDecoder`] is additionally checked **against
//! the copying [`FrameDecoder`] as an oracle**: for any stream,
//! chunking and block size (forcing rotations, compactions and
//! growth), the `FrameRef` views it emits must be byte-identical to
//! the oracle's copied frames — whether the consumer drops each view
//! immediately (steady state) or holds every one alive (worst case
//! for buffer reuse).

use curb_consensus::{BytesPayload, Payload, PbftMsg};
use curb_net::{
    decode_lane_frame_ref, encode_hello, encode_lane_app_into, encode_lane_msg_into,
    validate_hello, FrameDecoder, FrameRef, LaneFrame, SharedDecoder, APP_LANE, HANDSHAKE_LEN,
};
use proptest::prelude::*;

/// Cap used throughout; small enough that hostile lengths are easy to
/// construct, large enough for every generated frame.
const MAX_FRAME: usize = 1 << 10;

/// Encodes `bodies` as one contiguous length-prefixed stream.
fn encode_stream(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut stream = Vec::new();
    for body in bodies {
        stream.extend_from_slice(&(body.len() as u32).to_be_bytes());
        stream.extend_from_slice(body);
    }
    stream
}

/// Feeds `stream` to a fresh decoder in chunks whose sizes cycle
/// through `cuts`, returning the decoded frames and the final decoder.
fn decode_with_cuts(stream: &[u8], cuts: &[usize]) -> (Vec<Vec<u8>>, FrameDecoder) {
    let mut decoder = FrameDecoder::new(MAX_FRAME);
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut offset = 0;
    let mut i = 0;
    while offset < stream.len() {
        let take = cuts[i % cuts.len()].min(stream.len() - offset);
        decoder
            .feed(&stream[offset..offset + take], |frame| {
                frames.push(frame.to_vec());
            })
            .expect("valid stream must decode");
        offset += take;
        i += 1;
    }
    (frames, decoder)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any chunking of a valid frame stream — adversarial cut sizes
    /// from 1 byte up — decodes to exactly the encoded frame sequence,
    /// and the decoder ends frame-aligned.
    #[test]
    fn any_chunking_decodes_identically(
        bodies in prop::collection::vec(
            prop::collection::vec(0u8.., 0..200),
            0..12,
        ),
        cuts in prop::collection::vec(1usize..40, 1..50),
    ) {
        let stream = encode_stream(&bodies);
        let (frames, decoder) = decode_with_cuts(&stream, &cuts);
        prop_assert_eq!(&frames, &bodies, "decoded frames differ from encoded");
        prop_assert!(
            decoder.is_aligned(),
            "decoder must be frame-aligned after a whole stream"
        );
    }

    /// Pure 1-byte reads — every length prefix split four ways — still
    /// reconstruct the stream exactly.
    #[test]
    fn one_byte_reads_decode_identically(
        bodies in prop::collection::vec(
            prop::collection::vec(0u8.., 0..64),
            1..8,
        ),
    ) {
        let stream = encode_stream(&bodies);
        let (frames, decoder) = decode_with_cuts(&stream, &[1]);
        prop_assert_eq!(&frames, &bodies);
        prop_assert!(decoder.is_aligned());
    }

    /// A hostile length prefix planted after a run of valid frames
    /// poisons the decoder at exactly that point, under any chunking:
    /// every prior frame is delivered, the poisoned feed errors, and
    /// the decoder refuses all further input.
    #[test]
    fn hostile_length_mid_stream_poisons_under_any_chunking(
        bodies in prop::collection::vec(
            prop::collection::vec(0u8.., 0..100),
            0..6,
        ),
        hostile_len in (MAX_FRAME as u32 + 1)..,
        cuts in prop::collection::vec(1usize..16, 1..20),
    ) {
        let mut stream = encode_stream(&bodies);
        stream.extend_from_slice(&hostile_len.to_be_bytes());
        // Trailing garbage the decoder must never interpret.
        stream.extend_from_slice(&[0xEE; 8]);

        let mut decoder = FrameDecoder::new(MAX_FRAME);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut poisoned = false;
        let mut offset = 0;
        let mut i = 0;
        while offset < stream.len() {
            let take = cuts[i % cuts.len()].min(stream.len() - offset);
            let fed = decoder.feed(&stream[offset..offset + take], |frame| {
                frames.push(frame.to_vec());
            });
            offset += take;
            i += 1;
            if fed.is_err() {
                poisoned = true;
                break;
            }
        }
        prop_assert!(poisoned, "hostile length must surface as an error");
        prop_assert_eq!(
            &frames, &bodies,
            "every frame before the hostile prefix must be delivered"
        );
        prop_assert!(!decoder.is_aligned(), "poisoned decoder is not aligned");
        // Poisoning is permanent: even a perfectly valid frame is
        // rejected afterwards.
        let retry = decoder.feed(&encode_stream(&[vec![1, 2, 3]]), |_| {
            panic!("poisoned decoder must not emit frames")
        });
        prop_assert!(retry.is_err(), "decoder must stay poisoned");
    }

    /// Any non-reserved lane id round-trips a consensus message
    /// through the lane-frame codec unchanged.
    #[test]
    fn lane_frames_roundtrip_for_any_lane(
        lane in 0u64..u64::MAX,
        view in any::<u64>(),
        seq in any::<u64>(),
        payload in prop::collection::vec(0u8.., 0..128),
    ) {
        let payload = BytesPayload(payload);
        let msg = PbftMsg::PrePrepare {
            view,
            seq,
            digest: payload.digest(),
            payload,
        };
        let mut body = Vec::new();
        encode_lane_msg_into(lane, &msg, &mut body);
        prop_assert_eq!(
            decode_lane_frame_ref::<BytesPayload>(&FrameRef::copied(&body))
                .expect("valid lane frame"),
            LaneFrame::Msg { lane, msg }
        );
    }

    /// App frames (reserved lane) carry arbitrary bytes verbatim and
    /// never collide with a consensus lane on decode.
    #[test]
    fn app_frames_roundtrip_any_bytes(bytes in prop::collection::vec(0u8.., 0..256)) {
        let mut body = Vec::new();
        encode_lane_app_into(&bytes, &mut body);
        prop_assert_eq!(
            decode_lane_frame_ref::<BytesPayload>(&FrameRef::copied(&body))
                .expect("valid app frame"),
            LaneFrame::App(FrameRef::copied(&bytes))
        );
    }

    /// Oracle check: for any stream, chunking and block size, the
    /// zero-copy `SharedDecoder` emits `FrameRef` views byte-identical
    /// to the copying `FrameDecoder`'s frames. Views are dropped as
    /// they arrive (the reactor's steady state), so rescue copying is
    /// only ever triggered by frames spanning block boundaries.
    #[test]
    fn shared_decoder_matches_copying_oracle_under_any_chunking(
        bodies in prop::collection::vec(
            prop::collection::vec(0u8.., 0..200),
            0..12,
        ),
        cuts in prop::collection::vec(1usize..40, 1..50),
        block in 8usize..512,
    ) {
        let stream = encode_stream(&bodies);
        let (oracle_frames, oracle) = decode_with_cuts(&stream, &cuts);
        let mut decoder = SharedDecoder::with_block_size(MAX_FRAME, block);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut offset = 0;
        let mut i = 0;
        while offset < stream.len() {
            let take = cuts[i % cuts.len()].min(stream.len() - offset);
            decoder
                .feed(&stream[offset..offset + take], |frame| {
                    frames.push(frame.to_vec());
                })
                .expect("valid stream must decode");
            offset += take;
            i += 1;
        }
        prop_assert_eq!(&frames, &oracle_frames, "zero-copy views differ from oracle");
        prop_assert_eq!(decoder.is_aligned(), oracle.is_aligned());
    }

    /// Same oracle check with every emitted view held alive until the
    /// end — the worst case for buffer reuse, forcing the decoder to
    /// rotate blocks instead of recycling them — and the views must
    /// still read back byte-identical *after* the whole stream is fed
    /// (a rotation that corrupted a live view would show up here).
    #[test]
    fn shared_decoder_views_survive_rotation_under_any_chunking(
        bodies in prop::collection::vec(
            prop::collection::vec(0u8.., 0..120),
            0..10,
        ),
        cuts in prop::collection::vec(1usize..24, 1..20),
        block in 8usize..256,
    ) {
        let stream = encode_stream(&bodies);
        let mut decoder = SharedDecoder::with_block_size(MAX_FRAME, block);
        let mut views: Vec<FrameRef> = Vec::new();
        let mut offset = 0;
        let mut i = 0;
        while offset < stream.len() {
            let take = cuts[i % cuts.len()].min(stream.len() - offset);
            decoder
                .feed(&stream[offset..offset + take], |frame| views.push(frame))
                .expect("valid stream must decode");
            offset += take;
            i += 1;
        }
        prop_assert_eq!(views.len(), bodies.len());
        for (view, body) in views.iter().zip(bodies.iter()) {
            prop_assert_eq!(&view[..], &body[..], "held view corrupted by buffer reuse");
        }
    }

    /// Poisoning semantics carry over to the zero-copy decoder: a
    /// hostile length prefix mid-stream delivers every prior frame,
    /// errors at exactly that point, and is permanent.
    #[test]
    fn shared_decoder_poisons_like_the_oracle(
        bodies in prop::collection::vec(
            prop::collection::vec(0u8.., 0..100),
            0..6,
        ),
        hostile_len in (MAX_FRAME as u32 + 1)..,
        cuts in prop::collection::vec(1usize..16, 1..20),
        block in 8usize..256,
    ) {
        let mut stream = encode_stream(&bodies);
        stream.extend_from_slice(&hostile_len.to_be_bytes());
        stream.extend_from_slice(&[0xEE; 8]);

        let mut decoder = SharedDecoder::with_block_size(MAX_FRAME, block);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut poisoned = false;
        let mut offset = 0;
        let mut i = 0;
        while offset < stream.len() {
            let take = cuts[i % cuts.len()].min(stream.len() - offset);
            let fed = decoder.feed(&stream[offset..offset + take], |frame| {
                frames.push(frame.to_vec());
            });
            offset += take;
            i += 1;
            if fed.is_err() {
                poisoned = true;
                break;
            }
        }
        prop_assert!(poisoned, "hostile length must surface as an error");
        prop_assert_eq!(
            &frames, &bodies,
            "every frame before the hostile prefix must be delivered"
        );
        prop_assert!(!decoder.is_aligned(), "poisoned decoder is not aligned");
        let retry = decoder.feed(&encode_stream(&[vec![1, 2, 3]]), |_| {
            panic!("poisoned decoder must not emit frames")
        });
        prop_assert!(retry.is_err(), "decoder must stay poisoned");
    }

    /// Hostile lane frames — truncated prefixes, a valid lane followed
    /// by garbage — error but never panic, and a hostile lane id alone
    /// is not a wire error (unknown lanes are dropped by routing, not
    /// the codec).
    #[test]
    fn hostile_lane_frames_never_panic(
        body in prop::collection::vec(0u8.., 0..64),
    ) {
        let frame = FrameRef::copied(&body);
        let _ = decode_lane_frame_ref::<BytesPayload>(&frame);
        if body.len() < 8 {
            prop_assert!(decode_lane_frame_ref::<BytesPayload>(&frame).is_err());
        }
    }

    /// The v2 hello round-trips exactly when (and only when) the
    /// acceptor expects the same group size and group id and the peer
    /// id is in range.
    #[test]
    fn hello_validates_iff_fields_match(
        id in 0usize..64,
        n in 1usize..64,
        group in any::<u64>(),
        other_group in any::<u64>(),
    ) {
        let hello = encode_hello(id, n, group);
        prop_assert_eq!(hello.len(), HANDSHAKE_LEN);
        let accepted = validate_hello(&hello, n, group);
        if id < n {
            prop_assert_eq!(accepted, Some(id));
        } else {
            prop_assert_eq!(accepted, None);
        }
        // A different expected group id always rejects.
        if other_group != group {
            prop_assert_eq!(validate_hello(&hello, n, other_group), None);
        }
        // A different group size always rejects.
        prop_assert_eq!(validate_hello(&hello, n + 1, group), None);
    }

    /// Arbitrary bytes in the hello slot never panic the validator,
    /// and anything not starting with the v2 magic is rejected.
    #[test]
    fn garbage_hello_never_validates(raw in prop::collection::vec(0u8.., HANDSHAKE_LEN..HANDSHAKE_LEN + 1)) {
        let hello: [u8; HANDSHAKE_LEN] = raw.try_into().expect("sized vec");
        let result = validate_hello(&hello, 4, 0);
        if &hello[..8] != b"CURBNET\x02" {
            prop_assert_eq!(result, None);
        }
    }

    /// APP_LANE is the all-ones id — the panic guard in the encoder
    /// plus this pin means no consensus instance can ever be assigned
    /// the app lane by accident.
    #[test]
    fn app_lane_is_pinned(_x in 0u8..1) {
        prop_assert_eq!(APP_LANE, u64::MAX);
    }
}
