//! Hostile input: every decoder a peer socket, an agent socket or a WAL
//! segment can reach, fed arbitrary bytes and damaged valid encodings.
//!
//! For any input a decoder must return an error or a value — never
//! panic — and its peak heap allocation must stay within
//! [`budget`]: 32 bytes per input byte plus 64 KiB. A byzantine peer
//! controls every byte it sends, so a count field must never reserve
//! memory the rest of the input cannot back.
//!
//! A counting global allocator (`tests/common`) measures the peak.
//! Tests take one lock in turn, so no other test allocates during a
//! measurement.

use curb::chain::{Block, RequestKind, Transaction};
use curb::cluster::{ClusterMsg, CtrlPayload, SbMsg};
use curb::consensus::{Batch, CommitCert, CommittedEntry, Payload, PayloadCodec, PbftMsg};
use curb::core::{
    BlockPayload, ConfigData, FlowRuleSpec, ProtoTx, ReqKind, RequestKey, RequestRecord, SwitchId,
    TxListPayload,
};
use curb::crypto::rng::DetRng;
use curb::crypto::KeyPair;
use curb::net::{decode_lane_frame_ref, decode_msg, encode_lane_msg_into, encode_msg, FrameRef};
use curb::telemetry::TraceCtx;
use proptest::prelude::*;

mod common;
use common::{peak_alloc, serial};

/// The most a decoder may hold at once for an input of `len` bytes.
fn budget(len: usize) -> usize {
    32 * len + (64 << 10)
}

type Lane = Batch<CtrlPayload>;

fn payload<P: PayloadCodec>(bytes: &[u8]) -> bool {
    P::decode_payload(bytes).is_some()
}

/// A whole-buffer decoder; `true` if it accepted the input.
type Decoder = fn(&[u8]) -> bool;

/// Every whole-buffer decoder reachable from a socket or the WAL.
const DECODERS: [(&str, Decoder); 10] = [
    ("decode_msg", |b| decode_msg::<Lane>(b).is_ok()),
    ("decode_lane_frame_ref", |b| {
        decode_lane_frame_ref::<Lane>(&FrameRef::copied(b)).is_ok()
    }),
    ("Batch", payload::<Lane>),
    ("TxListPayload", payload::<TxListPayload>),
    ("BlockPayload", payload::<BlockPayload>),
    ("CtrlPayload", payload::<CtrlPayload>),
    ("ClusterMsg", |b| ClusterMsg::decode(b).is_some()),
    ("SbMsg", |b| SbMsg::decode(b).is_some()),
    ("Block::from_bytes", |b| Block::from_bytes(b).is_ok()),
    ("ProtoTx", |b| ProtoTx::decode(b).is_some()),
];

fn decoder(name: &str) -> Decoder {
    DECODERS.iter().find(|(n, _)| *n == name).expect("known").1
}

/// Runs `decode` on `bytes` and checks the allocation budget.
fn bounded(name: &str, bytes: &[u8]) -> Result<bool, String> {
    let (accepted, peak) = peak_alloc(|| decoder(name)(bytes));
    if peak > budget(bytes.len()) {
        return Err(format!(
            "{name}: {} input bytes reserved {peak} bytes (budget {})",
            bytes.len(),
            budget(bytes.len())
        ));
    }
    Ok(accepted)
}

fn block() -> Block {
    let mut rng = DetRng::new(4);
    let keys = KeyPair::generate(&mut rng);
    let mut signed = Transaction::new(RequestKind::PacketIn, 3, 1, vec![1, 2, 3]);
    signed.sign(&keys, &mut rng);
    let unsigned = Transaction::new(RequestKind::Reassign, 4, 2, re_ass().encode());
    let sequenced = pkt_in().to_chain_tx();
    Block::next(
        &Block::genesis(b"v0"),
        vec![signed, unsigned, sequenced],
        100,
    )
}

fn pkt_in() -> ProtoTx {
    ProtoTx {
        record: RequestRecord {
            key: RequestKey {
                switch: SwitchId(3),
                seq: 7,
            },
            kind: ReqKind::PktIn { dst_host: 12 },
        },
        handled_by: 1,
        config: ConfigData::FlowRules(vec![FlowRuleSpec {
            priority: 10,
            dst_host: 12,
            out_port: 2,
        }]),
    }
}

fn re_ass() -> ProtoTx {
    ProtoTx {
        record: RequestRecord {
            key: RequestKey {
                switch: SwitchId(4),
                seq: 9,
            },
            kind: ReqKind::ReAss {
                accused: vec![1, 5],
            },
        },
        handled_by: 0,
        config: ConfigData::NewAssignment {
            groups: vec![vec![0, 2], vec![1]],
        },
    }
}

fn encoded<P: PayloadCodec>(p: &P) -> Vec<u8> {
    let mut out = Vec::new();
    p.encode_payload(&mut out);
    out
}

/// Valid encodings, one or more per decoder, to damage.
fn samples() -> Vec<(&'static str, Vec<u8>)> {
    let txs = TxListPayload(vec![pkt_in(), re_ass()]);
    let traced = CtrlPayload::Txs {
        txs: txs.clone(),
        ctxs: vec![TraceCtx::mint(3, 7), TraceCtx::NONE],
    };
    let proposal = CtrlPayload::Block(BlockPayload(Some(block())));
    let batch: Lane = Batch(vec![traced.clone(), proposal.clone()]);
    let msgs: Vec<PbftMsg<Lane>> = vec![
        PbftMsg::PrePrepare {
            view: 1,
            seq: 2,
            digest: batch.digest(),
            payload: batch.clone(),
        },
        PbftMsg::ViewChange {
            new_view: 2,
            prepared: vec![(2, batch.clone()), (3, Batch(vec![]))],
        },
        PbftMsg::SnapshotResponse {
            checkpoint_seq: 64,
            checkpoint: CommitCert {
                digest: batch.digest(),
                voters: vec![0, 1, 2],
            },
            entries: vec![CommittedEntry {
                seq: 65,
                payload: batch.clone(),
                cert: CommitCert {
                    digest: batch.digest(),
                    voters: vec![1, 2, 3],
                },
            }],
        },
    ];
    let mut out = Vec::new();
    for msg in &msgs {
        out.push(("decode_msg", encode_msg(msg)));
        let mut lane = Vec::new();
        encode_lane_msg_into(7, msg, &mut lane);
        out.push(("decode_lane_frame_ref", lane));
    }
    out.push(("Batch", encoded(&batch)));
    out.push(("TxListPayload", encoded(&txs)));
    out.push(("BlockPayload", encoded(&BlockPayload(Some(block())))));
    out.push(("CtrlPayload", encoded(&traced)));
    out.push(("CtrlPayload", encoded(&proposal)));
    for msg in [
        ClusterMsg::Agree {
            epoch: 1,
            group: 2,
            ctxs: vec![TraceCtx::mint(3, 7), TraceCtx::NONE],
            txs,
        },
        ClusterMsg::FinalBlock {
            epoch: 5,
            block: block(),
        },
        ClusterMsg::Forward {
            record: re_ass().record,
            ctx: TraceCtx::mint(4, 9),
        },
    ] {
        out.push(("ClusterMsg", msg.encode()));
    }
    for msg in [
        SbMsg::Hello { switch: 9 },
        SbMsg::Request {
            record: re_ass().record,
            ctx: TraceCtx::NONE,
        },
        SbMsg::Reply {
            controller: 1,
            key: re_ass().record.key,
            config: re_ass().config,
            ctx: TraceCtx::mint(4, 9),
        },
        SbMsg::Reply {
            controller: 2,
            key: pkt_in().record.key,
            config: pkt_in().config,
            ctx: TraceCtx::NONE,
        },
    ] {
        out.push(("SbMsg", msg.encode()));
    }
    out.push(("Block::from_bytes", block().to_bytes()));
    out.push(("ProtoTx", re_ass().encode()));
    out
}

/// Count-like values to splice over any four bytes of a valid encoding.
const HOSTILE_U32: [u32; 5] = [u32::MAX, 1 << 31, 1 << 24, 1 << 20, 1_000_000];

#[test]
fn valid_samples_decode_within_budget() {
    let _serial = serial();
    for (name, bytes) in samples() {
        assert_eq!(bounded(name, &bytes), Ok(true), "{name}");
    }
}

#[test]
fn every_strict_prefix_and_trailing_byte_is_rejected_within_budget() {
    let _serial = serial();
    for (name, bytes) in samples() {
        for cut in 0..bytes.len() {
            assert_eq!(bounded(name, &bytes[..cut]), Ok(false), "{name} cut {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        // An app-lane frame is opaque bytes; any length is well formed.
        if name != "decode_lane_frame_ref" {
            assert_eq!(bounded(name, &padded), Ok(false), "{name} padded");
        }
    }
}

#[test]
fn a_hostile_count_anywhere_stays_within_budget() {
    let _serial = serial();
    for (name, bytes) in samples() {
        for at in 0..bytes.len().saturating_sub(3) {
            for value in HOSTILE_U32 {
                let mut spliced = bytes.clone();
                spliced[at..at + 4].copy_from_slice(&value.to_be_bytes());
                if let Err(e) = bounded(name, &spliced) {
                    panic!("{e} (u32 {value:#x} at offset {at})");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_stay_within_budget(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _serial = serial();
        for (name, _) in DECODERS {
            if let Err(e) = bounded(name, &bytes) {
                prop_assert!(false, "{}", e);
            }
        }
    }

    #[test]
    fn bit_flipped_samples_stay_within_budget(
        which in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        bit in 0u8..8,
        tag in any::<u8>(),
    ) {
        let _serial = serial();
        let samples = samples();
        let (name, bytes) = &samples[which.index(samples.len())];
        let mut flipped = bytes.clone();
        let at = at.index(flipped.len());
        flipped[at] ^= 1 << bit;
        if let Err(e) = bounded(name, &flipped) {
            prop_assert!(false, "{}", e);
        }
        // The same body behind any message tag.
        flipped[0] = tag;
        if let Err(e) = bounded(name, &flipped) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Rejects `bytes` without panicking and within the budget.
fn assert_rejected_within_budget(name: &str, bytes: &[u8]) {
    let _serial = serial();
    match bounded(name, bytes) {
        Ok(accepted) => assert!(!accepted, "{name} accepted {bytes:02x?}"),
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn regression_block_payload_with_a_million_transactions_in_85_bytes() {
    // Tag | height | prev_hash | merkle_root | timestamp | count 2^20.
    let mut bytes = vec![1u8];
    bytes.extend_from_slice(&[0; 80]);
    bytes.extend_from_slice(&(1u32 << 20).to_be_bytes());
    assert_eq!(bytes.len(), 85);
    assert_rejected_within_budget("BlockPayload", &bytes);
}

#[test]
fn regression_tx_list_with_a_million_entries_in_4_bytes() {
    assert_rejected_within_budget("TxListPayload", &(1u32 << 20).to_be_bytes());
}

#[test]
fn regression_reply_config_with_a_million_groups_in_5_bytes() {
    // Reply: tag | controller | switch | seq, then a 5-byte config:
    // tag 1 (assignment) | group count 1 000 000.
    let mut bytes = vec![2u8];
    bytes.extend_from_slice(&[0; 24]);
    bytes.push(1);
    bytes.extend_from_slice(&1_000_000u32.to_be_bytes());
    assert_rejected_within_budget("SbMsg", &bytes);
}

#[test]
fn regression_request_accusing_a_million_controllers_in_21_bytes() {
    // Request: tag, then a 21-byte record: switch | seq | tag 1
    // (RE-ASS) | accused count 1 000 000.
    let mut bytes = vec![1u8];
    bytes.extend_from_slice(&[0; 16]);
    bytes.push(1);
    bytes.extend_from_slice(&1_000_000u32.to_be_bytes());
    assert_eq!(bytes.len(), 1 + 21);
    assert_rejected_within_budget("SbMsg", &bytes);
}

#[test]
fn regression_wal_block_with_2_pow_24_transactions() {
    // Height | prev_hash | merkle_root | timestamp | count 2^24.
    let mut bytes = vec![0u8; 80];
    bytes.extend_from_slice(&(1u32 << 24).to_be_bytes());
    assert_rejected_within_budget("Block::from_bytes", &bytes);
}
