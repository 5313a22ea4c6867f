//! Golden encodings: the exact bytes of fixed values in every wire and
//! WAL format the node speaks.
//!
//! Block digests, frames on the wire and WAL segments already on disk
//! all depend on these layouts. A codec refactor must leave every
//! expected string below unchanged; a deliberate format change updates
//! them in the same commit and says so.

use curb::chain::{Block, RequestKind, Transaction};
use curb::cluster::{ClusterMsg, CtrlPayload, SbMsg};
use curb::consensus::PayloadCodec;
use curb::core::{
    BlockPayload, ConfigData, FlowRuleSpec, ProtoTx, ReqKind, RequestKey, RequestRecord, SwitchId,
    TxListPayload,
};
use curb::crypto::rng::DetRng;
use curb::crypto::KeyPair;
use curb::telemetry::TraceCtx;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn payload_hex<P: PayloadCodec>(p: &P) -> String {
    let mut out = Vec::new();
    p.encode_payload(&mut out);
    hex(&out)
}

/// A block at height 1 holding one signed and one unsigned transaction.
fn block() -> Block {
    let mut rng = DetRng::new(4);
    let keys = KeyPair::generate(&mut rng);
    let mut signed = Transaction::new(RequestKind::PacketIn, 3, 1, vec![1, 2, 3]);
    signed.sign(&keys, &mut rng);
    let unsigned = Transaction::new(RequestKind::Reassign, 4, 2, vec![9]);
    Block::next(&Block::genesis(b"v0"), vec![signed, unsigned], 100)
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
            groups: vec![vec![0, 2], vec![]],
        },
    }
}

/// Drops the whitespace that separates fields in the expected strings.
fn pinned(fields: &str) -> String {
    fields.split_whitespace().collect()
}

// height | prev_hash | merkle_root | timestamp_ns | tx count, then per
// transaction: kind | switch | controller | config (u32 length, bytes)
// | signature flag [| public key | signature].
const BLOCK: &str = "
    0000000000000001
    ebecb0f1802a4d76c157edc883d992714e60b53abb2c77d556d1c9b8b64f1156
    67b384c2d6e93f769955e9f190532286621e9d96f92b33a44fb873b9e30ecb9b
    0000000000000064
    00000002
    00 0000000000000003 0000000000000001 00000003 010203
    01 a79bc6373c88634e6b550836fb95ea1ae22197139c2fe071e100cfffd42e7cb6
       f24ae7a3ef111abe41315ce4c22f9a4c25c3b344452769fc6030748ba7b5738e
       7b5174830017b0692bf7173fe6e012502fc5fedaca14f02b0c49a2d5252088bb
    01 0000000000000004 0000000000000002 00000001 09
    00";

// count, then per transaction a u32 length and the `ProtoTx`: switch |
// seq | kind (0 = PKT-IN dst_host, 1 = RE-ASS accused list) |
// handled_by | config (0 = flow rules, 1 = assignment groups).
const TX_LIST: &str = "
    00000002
    0000002a
      0000000000000003 0000000000000007 00 0000000c
      0000000000000001
      00 00000001 000a 0000000c 0002
    00000042
      0000000000000004 0000000000000009 01 00000002 0000000000000001 0000000000000005
      0000000000000000
      01 00000002 00000002 00000000 00000002 00000000";

// count, then per context: origin | nonce | hop. The second is
// `TraceCtx::NONE`.
const CTXS: &str = "
    00000002
    0000000000000003 0000000000000007 00000000
    ffffffffffffffff 0000000000000000 00000000";

#[test]
fn block_bytes_are_pinned() {
    assert_eq!(hex(&block().to_bytes()), pinned(BLOCK));
    assert_eq!(
        payload_hex(&BlockPayload(Some(block()))),
        pinned(&format!("01 {BLOCK}"))
    );
    assert_eq!(payload_hex(&BlockPayload(None)), "00");
}

/// A block at height 1 holding the sequenced chain transaction of
/// `pkt_in()`, as a final leader proposes it.
fn sequenced_block() -> Block {
    Block::next(&Block::genesis(b"v0"), vec![pkt_in().to_chain_tx()], 100)
}

// As `BLOCK`; the kind byte carries 0x80 and the request's seq follows
// the switch. The config is the `ProtoTx` of `TX_LIST`'s first entry.
const SEQUENCED_BLOCK: &str = "
    0000000000000001
    ebecb0f1802a4d76c157edc883d992714e60b53abb2c77d556d1c9b8b64f1156
    9e456f9bb26e89ecda53b7271dda3b5de89eaaa2751196b3ac3dcbe29fa629ad
    0000000000000064
    00000001
    80 0000000000000003 0000000000000007 0000000000000001
       0000002a
         0000000000000003 0000000000000007 00 0000000c
         0000000000000001
         00 00000001 000a 0000000c 0002
    00";

#[test]
fn sequenced_block_bytes_are_pinned() {
    let block = sequenced_block();
    assert_eq!(hex(&block.to_bytes()), pinned(SEQUENCED_BLOCK));
    assert_eq!(Block::from_bytes(&block.to_bytes()), Ok(block));
}

#[test]
fn tx_list_bytes_are_pinned() {
    assert_eq!(
        payload_hex(&TxListPayload(vec![pkt_in(), re_ass()])),
        pinned(TX_LIST)
    );
    assert_eq!(payload_hex(&TxListPayload::default()), "00000000");
}

#[test]
fn ctrl_payload_bytes_are_pinned() {
    let txs = CtrlPayload::Txs {
        txs: TxListPayload(vec![pkt_in(), re_ass()]),
        ctxs: vec![TraceCtx::mint(3, 7), TraceCtx::NONE],
    };
    assert_eq!(payload_hex(&txs), pinned(&format!("00 {CTXS} {TX_LIST}")));
    let block = CtrlPayload::Block(BlockPayload(Some(block())));
    assert_eq!(payload_hex(&block), pinned(&format!("01 01 {BLOCK}")));
}

#[test]
fn southbound_bytes_are_pinned() {
    let cases = [
        (SbMsg::Hello { switch: 9 }, "00 0000000000000009"),
        (
            SbMsg::Request {
                record: pkt_in().record,
                ctx: TraceCtx::mint(3, 7),
            },
            "01 0000000000000003 0000000000000007 00 0000000c
                0000000000000003 0000000000000007 00000000",
        ),
        (
            SbMsg::Request {
                record: re_ass().record,
                ctx: TraceCtx::NONE,
            },
            "01 0000000000000004 0000000000000009
                01 00000002 0000000000000001 0000000000000005
                ffffffffffffffff 0000000000000000 00000000",
        ),
        (
            SbMsg::Reply {
                controller: 2,
                key: pkt_in().record.key,
                config: pkt_in().config,
                ctx: TraceCtx::mint(3, 7).next_hop(),
            },
            "02 0000000000000002 0000000000000003 0000000000000007
                00 00000001 000a 0000000c 0002
                0000000000000003 0000000000000007 00000001",
        ),
        (
            SbMsg::Reply {
                controller: 1,
                key: re_ass().record.key,
                config: re_ass().config,
                ctx: TraceCtx::NONE,
            },
            "02 0000000000000001 0000000000000004 0000000000000009
                01 00000002 00000002 00000000 00000002 00000000
                ffffffffffffffff 0000000000000000 00000000",
        ),
    ];
    for (msg, expected) in cases {
        assert_eq!(hex(&msg.encode()), pinned(expected), "{msg:?}");
    }
}

#[test]
fn east_west_bytes_are_pinned() {
    let cases = [
        (
            ClusterMsg::Agree {
                epoch: 1,
                group: 2,
                ctxs: vec![TraceCtx::mint(3, 7), TraceCtx::NONE],
                txs: TxListPayload(vec![pkt_in(), re_ass()]),
            },
            format!("00 0000000000000001 0000000000000002 {CTXS} {TX_LIST}"),
        ),
        (
            ClusterMsg::FinalBlock {
                epoch: 5,
                block: block(),
            },
            format!("01 0000000000000005 {BLOCK}"),
        ),
        (
            ClusterMsg::Forward {
                record: re_ass().record,
                ctx: TraceCtx::mint(4, 9),
            },
            "02 0000000000000004 0000000000000009
                01 00000002 0000000000000001 0000000000000005
                0000000000000004 0000000000000009 00000000"
                .to_string(),
        ),
    ];
    for (msg, expected) in cases {
        assert_eq!(hex(&msg.encode()), pinned(&expected), "{msg:?}");
    }
}
