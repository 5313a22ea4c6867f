//! The one payload type every consensus lane of a controller node
//! agrees on.
//!
//! A node multiplexes all of its consensus instances — one intra-group
//! instance per controller group it belongs to, plus the final
//! committee — over a single [`MuxTransport`]. The transport is generic
//! over exactly one payload type, so the two Curb payloads
//! ([`TxListPayload`] for intra-group rounds, [`BlockPayload`] for the
//! final committee) are wrapped into [`CtrlPayload`]: lanes carrying
//! transaction lists and lanes carrying blocks share wire plumbing
//! without sharing consensus state.
//!
//! Intra-group proposals additionally carry one [`TraceCtx`] per
//! transaction so the round's correlation key survives the consensus
//! hop. The contexts are **observability metadata**: they ride in the
//! wire encoding but are excluded from [`Payload::digest`], so tracing
//! can never change what the replicas agree on (and a commit
//! certificate still verifies a payload whose contexts differ).
//!
//! [`MuxTransport`]: curb_net::MuxTransport

use curb_chain::codec::{decode_all, ByteReader, CodecError};
use curb_consensus::{Payload, PayloadCodec};
use curb_core::{BlockPayload, TxListPayload};
use curb_crypto::sha256::{digest_parts, Digest};
use curb_telemetry::TraceCtx;

/// Either Curb consensus payload, tagged so intra-group and final
/// lanes can share one transport type.
///
/// The [`Default`] value is the empty transaction list — the no-op
/// filler view changes commit into sequence holes, on either kind of
/// lane.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlPayload {
    /// An intra-group transaction list (Algorithm 3's `txList`).
    Txs {
        /// The proposed transactions.
        txs: TxListPayload,
        /// One trace context per transaction (same order). Not part of
        /// the digest; decoders reject a count mismatch.
        ctxs: Vec<TraceCtx>,
    },
    /// A final-committee block proposal.
    Block(BlockPayload),
}

impl CtrlPayload {
    /// An intra-group proposal with every context absent — for filler
    /// payloads and call sites that have nothing to correlate.
    pub fn txs_untraced(txs: TxListPayload) -> CtrlPayload {
        let ctxs = vec![TraceCtx::NONE; txs.0.len()];
        CtrlPayload::Txs { txs, ctxs }
    }
}

impl Default for CtrlPayload {
    fn default() -> Self {
        CtrlPayload::txs_untraced(TxListPayload::default())
    }
}

impl Payload for CtrlPayload {
    fn digest(&self) -> Digest {
        // Domain-separate the variants so a transaction list can never
        // collide with a block proposal in prepare/commit references.
        // Trace contexts are deliberately left out: replicas agree on
        // the transactions, not on who is watching them.
        match self {
            CtrlPayload::Txs { txs, .. } => digest_parts(&[b"ctrl-txs", &txs.digest().0]),
            CtrlPayload::Block(block) => digest_parts(&[b"ctrl-block", &block.digest().0]),
        }
    }

    fn wire_size(&self) -> usize {
        1 + match self {
            CtrlPayload::Txs { txs, ctxs } => 4 + ctxs.len() * TraceCtx::WIRE_LEN + txs.wire_size(),
            CtrlPayload::Block(block) => block.wire_size(),
        }
    }
}

impl PayloadCodec for CtrlPayload {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            CtrlPayload::Txs { txs, ctxs } => {
                out.push(0);
                put_traced(out, ctxs, txs);
            }
            CtrlPayload::Block(block) => {
                out.push(1);
                block.encode_payload(out);
            }
        }
    }

    fn decode_payload(bytes: &[u8]) -> Option<Self> {
        decode_all(bytes, |r| match r.u8()? {
            0 => read_traced(r).map(|(ctxs, txs)| CtrlPayload::Txs { txs, ctxs }),
            1 => BlockPayload::read(r).map(CtrlPayload::Block),
            _ => Err(CodecError::Corrupt("payload tag")),
        })
        .ok()
    }
}

/// Appends a transaction list traced one context per transaction:
/// `u32` count, the contexts, then the list. The layout of both
/// [`CtrlPayload::Txs`] and [`ClusterMsg::Agree`].
///
/// [`ClusterMsg::Agree`]: crate::ClusterMsg::Agree
pub(crate) fn put_traced(out: &mut Vec<u8>, ctxs: &[TraceCtx], txs: &TxListPayload) {
    out.extend_from_slice(&(ctxs.len() as u32).to_be_bytes());
    for ctx in ctxs {
        ctx.encode_to(out);
    }
    txs.encode_payload(out);
}

/// Reads what [`put_traced`] wrote, rejecting a context count that
/// differs from the transaction count.
pub(crate) fn read_traced(
    r: &mut ByteReader<'_>,
) -> Result<(Vec<TraceCtx>, TxListPayload), CodecError> {
    let n = r.count(TraceCtx::WIRE_LEN, "trace-context count")?;
    let mut ctxs = Vec::with_capacity(n);
    for _ in 0..n {
        ctxs.push(read_ctx(r)?);
    }
    let txs = TxListPayload::read(r)?;
    if ctxs.len() != txs.0.len() {
        return Err(CodecError::Corrupt("trace-context count"));
    }
    Ok((ctxs, txs))
}

/// Reads one fixed-size [`TraceCtx`].
pub(crate) fn read_ctx(r: &mut ByteReader<'_>) -> Result<TraceCtx, CodecError> {
    TraceCtx::decode(&mut r.take(TraceCtx::WIRE_LEN)?).ok_or(CodecError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use curb_chain::Block;
    use curb_core::{ConfigData, ProtoTx, ReqKind, RequestKey, RequestRecord, SwitchId};

    fn sample_tx() -> ProtoTx {
        ProtoTx {
            record: RequestRecord {
                key: RequestKey {
                    switch: SwitchId(2),
                    seq: 7,
                },
                kind: ReqKind::PktIn { dst_host: 5 },
            },
            handled_by: 1,
            config: ConfigData::FlowRules(vec![]),
        }
    }

    #[test]
    fn roundtrips_both_variants() {
        let genesis = Block::genesis(b"init");
        let block = Block::next(&genesis, vec![sample_tx().to_chain_tx()], 9);
        let payloads = [
            CtrlPayload::default(),
            CtrlPayload::Txs {
                txs: TxListPayload(vec![sample_tx()]),
                ctxs: vec![TraceCtx::mint(2, 7).next_hop()],
            },
            CtrlPayload::txs_untraced(TxListPayload(vec![sample_tx()])),
            CtrlPayload::Block(BlockPayload(None)),
            CtrlPayload::Block(BlockPayload(Some(block))),
        ];
        for p in payloads {
            let mut bytes = Vec::new();
            p.encode_payload(&mut bytes);
            assert_eq!(CtrlPayload::decode_payload(&bytes), Some(p));
        }
    }

    #[test]
    fn variants_never_collide_on_digest() {
        let txs = CtrlPayload::default();
        let block = CtrlPayload::Block(BlockPayload(None));
        assert_ne!(txs.digest(), block.digest());
    }

    #[test]
    fn trace_ctx_does_not_change_the_digest() {
        let traced = CtrlPayload::Txs {
            txs: TxListPayload(vec![sample_tx()]),
            ctxs: vec![TraceCtx::mint(9, 42)],
        };
        let untraced = CtrlPayload::txs_untraced(TxListPayload(vec![sample_tx()]));
        assert_eq!(
            traced.digest(),
            untraced.digest(),
            "contexts are observability metadata, not consensus content"
        );
        assert_ne!(
            {
                let mut b = Vec::new();
                traced.encode_payload(&mut b);
                b
            },
            {
                let mut b = Vec::new();
                untraced.encode_payload(&mut b);
                b
            },
            "but they do ride in the wire bytes"
        );
    }

    #[test]
    fn ctx_count_mismatch_is_rejected() {
        let mut bytes = Vec::new();
        CtrlPayload::txs_untraced(TxListPayload(vec![sample_tx()])).encode_payload(&mut bytes);
        // Bump the context count without adding a context.
        bytes[1..5].copy_from_slice(&2u32.to_be_bytes());
        assert_eq!(CtrlPayload::decode_payload(&bytes), None);
    }

    #[test]
    fn hostile_bytes_never_panic() {
        for bytes in [
            &[][..],
            &[9][..],
            &[0, 1][..],
            &[0, 0, 0, 0, 1][..],
            &[0xFF; 30][..],
            &[1, 1, 2, 3][..],
        ] {
            let _ = CtrlPayload::decode_payload(bytes);
        }
    }
}
