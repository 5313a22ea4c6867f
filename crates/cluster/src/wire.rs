//! Wire codecs for the two cluster-only protocols.
//!
//! * **Southbound** ([`SbMsg`]) — the s-agent ↔ controller protocol:
//!   length-prefixed frames on a dedicated TCP connection per
//!   (switch, controller) pair. An agent opens with [`SbMsg::Hello`],
//!   broadcasts [`SbMsg::Request`] to every controller in its list, and
//!   collects [`SbMsg::Reply`] until `f + 1` identical configurations
//!   arrive (Algorithm 1's accept rule).
//! * **East-west** ([`ClusterMsg`]) — controller ↔ controller messages
//!   that are *not* consensus traffic, carried on the shared
//!   transport's [`APP_LANE`]: the group leader's post-commit `AGREE`
//!   hand-off to the final committee and the final committee's block
//!   announcement to every node.
//!
//! Both codecs are total: any byte string decodes to `Some` or `None`,
//! never a panic — a byzantine peer controls every byte.
//!
//! [`APP_LANE`]: curb_net::APP_LANE

use crate::payload::{put_traced, read_ctx, read_traced};
use curb_chain::codec::{decode_all, decode_block, encode_block, CodecError};
use curb_chain::Block;
use curb_core::{ConfigData, RequestKey, RequestRecord, SwitchId, TxListPayload};
use curb_telemetry::TraceCtx;
use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest southbound frame body either side accepts.
pub(crate) const SB_MAX_FRAME: usize = 1 << 20;

/// How long one southbound write may block before it fails. Well above
/// a host stall of a few hundred ms, so only a peer that stopped
/// reading trips it; the writer then drops that connection instead of
/// stalling its loop behind it.
pub const SB_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Sets up a southbound stream, on the agent's and the node's side
/// alike: no Nagle delay, and writes bounded by [`SB_WRITE_TIMEOUT`].
///
/// # Errors
///
/// The socket option calls' errors.
pub fn sb_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(SB_WRITE_TIMEOUT))
}

/// Appends one southbound frame (u32 length prefix + body) to `buf`.
pub(crate) fn push_sb_frame(buf: &mut Vec<u8>, msg: &SbMsg) {
    let body = msg.encode();
    buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
    buf.extend_from_slice(&body);
}

/// Writes one southbound frame.
pub(crate) fn write_sb_frame(stream: &mut TcpStream, msg: &SbMsg) -> io::Result<()> {
    let mut frame = Vec::new();
    push_sb_frame(&mut frame, msg);
    stream.write_all(&frame)
}

/// A southbound frame body (agent ↔ controller).
#[derive(Debug, Clone, PartialEq)]
pub enum SbMsg {
    /// Agent → controller, first frame: identifies the issuing switch
    /// so the controller can route replies for it onto this
    /// connection.
    Hello {
        /// The switch this agent fronts.
        switch: u64,
    },
    /// Agent → controller: a PKT-IN or RE-ASS request.
    Request {
        /// The request.
        record: RequestRecord,
        /// The round's trace context, minted by the issuing agent.
        /// Observability metadata only: excluded from every digest and
        /// from the request's signing bytes.
        ctx: TraceCtx,
    },
    /// Controller → agent: the configuration committed for `key`, as
    /// claimed by `controller`. Agents accept on `f + 1` identical
    /// configs and flag contradictors as byzantine evidence.
    Reply {
        /// The replying controller.
        controller: u64,
        /// The request this reply answers.
        key: RequestKey,
        /// The (claimed) committed configuration.
        config: ConfigData,
        /// The round's trace context, echoed back one hop further
        /// along ([`TraceCtx::NONE`] for controller-initiated
        /// announcements).
        ctx: TraceCtx,
    },
}

impl SbMsg {
    /// Encodes this message as one frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            SbMsg::Hello { switch } => {
                out.push(0);
                out.extend_from_slice(&switch.to_be_bytes());
            }
            SbMsg::Request { record, ctx } => {
                out.push(1);
                record.encode_to(&mut out);
                ctx.encode_to(&mut out);
            }
            SbMsg::Reply {
                controller,
                key,
                config,
                ctx,
            } => {
                out.push(2);
                out.extend_from_slice(&controller.to_be_bytes());
                out.extend_from_slice(&(key.switch.0 as u64).to_be_bytes());
                out.extend_from_slice(&key.seq.to_be_bytes());
                config.encode_to(&mut out);
                ctx.encode_to(&mut out);
            }
        }
        out
    }

    /// Decodes one frame body. `None` on malformed or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Option<SbMsg> {
        decode_all(bytes, |r| match r.u8()? {
            0 => Ok(SbMsg::Hello { switch: r.u64()? }),
            1 => Ok(SbMsg::Request {
                record: RequestRecord::read(r)?,
                ctx: read_ctx(r)?,
            }),
            2 => Ok(SbMsg::Reply {
                controller: r.u64()?,
                key: RequestKey {
                    switch: SwitchId(r.u64()? as usize),
                    seq: r.u64()?,
                },
                config: ConfigData::read(r)?,
                ctx: read_ctx(r)?,
            }),
            _ => Err(CodecError::Corrupt("southbound tag")),
        })
        .ok()
    }
}

/// An east-west app-lane message between controller nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterMsg {
    /// Group leader → final-committee leader after an intra-group
    /// commit: the agreed transaction list, ready for block inclusion
    /// (the paper's Step 3 hand-off).
    Agree {
        /// Epoch the intra-group instance belonged to.
        epoch: u64,
        /// The originating controller group.
        group: u64,
        /// Trace contexts, one per transaction in `txs` (in order).
        /// Observability metadata only — never digested or signed.
        ctxs: Vec<TraceCtx>,
        /// The intra-group-committed transactions.
        txs: TxListPayload,
    },
    /// Final-committee member → everyone after a final commit: the
    /// appended block. Nodes outside the committee adopt a block once
    /// `f + 1` distinct committee members announce the same one.
    FinalBlock {
        /// Epoch whose final committee certified the block.
        epoch: u64,
        /// The certified block.
        block: Block,
    },
    /// Group member → its group's current leader: a southbound request
    /// that arrived at a follower, relayed to the controller that can
    /// actually propose it (PBFT's client-request forwarding). Covers
    /// an agent whose stale controller list overlaps the current group
    /// but no longer contains its leader — the members it can still
    /// reach hand the request on instead of dropping it.
    Forward {
        /// The relayed request.
        record: RequestRecord,
        /// The request's trace context, relayed unchanged.
        ctx: TraceCtx,
    },
}

impl ClusterMsg {
    /// Encodes this message as one app-lane payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ClusterMsg::Agree {
                epoch,
                group,
                ctxs,
                txs,
            } => {
                out.push(0);
                out.extend_from_slice(&epoch.to_be_bytes());
                out.extend_from_slice(&group.to_be_bytes());
                put_traced(&mut out, ctxs, txs);
            }
            ClusterMsg::FinalBlock { epoch, block } => {
                out.push(1);
                out.extend_from_slice(&epoch.to_be_bytes());
                encode_block(&mut out, block);
            }
            ClusterMsg::Forward { record, ctx } => {
                out.push(2);
                record.encode_to(&mut out);
                ctx.encode_to(&mut out);
            }
        }
        out
    }

    /// Decodes one app-lane payload. `None` on malformed input, on
    /// trailing bytes and on a block whose body does not match its
    /// header's Merkle commitment.
    pub fn decode(bytes: &[u8]) -> Option<ClusterMsg> {
        decode_all(bytes, |r| match r.u8()? {
            0 => {
                let (epoch, group) = (r.u64()?, r.u64()?);
                let (ctxs, txs) = read_traced(r)?;
                Ok(ClusterMsg::Agree {
                    epoch,
                    group,
                    ctxs,
                    txs,
                })
            }
            1 => match (r.u64()?, decode_block(r)?) {
                (epoch, block) if block.body_matches_header() => {
                    Ok(ClusterMsg::FinalBlock { epoch, block })
                }
                _ => Err(CodecError::Corrupt("block body")),
            },
            2 => Ok(ClusterMsg::Forward {
                record: RequestRecord::read(r)?,
                ctx: read_ctx(r)?,
            }),
            _ => Err(CodecError::Corrupt("app message tag")),
        })
        .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curb_core::{FlowRuleSpec, ProtoTx, ReqKind};

    fn record(seq: u64) -> RequestRecord {
        RequestRecord {
            key: RequestKey {
                switch: SwitchId(3),
                seq,
            },
            kind: ReqKind::PktIn { dst_host: 12 },
        }
    }

    #[test]
    fn southbound_roundtrip() {
        let msgs = [
            SbMsg::Hello { switch: 9 },
            SbMsg::Request {
                record: record(4),
                ctx: TraceCtx::mint(3, 77),
            },
            SbMsg::Request {
                record: RequestRecord {
                    key: RequestKey {
                        switch: SwitchId(1),
                        seq: 2,
                    },
                    kind: ReqKind::ReAss {
                        accused: vec![0, 3],
                    },
                },
                ctx: TraceCtx::NONE,
            },
            SbMsg::Reply {
                controller: 2,
                key: record(4).key,
                config: ConfigData::FlowRules(vec![FlowRuleSpec {
                    priority: 10,
                    dst_host: 12,
                    out_port: 3,
                }]),
                ctx: TraceCtx::mint(3, 77).next_hop(),
            },
        ];
        for msg in msgs {
            assert_eq!(SbMsg::decode(&msg.encode()), Some(msg));
        }
    }

    #[test]
    fn east_west_roundtrip() {
        let tx = ProtoTx {
            record: record(1),
            handled_by: 0,
            config: ConfigData::FlowRules(vec![]),
        };
        let genesis = Block::genesis(b"init");
        let block = Block::next(&genesis, vec![tx.to_chain_tx()], 77);
        let msgs = [
            ClusterMsg::Agree {
                epoch: 1,
                group: 0,
                ctxs: vec![TraceCtx::mint(3, 9).next_hop()],
                txs: TxListPayload(vec![tx]),
            },
            ClusterMsg::FinalBlock { epoch: 1, block },
            ClusterMsg::Forward {
                record: record(6),
                ctx: TraceCtx::mint(3, 6),
            },
        ];
        for msg in msgs {
            assert_eq!(ClusterMsg::decode(&msg.encode()), Some(msg));
        }
    }

    #[test]
    fn agree_ctx_count_must_match_txs() {
        let tx = ProtoTx {
            record: record(1),
            handled_by: 0,
            config: ConfigData::FlowRules(vec![]),
        };
        let msg = ClusterMsg::Agree {
            epoch: 1,
            group: 0,
            ctxs: vec![TraceCtx::mint(3, 9)],
            txs: TxListPayload(vec![tx]),
        };
        let mut bytes = msg.encode();
        // Bump the context count without adding a context: the count
        // now points into the tx list and the decode must reject it.
        bytes[17..21].copy_from_slice(&2u32.to_be_bytes());
        assert_eq!(ClusterMsg::decode(&bytes), None);
    }

    #[test]
    fn hostile_bytes_never_panic() {
        for bytes in [
            &[][..],
            &[7][..],
            &[0][..],
            &[1, 2, 3][..],
            &[2, 0, 0][..],
            &[0xFF; 40][..],
        ] {
            let _ = SbMsg::decode(bytes);
            let _ = ClusterMsg::decode(bytes);
        }
        // Trailing garbage is rejected, not silently accepted.
        let mut bytes = SbMsg::Hello { switch: 1 }.encode();
        bytes.push(0);
        assert_eq!(SbMsg::decode(&bytes), None);
    }
}
