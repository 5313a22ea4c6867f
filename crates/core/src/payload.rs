//! Protocol payloads: requests, configurations, transactions, and the
//! two consensus payload types (transaction lists and blocks).

use crate::ids::SwitchId;
use curb_chain::codec::{
    decode_all, decode_block, encode_block, put_prefixed, ByteReader, CodecError,
};
use curb_chain::{Block, RequestKind, Transaction};
use curb_consensus::{Payload, PayloadCodec};
use curb_crypto::sha256::{digest_parts, Digest};
use curb_crypto::{PublicKey, Signature};

/// Uniquely identifies a request: issuing switch plus its local
/// sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestKey {
    /// Issuing switch.
    pub switch: SwitchId,
    /// Switch-local sequence number.
    pub seq: u64,
}

/// What a request asks for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// `PKT-IN`: the switch needs flow entries for packets to `dst_host`.
    PktIn {
        /// Destination host the table-missed packet was addressed to.
        dst_host: u32,
    },
    /// `RE-ASS`: the switch accuses controllers of byzantine behaviour
    /// and requests a reassignment.
    ReAss {
        /// Accused controller indices.
        accused: Vec<usize>,
    },
}

impl ReqKind {
    /// The blockchain-level request kind.
    pub fn chain_kind(&self) -> RequestKind {
        match self {
            ReqKind::PktIn { .. } => RequestKind::PacketIn,
            ReqKind::ReAss { .. } => RequestKind::Reassign,
        }
    }
}

/// A request as stored and deduplicated by controllers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestRecord {
    /// Unique key (dedup handle, `⟨·, reqMsg, s, c, ·⟩ ∈ reqBuffer`).
    pub key: RequestKey,
    /// The request content.
    pub kind: ReqKind,
}

impl RequestRecord {
    /// Canonical, self-delimiting bytes; also what the switch signs.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_to(&mut out);
        out
    }

    /// Appends [`Self::signing_bytes`] to `out`.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.key.switch.0 as u64).to_be_bytes());
        out.extend_from_slice(&self.key.seq.to_be_bytes());
        match &self.kind {
            ReqKind::PktIn { dst_host } => {
                out.push(0);
                out.extend_from_slice(&dst_host.to_be_bytes());
            }
            ReqKind::ReAss { accused } => {
                out.push(1);
                out.extend_from_slice(&(accused.len() as u32).to_be_bytes());
                for a in accused {
                    out.extend_from_slice(&(*a as u64).to_be_bytes());
                }
            }
        }
    }

    /// Reads a record written by [`Self::encode_to`] from the front of
    /// `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input.
    pub fn read(r: &mut ByteReader<'_>) -> Result<RequestRecord, CodecError> {
        let key = RequestKey {
            switch: SwitchId(r.u64()? as usize),
            seq: r.u64()?,
        };
        let kind = match r.u8()? {
            0 => ReqKind::PktIn { dst_host: r.u32()? },
            1 => {
                let n = r.count(8, "accused count")?;
                let accused = (0..n).map(|_| r.u64().map(|a| a as usize));
                ReqKind::ReAss {
                    accused: accused.collect::<Result<_, _>>()?,
                }
            }
            _ => return Err(CodecError::Corrupt("request kind")),
        };
        Ok(RequestRecord { key, kind })
    }
}

/// A request plus its (optional) signature, as sent on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedRequest {
    /// The request.
    pub record: RequestRecord,
    /// Signature by the issuing switch, when request signing is on.
    pub signature: Option<(PublicKey, Signature)>,
}

impl SignedRequest {
    /// Verifies the signature if present (unsigned requests pass).
    pub fn verify(&self) -> bool {
        match &self.signature {
            Some((pk, sig)) => pk.verify(&self.record.signing_bytes(), sig),
            None => true,
        }
    }
}

/// One installable flow rule, in serialisable form (the `config` of a
/// PKT-IN transaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowRuleSpec {
    /// Rule priority.
    pub priority: u16,
    /// Destination host the rule matches.
    pub dst_host: u32,
    /// Egress port to forward matching packets to.
    pub out_port: u16,
}

/// The configuration a controller computes for a request
/// (`ComputeConfig` in Algorithm 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConfigData {
    /// New flow entries for the requesting switch.
    FlowRules(Vec<FlowRuleSpec>),
    /// A full controller-assignment: `groups[i]` is switch `i`'s new
    /// controller list.
    NewAssignment {
        /// Per-switch controller groups.
        groups: Vec<Vec<usize>>,
    },
}

impl ConfigData {
    /// Canonical byte encoding (recorded in blockchain transactions).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_to(&mut out);
        out
    }

    /// Appends [`Self::encode`]'s bytes to `out`.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            ConfigData::FlowRules(rules) => {
                out.push(0);
                out.extend_from_slice(&(rules.len() as u32).to_be_bytes());
                for r in rules {
                    out.extend_from_slice(&r.priority.to_be_bytes());
                    out.extend_from_slice(&r.dst_host.to_be_bytes());
                    out.extend_from_slice(&r.out_port.to_be_bytes());
                }
            }
            ConfigData::NewAssignment { groups } => {
                out.push(1);
                out.extend_from_slice(&(groups.len() as u32).to_be_bytes());
                for g in groups {
                    out.extend_from_slice(&(g.len() as u32).to_be_bytes());
                    for &j in g {
                        out.extend_from_slice(&(j as u32).to_be_bytes());
                    }
                }
            }
        }
    }

    /// Reads a configuration written by [`Self::encode_to`] from the
    /// front of `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input.
    pub fn read(r: &mut ByteReader<'_>) -> Result<ConfigData, CodecError> {
        match r.u8()? {
            0 => {
                let n = r.count(8, "flow-rule count")?;
                let rules = (0..n).map(|_| {
                    Ok::<_, CodecError>(FlowRuleSpec {
                        priority: r.u16()?,
                        dst_host: r.u32()?,
                        out_port: r.u16()?,
                    })
                });
                Ok(ConfigData::FlowRules(rules.collect::<Result<_, _>>()?))
            }
            1 => {
                let n = r.count(4, "group count")?;
                let groups = (0..n).map(|_| {
                    let k = r.count(4, "group size")?;
                    (0..k).map(|_| r.u32().map(|j| j as usize)).collect()
                });
                Ok(ConfigData::NewAssignment {
                    groups: groups.collect::<Result<_, _>>()?,
                })
            }
            _ => Err(CodecError::Corrupt("config tag")),
        }
    }

    /// Approximate wire size.
    pub fn wire_size(&self) -> usize {
        self.encode().len()
    }
}

/// One protocol transaction: a handled request with its computed
/// configuration (`⟨TX, reqMsg, s, c, config⟩`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProtoTx {
    /// The handled request.
    pub record: RequestRecord,
    /// The controller that handled it (the group leader).
    pub handled_by: usize,
    /// The computed configuration.
    pub config: ConfigData,
}

impl ProtoTx {
    /// Canonical, self-delimiting bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_to(&mut out);
        out
    }

    /// Appends [`Self::encode`]'s bytes to `out`.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        self.record.encode_to(out);
        out.extend_from_slice(&(self.handled_by as u64).to_be_bytes());
        self.config.encode_to(out);
    }

    /// Parses a protocol transaction back from [`ProtoTx::encode`]
    /// output.
    pub fn decode(bytes: &[u8]) -> Option<ProtoTx> {
        decode_all(bytes, |r| {
            Ok(ProtoTx {
                record: RequestRecord::read(r)?,
                handled_by: r.u64()? as usize,
                config: ConfigData::read(r)?,
            })
        })
        .ok()
    }

    /// Converts to a blockchain transaction sequenced by the request's
    /// `(switch, seq)`, so the chain commits a request at most once.
    /// The full protocol transaction is recorded as the chain
    /// transaction's config bytes, so it can be reconstructed with
    /// [`ProtoTx::from_chain_tx`].
    pub fn to_chain_tx(&self) -> Transaction {
        Transaction::new(
            self.record.kind.chain_kind(),
            self.record.key.switch.0 as u64,
            self.handled_by as u64,
            self.encode(),
        )
        .with_seq(self.record.key.seq)
    }

    /// Reconstructs the protocol transaction from a chain transaction
    /// produced by [`ProtoTx::to_chain_tx`]. Returns `None` for foreign
    /// transactions (e.g. the genesis init record), and for one whose
    /// chain-level `(switch, seq)` is not its request's key: only a
    /// request the chain's replay check covered is served.
    pub fn from_chain_tx(tx: &Transaction) -> Option<ProtoTx> {
        if tx.kind == RequestKind::Init {
            return None;
        }
        ProtoTx::decode(&tx.config).filter(|p| {
            let key = p.record.key;
            (tx.switch, tx.seq) == (key.switch.0 as u64, Some(key.seq))
        })
    }
}

/// The intra-group consensus payload: an ordered transaction list
/// (`txList` in Algorithm 3). The [`Default`] empty list serves as the
/// view-change no-op.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TxListPayload(pub Vec<ProtoTx>);

impl Payload for TxListPayload {
    fn digest(&self) -> Digest {
        let encoded: Vec<Vec<u8>> = self.0.iter().map(ProtoTx::encode).collect();
        let parts: Vec<&[u8]> = std::iter::once(&b"curb-txlist"[..])
            .chain(encoded.iter().map(Vec::as_slice))
            .collect();
        digest_parts(&parts)
    }

    fn wire_size(&self) -> usize {
        16 + self.0.iter().map(|t| t.encode().len()).sum::<usize>()
    }
}

/// The final consensus payload: a proposed block. The [`Default`]
/// (`None`) is the view-change no-op.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlockPayload(pub Option<Block>);

impl Payload for BlockPayload {
    fn digest(&self) -> Digest {
        match &self.0 {
            Some(b) => b.hash(),
            None => digest_parts(&[b"curb-empty-block"]),
        }
    }

    fn wire_size(&self) -> usize {
        match &self.0 {
            Some(b) => b.wire_size(),
            None => 16,
        }
    }
}

/// Smallest encoded [`ProtoTx`] in a [`TxListPayload`]: its length
/// prefix, a PKT-IN record, `handled_by` and an empty rule list.
const LISTED_TX_MIN_LEN: usize = 4 + 21 + 8 + 5;

impl TxListPayload {
    /// Reads a list written by [`PayloadCodec::encode_payload`] from the
    /// front of `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input.
    pub fn read(r: &mut ByteReader<'_>) -> Result<TxListPayload, CodecError> {
        let n = r.count(LISTED_TX_MIN_LEN, "transaction count")?;
        let mut txs = Vec::with_capacity(n);
        for _ in 0..n {
            let tx = ProtoTx::decode(r.len_prefixed()?);
            txs.push(tx.ok_or(CodecError::Corrupt("transaction"))?);
        }
        Ok(TxListPayload(txs))
    }
}

impl PayloadCodec for TxListPayload {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.0.len() as u32).to_be_bytes());
        for tx in &self.0 {
            put_prefixed(out, |out| tx.encode_to(out));
        }
    }

    fn decode_payload(bytes: &[u8]) -> Option<Self> {
        decode_all(bytes, TxListPayload::read).ok()
    }
}

impl BlockPayload {
    /// Reads a proposal written by [`PayloadCodec::encode_payload`] from
    /// the front of `r`. Rejects a block whose body does not match its
    /// header's Merkle commitment: a decoded proposal is always
    /// internally consistent.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed input or a mismatched body.
    pub fn read(r: &mut ByteReader<'_>) -> Result<BlockPayload, CodecError> {
        match r.u8()? {
            0 => Ok(BlockPayload(None)),
            1 => match decode_block(r)? {
                block if block.body_matches_header() => Ok(BlockPayload(Some(block))),
                _ => Err(CodecError::Corrupt("block body")),
            },
            _ => Err(CodecError::Corrupt("block payload tag")),
        }
    }
}

impl PayloadCodec for BlockPayload {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match &self.0 {
            None => out.push(0),
            Some(block) => {
                out.push(1);
                encode_block(out, block);
            }
        }
    }

    fn decode_payload(bytes: &[u8]) -> Option<Self> {
        decode_all(bytes, BlockPayload::read).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curb_crypto::rng::DetRng;
    use curb_crypto::KeyPair;

    fn record(seq: u64) -> RequestRecord {
        RequestRecord {
            key: RequestKey {
                switch: SwitchId(3),
                seq,
            },
            kind: ReqKind::PktIn { dst_host: 77 },
        }
    }

    #[test]
    fn signed_request_verification() {
        let mut rng = DetRng::new(5);
        let keys = KeyPair::generate(&mut rng);
        let rec = record(1);
        let sig = keys.sign(&rec.signing_bytes(), &mut rng);
        let ok = SignedRequest {
            record: rec.clone(),
            signature: Some((keys.public(), sig)),
        };
        assert!(ok.verify());
        let mut tampered = ok.clone();
        tampered.record.key.seq = 2;
        assert!(!tampered.verify());
        let unsigned = SignedRequest {
            record: rec,
            signature: None,
        };
        assert!(unsigned.verify());
    }

    #[test]
    fn config_encoding_distinguishes_variants() {
        let flow = ConfigData::FlowRules(vec![FlowRuleSpec {
            priority: 10,
            dst_host: 7,
            out_port: 2,
        }]);
        let assign = ConfigData::NewAssignment {
            groups: vec![vec![0, 1]],
        };
        assert_ne!(flow.encode(), assign.encode());
        assert_eq!(flow.encode(), flow.clone().encode());
        assert!(flow.wire_size() > 0);
    }

    #[test]
    fn config_encoding_is_injective_on_rules() {
        let a = ConfigData::FlowRules(vec![FlowRuleSpec {
            priority: 1,
            dst_host: 2,
            out_port: 3,
        }]);
        let b = ConfigData::FlowRules(vec![FlowRuleSpec {
            priority: 1,
            dst_host: 2,
            out_port: 4,
        }]);
        assert_ne!(a.encode(), b.encode());
    }

    #[test]
    fn txlist_digest_depends_on_content_and_order() {
        let tx1 = ProtoTx {
            record: record(1),
            handled_by: 0,
            config: ConfigData::FlowRules(vec![]),
        };
        let tx2 = ProtoTx {
            record: record(2),
            handled_by: 0,
            config: ConfigData::FlowRules(vec![]),
        };
        let ab = TxListPayload(vec![tx1.clone(), tx2.clone()]);
        let ba = TxListPayload(vec![tx2, tx1]);
        assert_ne!(ab.digest(), ba.digest());
        assert_ne!(ab.digest(), TxListPayload::default().digest());
    }

    #[test]
    fn chain_tx_roundtrip_fields() {
        let tx = ProtoTx {
            record: record(9),
            handled_by: 4,
            config: ConfigData::FlowRules(vec![]),
        };
        let chain_tx = tx.to_chain_tx();
        assert_eq!(chain_tx.switch, 3);
        assert_eq!(chain_tx.seq, Some(9));
        assert_eq!(chain_tx.controller, 4);
        assert_eq!(chain_tx.kind, RequestKind::PacketIn);
        // Distinct request seqs yield distinct chain transactions even
        // with identical configs.
        let tx2 = ProtoTx {
            record: record(10),
            handled_by: 4,
            config: ConfigData::FlowRules(vec![]),
        };
        assert_ne!(chain_tx.id(), tx2.to_chain_tx().id());
    }

    #[test]
    fn block_payload_digests() {
        let none = BlockPayload::default();
        let block = BlockPayload(Some(Block::genesis(b"x")));
        assert_ne!(none.digest(), block.digest());
        assert!(none.wire_size() < block.wire_size());
    }

    #[test]
    fn proto_tx_roundtrips_through_chain() {
        for kind in [
            ReqKind::PktIn { dst_host: 123 },
            ReqKind::ReAss {
                accused: vec![1, 5, 9],
            },
            ReqKind::ReAss { accused: vec![] },
        ] {
            let tx = ProtoTx {
                record: RequestRecord {
                    key: RequestKey {
                        switch: SwitchId(7),
                        seq: 42,
                    },
                    kind,
                },
                handled_by: 3,
                config: ConfigData::NewAssignment {
                    groups: vec![vec![0, 2], vec![], vec![1]],
                },
            };
            let chain_tx = tx.to_chain_tx();
            assert_eq!(ProtoTx::from_chain_tx(&chain_tx), Some(tx.clone()));
            assert_eq!(ProtoTx::decode(&tx.encode()), Some(tx));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(ProtoTx::decode(&[]), None);
        assert_eq!(ProtoTx::decode(&[0xFF; 7]), None);
        let valid = ProtoTx {
            record: record(1),
            handled_by: 0,
            config: ConfigData::FlowRules(vec![]),
        }
        .encode();
        // Trailing garbage is rejected.
        let mut padded = valid.clone();
        padded.push(0);
        assert_eq!(ProtoTx::decode(&padded), None);
        // Truncation is rejected.
        assert_eq!(ProtoTx::decode(&valid[..valid.len() - 1]), None);
    }

    #[test]
    fn only_a_tx_sequenced_by_its_request_key_is_served() {
        let tx = ProtoTx {
            record: record(9),
            handled_by: 4,
            config: ConfigData::FlowRules(vec![]),
        };
        let sequenced = tx.to_chain_tx();
        assert_eq!(ProtoTx::from_chain_tx(&sequenced), Some(tx.clone()));
        let unsequenced = curb_chain::Transaction {
            seq: None,
            ..sequenced.clone()
        };
        let mut wrong_seq = sequenced.clone().with_seq(10);
        assert_eq!(ProtoTx::from_chain_tx(&unsequenced), None);
        assert_eq!(ProtoTx::from_chain_tx(&wrong_seq), None);
        wrong_seq.seq = Some(9);
        wrong_seq.switch = 4;
        assert_eq!(ProtoTx::from_chain_tx(&wrong_seq), None, "wrong switch");
    }

    #[test]
    fn genesis_tx_is_not_a_proto_tx() {
        let genesis_tx = curb_chain::Transaction::new(RequestKind::Init, 0, 0, vec![1, 2, 3]);
        assert_eq!(ProtoTx::from_chain_tx(&genesis_tx), None);
    }

    #[test]
    fn config_decode_roundtrip() {
        let configs = vec![
            ConfigData::FlowRules(vec![
                FlowRuleSpec {
                    priority: 1,
                    dst_host: 2,
                    out_port: 3,
                },
                FlowRuleSpec {
                    priority: 9,
                    dst_host: 8,
                    out_port: 7,
                },
            ]),
            ConfigData::FlowRules(vec![]),
            ConfigData::NewAssignment {
                groups: vec![vec![5; 3]; 2],
            },
        ];
        for c in configs {
            let bytes = c.encode();
            assert_eq!(decode_all(&bytes, ConfigData::read), Ok(c));
        }
    }

    #[test]
    fn txlist_payload_wire_roundtrip() {
        let list = TxListPayload(vec![
            ProtoTx {
                record: record(1),
                handled_by: 2,
                config: ConfigData::FlowRules(vec![FlowRuleSpec {
                    priority: 10,
                    dst_host: 7,
                    out_port: 2,
                }]),
            },
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
                    groups: vec![vec![0, 1, 2]],
                },
            },
        ]);
        let mut bytes = Vec::new();
        list.encode_payload(&mut bytes);
        assert_eq!(TxListPayload::decode_payload(&bytes), Some(list));
        // Trailing garbage and truncation are rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(TxListPayload::decode_payload(&padded), None);
        assert_eq!(
            TxListPayload::decode_payload(&bytes[..bytes.len() - 1]),
            None
        );
    }

    #[test]
    fn block_payload_wire_roundtrip() {
        use curb_chain::Block;
        let genesis = Block::genesis(b"init");
        let tx = ProtoTx {
            record: record(3),
            handled_by: 1,
            config: ConfigData::FlowRules(vec![]),
        }
        .to_chain_tx();
        let mut signed_tx = tx.clone();
        let mut rng = curb_crypto::rng::DetRng::new(7);
        let keys = KeyPair::generate(&mut rng);
        signed_tx.sign(&keys, &mut rng);
        let block = Block::next(&genesis, vec![tx, signed_tx], 42);

        for payload in [BlockPayload(None), BlockPayload(Some(block.clone()))] {
            let mut bytes = Vec::new();
            payload.encode_payload(&mut bytes);
            assert_eq!(BlockPayload::decode_payload(&bytes), Some(payload));
        }
    }

    #[test]
    fn tampered_block_body_fails_decode() {
        use curb_chain::Block;
        let genesis = Block::genesis(b"init");
        let tx = ProtoTx {
            record: record(3),
            handled_by: 1,
            config: ConfigData::FlowRules(vec![]),
        }
        .to_chain_tx();
        let block = Block::next(&genesis, vec![tx], 42);
        let mut bytes = Vec::new();
        BlockPayload(Some(block)).encode_payload(&mut bytes);
        // Flip one byte of the transaction body: the Merkle commitment
        // in the header no longer matches, so decode must refuse.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert_eq!(BlockPayload::decode_payload(&bytes), None);
        // Hostile random bytes never panic.
        assert_eq!(BlockPayload::decode_payload(&[9, 9, 9]), None);
        assert_eq!(BlockPayload::decode_payload(&[]), None);
    }

    #[test]
    fn reass_signing_bytes_cover_accused() {
        let a = RequestRecord {
            key: RequestKey {
                switch: SwitchId(1),
                seq: 1,
            },
            kind: ReqKind::ReAss { accused: vec![3] },
        };
        let b = RequestRecord {
            key: RequestKey {
                switch: SwitchId(1),
                seq: 1,
            },
            kind: ReqKind::ReAss { accused: vec![4] },
        };
        assert_ne!(a.signing_bytes(), b.signing_bytes());
    }
}
