//! Transactions: the unit of recorded SDN operations.

use core::fmt;
use curb_crypto::sha256::{digest_parts, Digest};
use curb_crypto::{PublicKey, Signature};

/// Identifier of a transaction (the digest of its canonical encoding,
/// excluding the signature).
pub type TxId = Digest;

/// The kind of request a transaction records (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// `PKT-IN`: a switch asked for flow entries.
    PacketIn,
    /// `RE-ASS`: a switch asked for a controller reassignment.
    Reassign,
    /// Initialisation record (genesis only).
    Init,
}

impl RequestKind {
    /// The kind's byte in [`Transaction::signing_bytes`] and the
    /// encoding; [`SEQUENCED_FLAG`] is or-ed in for a sequenced tx.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            RequestKind::PacketIn => 0,
            RequestKind::Reassign => 1,
            RequestKind::Init => 2,
        }
    }

    /// The kind whose [`RequestKind::tag`] is `tag`.
    pub(crate) fn from_tag(tag: u8) -> Option<RequestKind> {
        match tag {
            0 => Some(RequestKind::PacketIn),
            1 => Some(RequestKind::Reassign),
            2 => Some(RequestKind::Init),
            _ => None,
        }
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RequestKind::PacketIn => "PKT-IN",
            RequestKind::Reassign => "RE-ASS",
            RequestKind::Init => "INIT",
        };
        f.write_str(s)
    }
}

/// Bit of the kind byte that marks a sequenced transaction, whose
/// `u64` sequence number follows the switch id. Unsequenced bytes are
/// those of a format that had no sequence number at all.
pub(crate) const SEQUENCED_FLAG: u8 = 0x80;

/// One recorded operation: `⟨TX, reqMsg, s, c, config⟩` in the paper's
/// notation — the request kind, the requesting switch, the handling
/// controller, and the computed configuration payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Request kind.
    pub kind: RequestKind,
    /// Requesting switch (protocol-level id).
    pub switch: u64,
    /// The switch's sequence number for the request, when the
    /// transaction records one. The chain accepts a sequenced
    /// transaction once per `(switch, seq)` (see [`crate::SeqWindow`]);
    /// an unsequenced one carries no replay check.
    pub seq: Option<u64>,
    /// Handling controller (protocol-level id).
    pub controller: u64,
    /// Serialized configuration (flow entries or a new assignment).
    pub config: Vec<u8>,
    /// Optional signature by the handling controller's key.
    pub signature: Option<(PublicKey, Signature)>,
}

impl Transaction {
    /// Creates an unsigned, unsequenced transaction.
    pub fn new(kind: RequestKind, switch: u64, controller: u64, config: Vec<u8>) -> Self {
        Transaction {
            kind,
            switch,
            seq: None,
            controller,
            config,
            signature: None,
        }
    }

    /// The same transaction, recording the switch's sequence number
    /// `seq` for its request.
    pub fn with_seq(self, seq: u64) -> Self {
        Transaction {
            seq: Some(seq),
            ..self
        }
    }

    /// The kind byte of the encoding: the kind's tag, with
    /// [`SEQUENCED_FLAG`] set when the transaction is sequenced.
    pub(crate) fn kind_byte(&self) -> u8 {
        match self.seq {
            Some(_) => self.kind.tag() | SEQUENCED_FLAG,
            None => self.kind.tag(),
        }
    }

    /// Canonical byte encoding of the signed content (everything except
    /// the signature itself), sequence number included.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(25 + self.config.len());
        out.push(self.kind_byte());
        out.extend_from_slice(&self.switch.to_be_bytes());
        if let Some(seq) = self.seq {
            out.extend_from_slice(&seq.to_be_bytes());
        }
        out.extend_from_slice(&self.controller.to_be_bytes());
        out.extend_from_slice(&self.config);
        out
    }

    /// The transaction id: digest of the canonical encoding.
    pub fn id(&self) -> TxId {
        digest_parts(&[b"curb-tx", &self.signing_bytes()])
    }

    /// Attaches a signature produced by `keys` over
    /// [`Transaction::signing_bytes`].
    pub fn sign(&mut self, keys: &curb_crypto::KeyPair, rng: &mut curb_crypto::rng::DetRng) {
        let sig = keys.sign(&self.signing_bytes(), rng);
        self.signature = Some((keys.public(), sig));
    }

    /// Verifies the attached signature, if any. Unsigned transactions
    /// verify trivially (Curb's simulation allows unsigned local txs;
    /// the protocol layer decides whether to require signatures).
    pub fn verify_signature(&self) -> bool {
        match &self.signature {
            Some((pk, sig)) => pk.verify(&self.signing_bytes(), sig),
            None => true,
        }
    }

    /// Approximate wire size in bytes: the simulator's bandwidth model.
    /// It leaves out the 8-byte sequence number, as it leaves out the
    /// length prefix and flags, so the simulated figures do not depend
    /// on whether a transaction is sequenced.
    pub fn wire_size(&self) -> usize {
        17 + self.config.len() + if self.signature.is_some() { 96 } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curb_crypto::rng::DetRng;
    use curb_crypto::KeyPair;

    #[test]
    fn id_depends_on_every_field() {
        let base = Transaction::new(RequestKind::PacketIn, 1, 2, vec![1, 2, 3]);
        let mut other = base.clone();
        other.kind = RequestKind::Reassign;
        assert_ne!(base.id(), other.id());
        let mut other = base.clone();
        other.switch = 9;
        assert_ne!(base.id(), other.id());
        let mut other = base.clone();
        other.controller = 9;
        assert_ne!(base.id(), other.id());
        let mut other = base.clone();
        other.config = vec![9];
        assert_ne!(base.id(), other.id());
        let sequenced = base.clone().with_seq(1);
        assert_ne!(base.id(), sequenced.id());
        assert_ne!(sequenced.id(), base.clone().with_seq(2).id());
    }

    #[test]
    fn id_ignores_signature() {
        let mut rng = DetRng::new(1);
        let keys = KeyPair::generate(&mut rng);
        let mut tx = Transaction::new(RequestKind::PacketIn, 1, 2, vec![1]);
        let unsigned_id = tx.id();
        tx.sign(&keys, &mut rng);
        assert_eq!(tx.id(), unsigned_id);
    }

    #[test]
    fn signature_verifies_and_binds() {
        let mut rng = DetRng::new(2);
        let keys = KeyPair::generate(&mut rng);
        let mut tx = Transaction::new(RequestKind::Reassign, 5, 6, b"newlist".to_vec());
        tx.sign(&keys, &mut rng);
        assert!(tx.verify_signature());
        tx.config = b"tampered".to_vec();
        assert!(!tx.verify_signature());
    }

    #[test]
    fn unsigned_verifies_trivially() {
        assert!(Transaction::new(RequestKind::Init, 0, 0, vec![]).verify_signature());
    }

    #[test]
    fn kind_display() {
        assert_eq!(RequestKind::PacketIn.to_string(), "PKT-IN");
        assert_eq!(RequestKind::Reassign.to_string(), "RE-ASS");
        assert_eq!(RequestKind::Init.to_string(), "INIT");
    }

    #[test]
    fn wire_size_accounts_for_signature() {
        let mut rng = DetRng::new(3);
        let keys = KeyPair::generate(&mut rng);
        let mut tx = Transaction::new(RequestKind::PacketIn, 1, 2, vec![0; 10]);
        let unsigned = tx.wire_size();
        tx.sign(&keys, &mut rng);
        assert_eq!(tx.wire_size(), unsigned + 96);
    }
}
