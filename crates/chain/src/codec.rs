//! The one byte codec of the node: wire frames, consensus payloads and
//! the write-ahead log all read and write through this module.
//!
//! Integers are big-endian, digests are 32 raw bytes, byte strings are
//! prefixed by a `u32` length, and a list is a `u32` count followed by
//! its items. [`Block::to_bytes`] is the unit the WAL ([`crate::wal`])
//! stores per record; the WAL is the chain's archive, so there is no
//! separate whole-chain file format.
//!
//! Every decoder is total over hostile input: a byzantine peer controls
//! every byte it sends. A count is accepted only if the bytes left can
//! hold that many items at their minimum encoded size
//! ([`ByteReader::count`]), so no input reserves more memory than a
//! small multiple of its own length.

use crate::block::{Block, BlockHeader};
use crate::transaction::{RequestKind, Transaction, SEQUENCED_FLAG};
use core::fmt;
use curb_crypto::sha256::Digest;
use curb_crypto::{PublicKey, Signature};

/// Smallest encoded transaction: kind, switch, controller, an empty
/// config and the signature flag (an unsequenced one).
const TX_MIN_LEN: usize = 1 + 8 + 8 + 4 + 1;

/// Errors raised when decoding bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The input ended mid-structure.
    Truncated,
    /// A length, count or tag field carries an implausible value, or
    /// bytes trail a complete value.
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "unexpected end of input"),
            CodecError::Corrupt(what) => write!(f, "corrupt field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over a byte buffer with big-endian primitive accessors.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf` for reading from its start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_be_bytes)
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_be_bytes)
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_be_bytes)
    }

    /// Reads a 32-byte digest.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 32 bytes remain.
    pub fn digest(&mut self) -> Result<Digest, CodecError> {
        self.array().map(Digest)
    }

    /// Reads a u32-length-prefixed byte string, borrowed from the input.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the string runs past the input.
    pub fn len_prefixed(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32` item count, accepted only if the bytes left can
    /// hold that many items of at least `min_len` bytes each. A caller
    /// may then reserve `count` items up front: a hostile count fails
    /// here instead of reserving memory the input cannot back.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on short input, [`CodecError::Corrupt`]
    /// carrying `what` on a count the remaining bytes cannot hold.
    pub fn count(&mut self, min_len: usize, what: &'static str) -> Result<usize, CodecError> {
        debug_assert!(min_len > 0, "every item takes at least one byte");
        let count = self.u32()? as usize;
        match count.checked_mul(min_len) {
            Some(need) if need <= self.remaining() => Ok(count),
            _ => Err(CodecError::Corrupt(what)),
        }
    }
}

/// Decodes all of `bytes` with `read`, rejecting bytes left over.
///
/// # Errors
///
/// Whatever `read` returns, or [`CodecError::Corrupt`] on trailing bytes.
pub fn decode_all<T>(
    bytes: &[u8],
    read: impl FnOnce(&mut ByteReader<'_>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut r = ByteReader::new(bytes);
    let value = read(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes"));
    }
    Ok(value)
}

/// Appends a u32-length-prefixed byte string (the inverse of
/// [`ByteReader::len_prefixed`]).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// Appends a u32 length prefix and whatever `write` appends after it.
/// The length is back-patched, so the body is encoded in place with no
/// scratch buffer; the bytes equal [`put_bytes`] of the body.
pub fn put_prefixed(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    write(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

/// A transaction: kind byte (bit [`SEQUENCED_FLAG`] set when a `u64`
/// sequence number follows the switch), switch, [seq,] controller,
/// config, then the signature flag and signature.
fn encode_tx(out: &mut Vec<u8>, tx: &Transaction) {
    out.push(tx.kind_byte());
    out.extend_from_slice(&tx.switch.to_be_bytes());
    if let Some(seq) = tx.seq {
        out.extend_from_slice(&seq.to_be_bytes());
    }
    out.extend_from_slice(&tx.controller.to_be_bytes());
    put_bytes(out, &tx.config);
    match &tx.signature {
        None => out.push(0),
        Some((pk, sig)) => {
            out.push(1);
            out.extend_from_slice(&pk.to_bytes());
            out.extend_from_slice(&sig.to_bytes());
        }
    }
}

fn decode_tx(r: &mut ByteReader<'_>) -> Result<Transaction, CodecError> {
    let byte = r.u8()?;
    let kind = RequestKind::from_tag(byte & !SEQUENCED_FLAG)
        .ok_or(CodecError::Corrupt("transaction kind"))?;
    let switch = r.u64()?;
    let seq = if byte & SEQUENCED_FLAG != 0 {
        Some(r.u64()?)
    } else {
        None
    };
    let controller = r.u64()?;
    let config = r.len_prefixed()?.to_vec();
    let mut tx = Transaction {
        seq,
        ..Transaction::new(kind, switch, controller, config)
    };
    match r.u8()? {
        0 => {}
        1 => {
            let pk = PublicKey::from_bytes(&r.array()?);
            tx.signature = Some((pk, Signature::from_bytes(&r.array()?)));
        }
        _ => return Err(CodecError::Corrupt("signature flag")),
    }
    Ok(tx)
}

/// Appends a block: header, then its transactions. The one block
/// encoding of the node — the WAL record, the final-committee proposal
/// and the block announcement all carry these bytes.
pub fn encode_block(out: &mut Vec<u8>, block: &Block) {
    out.extend_from_slice(&block.header.height.to_be_bytes());
    out.extend_from_slice(&block.header.prev_hash.0);
    out.extend_from_slice(&block.header.merkle_root.0);
    out.extend_from_slice(&block.header.timestamp_ns.to_be_bytes());
    out.extend_from_slice(&(block.txs.len() as u32).to_be_bytes());
    for tx in &block.txs {
        encode_tx(out, tx);
    }
}

/// Reads a block written by [`encode_block`]. The block is decoded
/// structurally only: callers that take blocks from peers also check
/// [`Block::body_matches_header`], and the chain checks the hash link
/// on append.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input.
pub fn decode_block(r: &mut ByteReader<'_>) -> Result<Block, CodecError> {
    let header = BlockHeader {
        height: r.u64()?,
        prev_hash: r.digest()?,
        merkle_root: r.digest()?,
        timestamp_ns: r.u64()?,
    };
    let count = r.count(TX_MIN_LEN, "transaction count")?;
    let mut txs = Vec::with_capacity(count);
    for _ in 0..count {
        txs.push(decode_tx(r)?);
    }
    Ok(Block { header, txs })
}

impl Block {
    /// Serialises one block (header + transactions) — the unit the
    /// write-ahead log ([`crate::wal`]) stores per record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_block(&mut out, self);
        out
    }

    /// Restores a block serialised with [`Block::to_bytes`]. The block
    /// is structurally decoded only; chain-level validity (hash link,
    /// body/header match) is checked on append.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on malformed or trailing input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Block, CodecError> {
        decode_all(bytes, decode_block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Blockchain;
    use curb_crypto::rng::DetRng;
    use curb_crypto::KeyPair;

    /// A block holding a signed and an unsigned transaction, and a
    /// sequenced one.
    fn sample_block() -> Block {
        let mut rng = DetRng::new(4);
        let keys = KeyPair::generate(&mut rng);
        let mut signed = Transaction::new(RequestKind::PacketIn, 3, 1, vec![1, 2, 3]);
        signed.sign(&keys, &mut rng);
        let unsigned = Transaction::new(RequestKind::Reassign, 4, 2, vec![9]);
        let sequenced = Transaction::new(RequestKind::PacketIn, 4, 2, vec![8]).with_seq(7);
        Block::next(
            &Block::genesis(b"assignment v0"),
            vec![signed, unsigned, sequenced],
            100,
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let block = sample_block();
        let restored = Block::from_bytes(&block.to_bytes()).unwrap();
        assert_eq!(restored, block);
        assert!(restored.body_matches_header());
        // The signed transaction survives with its signature.
        assert!(restored.txs[0].signature.is_some());
        assert!(restored.txs[0].verify_signature());
        assert_eq!(restored.txs[2].seq, Some(7));
        let mut chain = Blockchain::with_genesis(b"assignment v0");
        chain.append(restored).unwrap();
        chain.verify().unwrap();
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_block().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Block::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn tampered_payload_fails_verification() {
        // Any flipped bit in the body fails to decode, breaks the Merkle
        // commitment or breaks a signature.
        let bytes = sample_block().to_bytes();
        for pos in 84..bytes.len() {
            let mut tampered = bytes.clone();
            tampered[pos] ^= 0x01;
            if let Ok(block) = Block::from_bytes(&tampered) {
                let genesis = Block::genesis(b"assignment v0");
                assert!(
                    Blockchain::from_blocks(vec![genesis, block]).is_err(),
                    "flip at {pos} went unseen"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample_block().to_bytes();
        bytes.push(0);
        assert_eq!(
            Block::from_bytes(&bytes),
            Err(CodecError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        // A count of 2, then 8 bytes: two items of 4 fit, two of 5 do not.
        let bytes = [0, 0, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(ByteReader::new(&bytes).count(4, "x"), Ok(2));
        assert_eq!(
            ByteReader::new(&bytes).count(5, "x"),
            Err(CodecError::Corrupt("x"))
        );
        let huge = u32::MAX.to_be_bytes();
        assert_eq!(
            ByteReader::new(&huge).count(1, "x"),
            Err(CodecError::Corrupt("x"))
        );
        assert_eq!(
            ByteReader::new(&[0, 0]).count(1, "x"),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn prefixed_writer_matches_put_bytes() {
        let mut patched = vec![7];
        put_prefixed(&mut patched, |out| out.extend_from_slice(b"abc"));
        let mut plain = vec![7];
        put_bytes(&mut plain, b"abc");
        assert_eq!(patched, plain);
        let mut r = ByteReader::new(&plain[1..]);
        assert_eq!(r.len_prefixed(), Ok(&b"abc"[..]));
        assert!(r.is_empty());
    }

    #[test]
    fn error_display_nonempty() {
        for e in [CodecError::Truncated, CodecError::Corrupt("x")] {
            assert!(!e.to_string().is_empty());
        }
    }
}
