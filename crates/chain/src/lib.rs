//! The permissioned blockchain component of Curb.
//!
//! Every Curb controller runs a blockchain system consisting of a
//! consensus core (provided by `curb-consensus`) and a blockchain
//! database (this crate). Confirmed operations — flow-table updates and
//! controller reassignments — are serialised into [`Transaction`]s,
//! batched into [`Block`]s by the final committee, and appended to an
//! identical, fully ordered [`Blockchain`] on every honest controller.
//!
//! The chain gives Curb its verifiability and traceability properties:
//! blocks are hash-linked, transaction sets are Merkle-hashed, and any
//! single-bit mutation of history is detected by [`Blockchain::verify`].
//! A transaction that records its switch's sequence number is accepted
//! once per `(switch, seq)`: [`ChainHead`] keeps one [`SeqWindow`] per
//! switch, not the id of every transaction.
//!
//! Blocks persist in the write-ahead log ([`wal`]), one
//! [`Block::to_bytes`] record per block. The WAL is the chain's
//! archive; there is no whole-chain file format. [`codec`] is the one
//! byte codec of the node, for the WAL and the wire alike.
//!
//! # Examples
//!
//! ```rust
//! use curb_chain::{Block, Blockchain, RequestKind, Transaction};
//!
//! let mut chain = Blockchain::with_genesis(b"assignment v0");
//! let tx = Transaction::new(RequestKind::PacketIn, 3, 7, b"flow entries".to_vec());
//! let block = Block::next(chain.tip(), vec![tx], 1_000);
//! chain.append(block)?;
//! assert_eq!(chain.height(), 1);
//! assert!(chain.verify().is_ok());
//! # Ok::<(), curb_chain::ChainError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod chain;
pub mod codec;
mod merkle;
mod transaction;
pub mod wal;
mod window;

pub use block::{Block, BlockHeader};
pub use chain::{Admission, Blockchain, ChainError, ChainHead};
pub use codec::{put_bytes, ByteReader, CodecError};
pub use merkle::merkle_root;
pub use transaction::{RequestKind, Transaction, TxId};
pub use wal::{Wal, WalConfig, WalRecord, WalStats};
pub use window::{SeqWindow, SEQ_WINDOW};
