//! Bounded chain state: a node's memory must not grow with the
//! transactions it commits.
//!
//! An ephemeral [`ChainStore`] keeps a short tail of blocks and one
//! replay window per switch. Fed 200 000 sequenced transactions from 4
//! switches in 64-transaction blocks, its live heap after the first
//! 10 000 may grow by at most [`GROWTH_BUDGET`] — a store that
//! remembered anything per transaction (32 bytes of id each) would grow
//! by megabytes. A counting global allocator (`tests/common`) measures
//! the live heap.

use curb::chain::{Block, ChainError, RequestKind, Transaction};
use curb::cluster::{ChainStore, TAIL_BLOCKS};

mod common;
use common::{live, peak_alloc, serial};

const SWITCHES: u64 = 4;
const BLOCK_TXS: u64 = 64;
/// 200 000 transactions.
const BLOCKS: u64 = 200_000 / BLOCK_TXS;
/// The first 10 000 transactions (rounded up to a whole block).
const WARM_BLOCKS: u64 = 10_000_u64.div_ceil(BLOCK_TXS);
const GROWTH_BUDGET: usize = 64 << 10;

/// Transaction `i`: request `i / SWITCHES + 1` of switch `i % SWITCHES`.
fn tx(i: u64) -> Transaction {
    let config = i.to_be_bytes().to_vec();
    Transaction::new(RequestKind::PacketIn, i % SWITCHES, 0, config).with_seq(i / SWITCHES + 1)
}

/// Appends blocks `from..to`, each of `BLOCK_TXS` transactions.
fn append(store: &mut ChainStore, from: u64, to: u64) {
    for first in (from * BLOCK_TXS..to * BLOCK_TXS).step_by(BLOCK_TXS as usize) {
        let txs = (first..first + BLOCK_TXS).map(tx).collect();
        let block = Block::next(store.tip(), txs, first);
        store
            .append(block)
            .expect("a fresh request extends the tip");
    }
}

#[test]
fn chain_store_memory_does_not_grow_with_transactions() {
    let _serial = serial();
    let mut store = ChainStore::ephemeral(b"genesis");
    append(&mut store, 0, WARM_BLOCKS);
    assert_eq!(store.resident_blocks(), TAIL_BLOCKS, "the tail is full");
    let warm = live();
    let ((), peak) = peak_alloc(|| append(&mut store, WARM_BLOCKS, BLOCKS));
    let growth = live().saturating_sub(warm);

    assert_eq!(store.tx_count() as u64, 1 + BLOCKS * BLOCK_TXS);
    // The windows still hold every switch's last request.
    let last = tx(BLOCKS * BLOCK_TXS - 1);
    let seq = last.seq.expect("sequenced");
    assert_eq!(
        store.append(Block::next(store.tip(), vec![last.clone()], 0)),
        Err(ChainError::StaleSeq {
            switch: last.switch,
            seq
        })
    );
    assert!(
        growth <= GROWTH_BUDGET,
        "live heap grew by {growth} bytes over {} transactions",
        (BLOCKS - WARM_BLOCKS) * BLOCK_TXS
    );
    assert!(
        peak <= GROWTH_BUDGET,
        "appending peaked {peak} bytes above the warm heap"
    );
}
