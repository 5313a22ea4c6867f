//! Chain storage for a controller node: a [`ChainHead`] and a short
//! tail of recent blocks in memory and, when durable, the full ledger
//! on disk.
//!
//! The round path reads only the tip (to link the next block) and one
//! replay window per switch (to reject a replayed request, see
//! [`curb_chain::SeqWindow`]), so memory is [`TAIL_BLOCKS`] block
//! bodies plus 136 bytes per switch — not the chain, and nothing per
//! transaction.
//!
//! A durable store's directory holds WAL segments and nothing else:
//! `wal-{seq:016x}.seg`, record `h` = block `h`; genesis is a function
//! of the configuration and is not stored. The segments are the
//! archive — never snapshotted, rewritten or garbage-collected. A block
//! is handed to the WAL before its append returns and fsynced in
//! batches on the flusher thread, off the node's main loop. Opening a
//! store streams the segments through a fresh head, one record in
//! memory at a time; [`ChainStore::verify`] does the same to a live one.
//!
//! An *ephemeral* store has no archive: it is a pruned node that
//! forgets every block body below the tail and keeps only the head.

use curb_chain::{wal, Block, ChainError, ChainHead, Wal, WalConfig, WalRecord, WalStats};
use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;

/// Block bodies a [`ChainStore`] keeps resident, tip included.
pub const TAIL_BLOCKS: usize = 32;

/// Durability configuration for a [`ChainStore`].
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding the WAL segments (created on open).
    pub dir: PathBuf,
    /// WAL sizing and fsync batching knobs.
    pub wal: WalConfig,
}

impl PersistConfig {
    /// A config with default WAL knobs.
    pub fn new(dir: PathBuf) -> Self {
        PersistConfig {
            dir,
            wal: WalConfig::default(),
        }
    }
}

/// Counters describing what a [`ChainStore::open`] recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Blocks replayed from the WAL on top of genesis.
    pub wal_replayed: u64,
}

/// The node-facing chain handle: the validating head, the resident
/// tail, and (when opened durable) the WAL that archives every block.
pub struct ChainStore {
    head: ChainHead,
    /// The last `TAIL_BLOCKS` blocks, tip at the back; never empty.
    tail: VecDeque<Block>,
    durable: Option<Durable>,
    recovery: RecoveryInfo,
}

struct Durable {
    wal: Wal,
    dir: PathBuf,
    /// The head as of genesis: where [`ChainStore::verify`] starts.
    genesis: ChainHead,
}

impl ChainStore {
    /// A pruned in-memory store seeded with the given genesis record.
    pub fn ephemeral(genesis_record: &[u8]) -> ChainStore {
        let genesis = Block::genesis(genesis_record);
        let mut head = ChainHead::new();
        head.accept(&genesis)
            .expect("a freshly built genesis block is valid");
        ChainStore {
            head,
            tail: VecDeque::from([genesis]),
            durable: None,
            recovery: RecoveryInfo::default(),
        }
    }

    /// Opens (or creates) a durable store: starts from the genesis
    /// record and streams the WAL's blocks through the head. Torn WAL
    /// tails are truncated by the WAL itself.
    ///
    /// # Errors
    ///
    /// WAL I/O errors; a record that passes its CRC yet is not the
    /// next valid block (another genesis, a tampered archive) is
    /// [`io::ErrorKind::InvalidData`] and leaves the files untouched.
    pub fn open(cfg: PersistConfig, genesis_record: &[u8]) -> io::Result<ChainStore> {
        let mut store = ChainStore::ephemeral(genesis_record);
        let genesis = store.head.clone();
        let wal = Wal::open_with(&cfg.dir, cfg.wal, |record| {
            let block = next_block(&mut store.head, &record)?;
            store.push_tail(block);
            Ok(())
        })?;
        store.recovery.wal_replayed = store.height();
        store.durable = Some(Durable {
            wal,
            dir: cfg.dir,
            genesis,
        });
        Ok(store)
    }

    /// Current chain height (genesis = 0).
    pub fn height(&self) -> u64 {
        self.head.height()
    }

    /// The tip block.
    pub fn tip(&self) -> &Block {
        self.tail.back().expect("the tail always holds the tip")
    }

    /// The block at `height`, if it is still in the resident tail.
    pub fn block_at(&self, height: u64) -> Option<&Block> {
        let oldest = self.tail.front()?.header.height;
        self.tail
            .get(usize::try_from(height.checked_sub(oldest)?).ok()?)
    }

    /// Block bodies held in memory (at most [`TAIL_BLOCKS`]).
    pub fn resident_blocks(&self) -> usize {
        self.tail.len()
    }

    /// Transactions on the chain, genesis included (a counter: the
    /// store holds none of them below the tail).
    pub fn tx_count(&self) -> usize {
        self.head.tx_count()
    }

    /// The validating head: tip, height and replay windows.
    pub fn head(&self) -> &ChainHead {
        &self.head
    }

    /// What [`ChainStore::open`] recovered (zero when ephemeral).
    pub fn recovery(&self) -> RecoveryInfo {
        self.recovery
    }

    /// Live WAL flusher counters (zeroes when ephemeral).
    pub fn wal_stats(&self) -> WalStats {
        self.durable
            .as_ref()
            .map_or_else(WalStats::default, |d| d.wal.stats())
    }

    /// Appends a block; a durable store hands it to the WAL
    /// (write-behind: the flusher thread batches the fsync).
    ///
    /// # Errors
    ///
    /// The head's validation error; a rejected block is not persisted.
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        self.head.accept(&block)?;
        if let Some(durable) = &self.durable {
            durable.wal.append(block.header.height, &block.to_bytes());
        }
        self.push_tail(block);
        Ok(())
    }

    /// Forces everything appended so far durable (a no-op when
    /// ephemeral).
    ///
    /// # Errors
    ///
    /// Surfaces WAL I/O failures.
    pub fn sync(&self) -> io::Result<()> {
        self.durable.as_ref().map_or(Ok(()), |d| d.wal.sync())
    }

    /// Audits the archive: syncs, streams every block on disk from
    /// genesis through a fresh head and checks that it arrives at this
    /// store's tip. Returns the height verified — `0` for an ephemeral
    /// store, which has forgotten what it would check.
    ///
    /// # Errors
    ///
    /// I/O failures, and [`io::ErrorKind::InvalidData`] when a block on
    /// disk is invalid or the archive does not lead to the live tip.
    pub fn verify(&self) -> io::Result<u64> {
        let Some(durable) = &self.durable else {
            return Ok(0);
        };
        durable.wal.sync()?;
        let mut head = durable.genesis.clone();
        wal::replay(&durable.dir, |record| {
            next_block(&mut head, &record).map(drop)
        })?;
        if (head.len(), head.tip_hash()) != (self.head.len(), self.head.tip_hash()) {
            let (disk, live) = (head.height(), self.height());
            return Err(invalid_data(format!(
                "archive ends at height {disk}, the live tip is at {live}"
            )));
        }
        Ok(head.height())
    }

    fn push_tail(&mut self, block: Block) {
        if self.tail.len() == TAIL_BLOCKS {
            self.tail.pop_front();
        }
        self.tail.push_back(block);
    }
}

/// Decodes a WAL record and advances `head` over the block it holds.
fn next_block(head: &mut ChainHead, record: &WalRecord) -> io::Result<Block> {
    let invalid = |cause: &dyn std::fmt::Display| {
        invalid_data(format!(
            "WAL record {} is not the next block: {cause}",
            record.seq
        ))
    };
    let block = Block::from_bytes(&record.bytes).map_err(|e| invalid(&e))?;
    head.accept(&block).map_err(|e| invalid(&e))?;
    Ok(block)
}

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use curb_chain::wal::encode_record;
    use curb_chain::{Blockchain, RequestKind, Transaction, SEQ_WINDOW};
    use proptest::prelude::*;
    use std::fs::{self, OpenOptions};
    use std::io::Write;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("curb-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Request `i`, of switch `i % 4` (so each switch's sequence
    /// numbers increase with `i`).
    fn tx(i: u64) -> Transaction {
        Transaction::new(
            RequestKind::PacketIn,
            i % 4,
            i,
            format!("cfg-{i}").into_bytes(),
        )
        .with_seq(i)
    }

    fn push_blocks(store: &mut ChainStore, range: std::ops::RangeInclusive<u64>) {
        for i in range {
            let block = Block::next(store.tip(), vec![tx(i)], i);
            store.append(block).expect("append valid block");
        }
    }

    /// The only segment file of a store that never rolled.
    fn segment(dir: &std::path::Path) -> PathBuf {
        let mut segs: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(segs.len(), 1, "default segment size never rolls here");
        segs.pop().unwrap()
    }

    /// A store of 50 blocks, synced and closed; returns its config.
    fn closed_store(tag: &str) -> PersistConfig {
        let cfg = PersistConfig::new(temp_dir(tag));
        let mut store = ChainStore::open(cfg.clone(), b"genesis").unwrap();
        push_blocks(&mut store, 1..=50);
        store.sync().unwrap();
        cfg
    }

    #[test]
    fn reopen_restores_the_full_prefix() {
        let dir = temp_dir("reopen");
        let cfg = PersistConfig::new(dir.clone());
        let tip_hash;
        {
            let mut store = ChainStore::open(cfg.clone(), b"genesis").unwrap();
            push_blocks(&mut store, 1..=10);
            store.sync().unwrap();
            tip_hash = store.tip().hash();
            assert_eq!(store.height(), 10);
        }
        let store = ChainStore::open(cfg, b"genesis").unwrap();
        assert_eq!(store.height(), 10);
        assert_eq!(store.tip().hash(), tip_hash);
        assert_eq!(store.recovery().wal_replayed, 10);
        assert_eq!(store.verify().unwrap(), 10);
        // The layout is WAL segments and nothing else.
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(name.starts_with("wal-") && name.ends_with(".seg"), "{name}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_replays_without_an_explicit_sync() {
        let dir = temp_dir("replay");
        let cfg = PersistConfig::new(dir.clone());
        {
            let mut store = ChainStore::open(cfg.clone(), b"genesis").unwrap();
            push_blocks(&mut store, 1..=7);
            // No sync(): rely on the drop-time WAL flush alone.
        }
        let store = ChainStore::open(cfg, b"genesis").unwrap();
        assert_eq!(store.height(), 7);
        assert_eq!(store.recovery().wal_replayed, 7);
        assert_eq!(store.verify().unwrap(), 7);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ephemeral_store_appends_without_disk() {
        let mut store = ChainStore::ephemeral(b"genesis");
        push_blocks(&mut store, 1..=5);
        assert_eq!(store.height(), 5);
        assert_eq!(store.wal_stats(), WalStats::default());
        store.sync().unwrap();
        assert_eq!(store.verify().unwrap(), 0, "nothing on disk to audit");
    }

    #[test]
    fn ten_thousand_appends_keep_only_the_tail_resident() {
        let dir = temp_dir("tail");
        let cfg = PersistConfig {
            wal: WalConfig {
                segment_bytes: 64 << 10, // roll a few dozen times
                ..WalConfig::default()
            },
            ..PersistConfig::new(dir.clone())
        };
        let mut ephemeral = ChainStore::ephemeral(b"genesis");
        let mut durable = ChainStore::open(cfg.clone(), b"genesis").unwrap();
        for store in [&mut ephemeral, &mut durable] {
            push_blocks(store, 1..=10_000);
            assert_eq!(store.height(), 10_000);
            assert_eq!(store.resident_blocks(), TAIL_BLOCKS);
            assert_eq!(store.tx_count(), 10_001);
            assert!(store.block_at(10_000 - TAIL_BLOCKS as u64).is_none());
            assert_eq!(
                store.block_at(10_000).map(Block::hash),
                Some(store.tip().hash())
            );
            // A request whose block left memory 9 900 blocks ago is far
            // below its switch's window; one that left 40 blocks ago is
            // inside it, and seen. Both are stale.
            for seq in [100, 9_960] {
                let replayed = Block::next(store.tip(), vec![tx(seq)], 1);
                assert_eq!(
                    store.append(replayed),
                    Err(ChainError::StaleSeq {
                        switch: seq % 4,
                        seq
                    })
                );
            }
        }
        // Reopen: the archive alone restores the tip, and verifies.
        let tip_hash = durable.tip().hash();
        drop(durable);
        assert!(fs::read_dir(&dir).unwrap().count() > 10, "segments rolled");
        let reopened = ChainStore::open(cfg, b"genesis").unwrap();
        assert_eq!(reopened.height(), 10_000);
        assert_eq!(reopened.tip().hash(), tip_hash);
        assert_eq!(reopened.resident_blocks(), TAIL_BLOCKS);
        assert_eq!(reopened.verify().unwrap(), 10_000);
        assert_eq!(ephemeral.tip().hash(), tip_hash);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_or_flipped_wal_tail_recovers_the_last_good_height() {
        // Torn mid-record: block 50 is gone, 49 survive.
        let cfg = closed_store("torn");
        let seg = segment(&cfg.dir);
        let len = fs::metadata(&seg).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 10).unwrap();
        let store = ChainStore::open(cfg.clone(), b"genesis").unwrap();
        assert_eq!(store.height(), 49);
        assert_eq!(store.verify().unwrap(), 49);
        drop(store);
        fs::remove_dir_all(&cfg.dir).ok();

        // One flipped bit half-way: the longest valid prefix wins.
        let cfg = closed_store("flip");
        let seg = segment(&cfg.dir);
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&seg, &bytes).unwrap();
        let mut store = ChainStore::open(cfg.clone(), b"genesis").unwrap();
        let recovered = store.height();
        assert!((1..50).contains(&recovered), "recovered {recovered}");
        // The store keeps working from there.
        push_blocks(&mut store, 100..=104);
        assert_eq!(store.verify().unwrap(), recovered + 5);
        drop(store);
        fs::remove_dir_all(&cfg.dir).ok();
    }

    #[test]
    fn hostile_record_lengths_are_a_torn_tail_not_an_allocation() {
        // A header claiming 4 GiB, and one claiming 60 MiB (under the
        // record cap) with no body behind it. The decoder buffers only
        // bytes the file really holds, so neither claim is allocated.
        for (tag, claimed) in [("len-max", u32::MAX), ("len-60m", 60u32 << 20)] {
            let cfg = closed_store(tag);
            let mut header = Vec::new();
            header.extend_from_slice(&51u64.to_be_bytes());
            header.extend_from_slice(&claimed.to_be_bytes());
            header.extend_from_slice(&[0xAA; 4 + 100]);
            let mut file = OpenOptions::new()
                .append(true)
                .open(segment(&cfg.dir))
                .unwrap();
            file.write_all(&header).unwrap();
            drop(file);
            let store = ChainStore::open(cfg.clone(), b"genesis").unwrap();
            assert_eq!(store.height(), 50, "{tag}");
            assert_eq!(store.verify().unwrap(), 50, "{tag}");
            drop(store);
            fs::remove_dir_all(&cfg.dir).ok();
        }
    }

    #[test]
    fn a_crc_valid_record_that_is_not_the_next_block_is_an_error() {
        let cfg = closed_store("foreign");
        let seg = segment(&cfg.dir);
        let pristine = fs::read(&seg).unwrap();

        // The wrong genesis: block 1 does not link. Nothing is touched.
        let err = ChainStore::open(cfg.clone(), b"another genesis")
            .err()
            .expect("foreign archive refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(fs::read(&seg).unwrap(), pristine);

        // Well-framed garbage, and the tip block framed a second time.
        let store = ChainStore::open(cfg.clone(), b"genesis").unwrap();
        let tip = store.tip().to_bytes();
        drop(store);
        for body in [b"not a block".to_vec(), tip] {
            let mut framed = Vec::new();
            encode_record(&mut framed, 51, &body);
            let mut bytes = pristine.clone();
            bytes.extend_from_slice(&framed);
            fs::write(&seg, &bytes).unwrap();
            let err = ChainStore::open(cfg.clone(), b"genesis")
                .err()
                .expect("invalid archive refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        fs::remove_dir_all(&cfg.dir).ok();
    }

    /// One step of the differential test: how to derive the candidate
    /// block from the reference chain's tip. Kinds `0..6` are invalid.
    fn candidate(chain: &Blockchain, kind: u8, n: u64, fresh: &mut u64) -> Block {
        let next_tx = |fresh: &mut u64| {
            *fresh += 1;
            tx(1_000_000 + *fresh)
        };
        let mut txs = vec![next_tx(fresh), next_tx(fresh)];
        match kind {
            3 => {
                // A request already on the chain (else one of the
                // block's own), replayed.
                let on_chain: Vec<&Transaction> = chain
                    .iter()
                    .flat_map(|b| &b.txs)
                    .filter(|t| t.seq.is_some())
                    .collect();
                let replayed = match on_chain.len() {
                    0 => txs[1].clone(),
                    len => on_chain[n as usize % len].clone(),
                };
                txs.push(replayed);
            }
            4 => txs.push(txs[1].clone()),
            // A window or more below the top the block itself sets.
            5 => txs.push(tx(txs[1].seq.unwrap() - 4 * SEQ_WINDOW)),
            6 => txs.clear(),
            7 => {
                // Every switch jumps ahead; its window follows.
                *fresh += 100 * SEQ_WINDOW;
                txs.push(next_tx(fresh));
            }
            8 => {
                // Unsequenced: no replay check, even for a repeat.
                txs[0].seq = None;
                txs[1] = txs[0].clone();
            }
            _ => {}
        }
        let mut block = Block::next(chain.tip(), txs, n);
        match kind {
            0 => block.header.height += 1 + n % 3,
            1 => block.header.prev_hash = block.header.merkle_root,
            2 => block.txs[0].config.push(0xEE), // body no longer matches the root
            _ => {}
        }
        block
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `Blockchain` and `ChainStore` share one head: fed the same
        /// blocks, valid and invalid, they accept and reject the same
        /// ones with the same errors and end on the same tip — also
        /// once the store has pruned what the chain still holds.
        #[test]
        fn blockchain_and_chain_store_accept_and_reject_identically(
            steps in prop::collection::vec((0u8..14, 0u64..1_000), 1..120),
        ) {
            let mut chain = Blockchain::with_genesis(b"genesis");
            let mut store = ChainStore::ephemeral(b"genesis");
            let mut fresh = 0;
            for (kind, n) in steps {
                let block = candidate(&chain, kind, n, &mut fresh);
                let expected = chain.append(block.clone());
                prop_assert_eq!(expected.is_err(), kind < 6, "kind {}", kind);
                prop_assert_eq!(store.append(block), expected);
                prop_assert_eq!(store.height(), chain.height());
                prop_assert_eq!(store.tip(), chain.tip());
                prop_assert_eq!(store.tx_count(), chain.tx_count());
            }
            prop_assert!(chain.verify().is_ok());
        }
    }
}
