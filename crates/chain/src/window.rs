//! The anti-replay window: which of a switch's sequence numbers have
//! been seen, in O(1) memory per switch.

/// Sequence numbers a [`SeqWindow`] remembers below its top.
pub const SEQ_WINDOW: u64 = 1024;

const WORDS: usize = SEQ_WINDOW as usize / 64;

/// The RFC 4303 anti-replay window for one switch: the highest sequence
/// number seen, plus a bitmap of the [`SEQ_WINDOW`] sequence numbers at
/// and below it (bit `seq % SEQ_WINDOW`), 136 bytes in all.
///
/// A sequence number is *fresh* if it is above the top, or inside the
/// window and not yet seen. Anything [`SEQ_WINDOW`] or more below the
/// top is stale whether or not it was seen, so a switch that numbers
/// its requests in increasing order may have up to [`SEQ_WINDOW`] of
/// them reordered in flight. Sequence number 0 counts as seen: switches
/// number from 1. One huge sequence number makes every lower one stale,
/// so a caller taking them from an untrusted source bounds them from
/// above first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqWindow {
    top: u64,
    bits: [u64; WORDS],
}

impl Default for SeqWindow {
    fn default() -> Self {
        let mut bits = [0; WORDS];
        bits[0] = 1; // seq 0, the initial top
        SeqWindow { top: 0, bits }
    }
}

impl SeqWindow {
    /// Records `seq`; `false` (and no change) if it is not fresh.
    pub fn insert(&mut self, seq: u64) -> bool {
        if !self.is_fresh(seq) {
            return false;
        }
        if seq > self.top {
            if seq - self.top >= SEQ_WINDOW {
                self.bits = [0; WORDS];
            } else {
                for skipped in self.top + 1..seq {
                    self.set(skipped, false);
                }
            }
            self.top = seq;
        }
        self.set(seq, true);
        true
    }

    fn is_fresh(&self, seq: u64) -> bool {
        seq > self.top || (self.top - seq < SEQ_WINDOW && !self.bit(seq))
    }

    fn bit(&self, seq: u64) -> bool {
        let i = seq % SEQ_WINDOW;
        self.bits[(i / 64) as usize] & (1 << (i % 64)) != 0
    }

    fn set(&mut self, seq: u64, on: bool) {
        let i = seq % SEQ_WINDOW;
        let word = &mut self.bits[(i / 64) as usize];
        if on {
            *word |= 1 << (i % 64);
        } else {
            *word &= !(1 << (i % 64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_window_admits_each_sequence_number_once() {
        let mut w = SeqWindow::default();
        assert!(!w.insert(0), "switches number from 1");
        // In order, a duplicate, then the relayed copies overtaking.
        assert!(w.insert(1));
        assert!(!w.insert(1));
        assert!(w.insert(4));
        assert!(w.insert(3));
        assert!(!w.insert(4));
        assert!(!w.insert(3));
        assert_eq!(w.top, 4);
        assert!(w.is_fresh(2));
        assert!(w.insert(2));
        assert!(!w.insert(2));
        assert!(!w.is_fresh(2));
    }

    #[test]
    fn seq_window_stays_bounded_under_wild_sequence_numbers() {
        // A hostile switch: huge and sparse. Each jump forgets the
        // window below it; the state is the same 136 bytes throughout.
        let mut w = SeqWindow::default();
        let mut admitted = 0;
        for i in 1..10 * SEQ_WINDOW {
            let seq = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1;
            if w.insert(seq) {
                admitted += 1;
                assert!(!w.insert(seq));
            }
        }
        assert!(admitted > 0);
        assert!(w.insert(u64::MAX));
        assert!(!w.insert(u64::MAX));
        // Everything a window or more below the top is stale.
        assert!(!w.insert(5));
        assert!(!w.insert(u64::MAX - SEQ_WINDOW));
        assert!(w.insert(u64::MAX - SEQ_WINDOW + 1));
        assert_eq!(std::mem::size_of::<SeqWindow>(), 136);

        // A jump of exactly one window clears every bit below.
        let mut w = SeqWindow::default();
        for seq in 1..=SEQ_WINDOW {
            assert!(w.insert(seq));
        }
        assert!(w.insert(2 * SEQ_WINDOW));
        for seq in SEQ_WINDOW + 1..2 * SEQ_WINDOW {
            assert!(w.is_fresh(seq), "seq {seq} was never seen");
        }
        assert!(!w.is_fresh(SEQ_WINDOW), "a window below the top");
    }

    #[test]
    fn seq_window_admits_out_of_order_seqs_within_the_window() {
        // A switch first heard of mid-stream, its requests arriving in
        // reverse: every one inside the window is admitted once.
        let mut w = SeqWindow::default();
        let top = 5_000 + SEQ_WINDOW - 1;
        for seq in (5_000..=top).rev() {
            assert!(w.insert(seq), "seq {seq}");
            assert!(!w.insert(seq));
        }
        assert_eq!(w.top, top);
        // The next one below is a full window under the top.
        assert!(!w.insert(4_999));
        // Moving the top up frees nothing that was seen inside it.
        assert!(w.insert(top + 10));
        for seq in top + 10 - (SEQ_WINDOW - 1)..=top {
            assert!(!w.is_fresh(seq), "seq {seq} was seen");
        }
        for seq in top + 1..top + 10 {
            assert!(w.is_fresh(seq), "seq {seq} was skipped, not seen");
        }
    }
}
