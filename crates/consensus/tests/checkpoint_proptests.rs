//! Property tests for checkpoint garbage collection: under *any*
//! interleaving of proposals, message deliveries and checkpoint
//! exchanges across a 4-replica group, the committed log must stay
//! bounded by the checkpoint interval once the group quiesces, the
//! low-water mark must never pass an entry that is then redelivered,
//! and no replica may ever drop an entry at or above its own
//! low-water mark before it was delivered to the application.

use curb_consensus::{BytesPayload, Dest, Outbound, PbftMsg, Replica};
use proptest::prelude::*;
use std::collections::VecDeque;

const N: usize = 4;

/// One in-flight message: (from, to, msg).
type Wire = (usize, usize, PbftMsg<BytesPayload>);

/// Fans an outbound batch from `from` into the wire queue.
fn enqueue(wire: &mut VecDeque<Wire>, from: usize, outbound: Vec<Outbound<BytesPayload>>) {
    for out in outbound {
        match out.dest {
            Dest::Broadcast => {
                for to in 0..N {
                    if to != from {
                        wire.push_back((from, to, out.msg.clone()));
                    }
                }
            }
            Dest::To(to) => wire.push_back((from, to, out.msg.clone())),
        }
    }
}

/// Drives the group until the wire is empty, collecting deliveries and
/// checkpoint traffic. `pick` chooses which queued message goes next,
/// so the scheduler order is adversarial (property-driven).
fn drain(
    replicas: &mut [Replica<BytesPayload>; N],
    wire: &mut VecDeque<Wire>,
    delivered: &mut [Vec<(u64, BytesPayload)>; N],
    mut pick: impl FnMut(usize) -> usize,
) {
    while !wire.is_empty() {
        let idx = pick(wire.len());
        let (from, to, msg) = wire.remove(idx).expect("index in range");
        let out = replicas[to].on_message(from, msg);
        enqueue(wire, to, out);
        for (seq, payload) in replicas[to].take_decisions() {
            delivered[to].push((seq, payload));
        }
        let cps = replicas[to].take_checkpoint_msgs();
        enqueue(wire, to, cps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random proposal counts, checkpoint intervals and delivery
    /// orders: once every message has been processed, every replica's
    /// committed log holds at most 2x the checkpoint interval, the
    /// low-water marks agree with a stable checkpoint, and the
    /// delivered sequence is the full uninterrupted prefix on every
    /// replica (GC never ate an undelivered entry).
    #[test]
    fn committed_log_stays_bounded_under_any_interleaving(
        proposals in 1usize..40,
        interval in 1u64..9,
        picks in prop::collection::vec(0usize..64, 1..400),
    ) {
        let mut replicas: [Replica<BytesPayload>; N] =
            std::array::from_fn(|i| Replica::new(i, N));
        for r in &mut replicas {
            r.set_checkpoint_interval(interval);
        }
        let mut wire: VecDeque<Wire> = VecDeque::new();
        let mut delivered: [Vec<(u64, BytesPayload)>; N] = Default::default();
        let mut pi = 0usize;
        let mut pick = |len: usize| {
            let p = picks[pi % picks.len()] % len;
            pi += 1;
            p
        };

        for i in 0..proposals {
            let payload = BytesPayload(format!("op-{i}").into_bytes());
            let out = replicas[0].propose(payload).expect("replica 0 leads view 0");
            enqueue(&mut wire, 0, out);
            drain(&mut replicas, &mut wire, &mut delivered, &mut pick);
        }
        // One final drain for checkpoint votes queued by the last
        // deliveries.
        drain(&mut replicas, &mut wire, &mut delivered, &mut pick);

        for (i, r) in replicas.iter().enumerate() {
            // Every proposal was delivered exactly once, in order.
            prop_assert_eq!(delivered[i].len(), proposals, "replica {} deliveries", i);
            for (k, (seq, _)) in delivered[i].iter().enumerate() {
                prop_assert_eq!(*seq, (k + 1) as u64, "replica {} delivery order", i);
            }
            // The log is bounded by the interval once quiesced.
            prop_assert!(
                r.committed_log_len() as u64 <= 2 * interval,
                "replica {} log_len {} > 2x interval {}",
                i, r.committed_log_len(), interval
            );
            // The low-water mark is exactly the last stabilized
            // checkpoint boundary, and never ahead of delivery.
            let expected_lwm = (proposals as u64 / interval) * interval;
            prop_assert_eq!(
                r.low_water_mark(), expected_lwm,
                "replica {} low-water mark", i
            );
            prop_assert!(r.low_water_mark() < r.next_deliver());
            if expected_lwm > 0 {
                let cp = r.stable_checkpoint().expect("stable checkpoint exists");
                prop_assert_eq!(cp.seq, expected_lwm);
                prop_assert!(cp.voters.len() > 2 * r.f());
            }
        }
        // All replicas agree on the checkpointed state digest.
        let digest = replicas[0].state_digest();
        for r in &replicas[1..] {
            prop_assert_eq!(r.state_digest(), digest, "state digests diverge");
        }
    }

    /// Entries at or above the low-water mark are never dropped: after
    /// any run, each replica can still serve every sequence in
    /// `(lwm, next_deliver)` from its committed log — exactly the
    /// range state transfer relies on for delta replay.
    #[test]
    fn entries_above_the_mark_survive_gc(
        proposals in 1usize..30,
        interval in 1u64..7,
        picks in prop::collection::vec(0usize..64, 1..300),
    ) {
        let mut replicas: [Replica<BytesPayload>; N] =
            std::array::from_fn(|i| Replica::new(i, N));
        for r in &mut replicas {
            r.set_checkpoint_interval(interval);
        }
        let mut wire: VecDeque<Wire> = VecDeque::new();
        let mut delivered: [Vec<(u64, BytesPayload)>; N] = Default::default();
        let mut pi = 0usize;
        let mut pick = |len: usize| {
            let p = picks[pi % picks.len()] % len;
            pi += 1;
            p
        };
        for i in 0..proposals {
            let payload = BytesPayload(vec![i as u8; 8]);
            let out = replicas[0].propose(payload).expect("replica 0 leads view 0");
            enqueue(&mut wire, 0, out);
            drain(&mut replicas, &mut wire, &mut delivered, &mut pick);
        }
        drain(&mut replicas, &mut wire, &mut delivered, &mut pick);

        for (i, r) in replicas.iter_mut().enumerate() {
            let lwm = r.low_water_mark();
            let next = r.next_deliver();
            let want = (next - 1 - lwm) as usize;
            prop_assert_eq!(
                r.committed_log_len(), want,
                "replica {} must hold exactly ({}, {}) after GC",
                i, lwm, next
            );
            if want > 0 {
                // A state request for the surviving suffix is served
                // in full from the log (no snapshot needed).
                let from = (N - 1 + i) % N; // some other replica
                let out = r.on_message(
                    from,
                    PbftMsg::StateRequest {
                        from_seq: lwm + 1,
                        to_seq: next - 1,
                    },
                );
                let served: usize = out
                    .iter()
                    .map(|o| match &o.msg {
                        PbftMsg::StateResponse { entries } => entries.len(),
                        _ => 0,
                    })
                    .sum();
                prop_assert_eq!(served, want, "replica {} suffix not fully servable", i);
            }
        }
    }
}
