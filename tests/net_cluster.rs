//! Integration tests for the networked runtime: the same `Replica`
//! code path must commit identically over the in-memory loopback
//! transport and over real localhost TCP sockets, a socket cluster must
//! survive a replica being killed and rejoining — with the restarted
//! replica recovering the **full committed prefix** via state
//! transfer and then carrying quorum weight — batches must unfold
//! into identical per-payload `(seq, index)` logs on every replica,
//! and a cluster whose view-0 leader never starts must still commit
//! via the timeout-driven view change. Fault-injection tests cover
//! catch-up racing continuous batched load, a lying state server
//! whose bad certificates must be rejected, and checkpointed recovery
//! where the restarted replica's gap starts below every donor's
//! low-water mark — healed by a snapshot install plus delta replay,
//! never by re-delivering the pruned prefix.
//!
//! Every socket-level scenario runs on the epoll `ReactorTransport`,
//! the one-lane case of the node mux — the same event loop, lane
//! routing and lane codec the cluster runs; `NetRunner` cannot tell it
//! from the loopback.

use curb::consensus::{Batch, Behavior, BytesPayload, Replica, Seq};
use curb::net::{
    Delivery, LoopbackTransport, NetRunner, ReactorConfig, ReactorTransport, RunnerConfig,
    RunnerHandle,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

/// Runs `body` on a worker thread and panics if it does not finish
/// within `limit`, so a deadlocked catch-up fails the test fast
/// instead of hanging the whole job until the CI-level timeout.
fn with_deadline<F: FnOnce() + Send + 'static>(limit: Duration, body: F) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::Builder::new()
        .name("test-body".into())
        .spawn(move || {
            body();
            let _ = done_tx.send(());
        })
        .expect("spawn test body");
    match done_rx.recv_timeout(limit) {
        // Finished or panicked: join and propagate any panic.
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => panic!("test exceeded its {limit:?} deadline"),
    }
}

fn payload(i: usize) -> BytesPayload {
    BytesPayload(format!("proposal-{i}").into_bytes())
}

fn fast_reactor_cfg() -> ReactorConfig {
    ReactorConfig {
        backoff_base: Duration::from_millis(10),
        backoff_max: Duration::from_millis(200),
        tick: Duration::from_millis(2),
        ..ReactorConfig::default()
    }
}

fn bind_listeners(n: usize) -> (Vec<TcpListener>, Vec<SocketAddr>) {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect();
    (listeners, addrs)
}

/// Spawns one honest replica over real sockets.
fn spawn_net_replica(
    id: usize,
    listener: TcpListener,
    addrs: &[SocketAddr],
    cfg: RunnerConfig,
) -> RunnerHandle<BytesPayload> {
    spawn_net_replica_with(id, listener, addrs, cfg, Behavior::Honest)
}

fn spawn_net_replica_with(
    id: usize,
    listener: TcpListener,
    addrs: &[SocketAddr],
    cfg: RunnerConfig,
    behavior: Behavior,
) -> RunnerHandle<BytesPayload> {
    let mut replica = Replica::new(id, addrs.len());
    replica.set_behavior(behavior);
    let transport: ReactorTransport<Batch<BytesPayload>> =
        ReactorTransport::bind(id, listener, addrs.to_vec(), fast_reactor_cfg())
            .expect("bind transport");
    NetRunner::spawn(replica, transport, cfg)
}

fn spawn_loopback_cluster(n: usize, cfg: RunnerConfig) -> Vec<RunnerHandle<BytesPayload>> {
    LoopbackTransport::<Batch<BytesPayload>>::group(n)
        .into_iter()
        .enumerate()
        .map(|(id, t)| NetRunner::spawn(Replica::new(id, n), t, cfg.clone()))
        .collect()
}

/// Proposes `count` payloads at replica 0 and returns every replica's
/// ordered delivery log.
fn drive(handles: &[RunnerHandle<BytesPayload>], count: usize) -> Vec<Vec<Delivery<BytesPayload>>> {
    for i in 0..count {
        assert!(handles[0].propose(payload(i)), "runner stopped early");
    }
    handles
        .iter()
        .enumerate()
        .map(|(r, h)| {
            (0..count)
                .map(|i| {
                    h.decisions
                        .recv_timeout(Duration::from_secs(30))
                        .unwrap_or_else(|_| panic!("replica {r} missing delivery {i}"))
                })
                .collect()
        })
        .collect()
}

/// Asserts the batch-delivery contract on a cluster's logs: every
/// replica delivers the payloads in submission order, with strictly
/// increasing `(seq, index)` identifiers, byte-identical across all
/// replicas.
fn assert_logs_consistent(logs: &[Vec<Delivery<BytesPayload>>], count: usize) {
    for (r, log) in logs.iter().enumerate() {
        assert_eq!(log.len(), count, "replica {r}");
        for (i, d) in log.iter().enumerate() {
            assert_eq!(d.payload, payload(i), "replica {r} out of submission order");
        }
        for pair in log.windows(2) {
            assert!(
                (pair[0].seq, pair[0].index) < (pair[1].seq, pair[1].index),
                "replica {r}: (seq, index) must be strictly increasing"
            );
        }
        assert_eq!(log, &logs[0], "replica {r} differs from replica 0");
    }
}

#[test]
fn loopback_and_reactor_clusters_commit_identically() {
    const N: usize = 4;
    const PROPOSALS: usize = 100;

    // Loopback cluster: 100 proposals, every replica delivers all of
    // them in submission order with identical (seq, index) logs.
    let loopback = spawn_loopback_cluster(N, RunnerConfig::default());
    let loopback_logs = drive(&loopback, PROPOSALS);
    for h in loopback {
        h.join();
    }
    assert_logs_consistent(&loopback_logs, PROPOSALS);

    // Real-socket cluster, same proposals: the delivered payload
    // sequence must be identical — the transport must not change what
    // the replica code commits. (Batch boundaries, and therefore the
    // exact (seq, index) identifiers, may differ between runs: batch
    // formation depends on arrival timing.)
    let (listeners, addrs) = bind_listeners(N);
    let sockets: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, l)| spawn_net_replica(id, l, &addrs, RunnerConfig::default()))
        .collect();
    let socket_logs = drive(&sockets, PROPOSALS);
    for h in sockets {
        h.join();
    }
    assert_logs_consistent(&socket_logs, PROPOSALS);
    let payloads = |logs: &[Vec<Delivery<BytesPayload>>]| -> Vec<BytesPayload> {
        logs[0].iter().map(|d| d.payload.clone()).collect()
    };
    assert_eq!(
        payloads(&socket_logs),
        payloads(&loopback_logs),
        "transports must commit identical payload sequences"
    );
}

#[test]
fn batches_deliver_in_submission_order_across_replicas() {
    const N: usize = 4;
    const PROPOSALS: usize = 200;
    // A long window plus a full-batch flush: every batch is proposed
    // exactly when it fills, so the whole burst coalesces into
    // multi-payload batches deterministically.
    let cfg = RunnerConfig {
        max_batch: 8,
        batch_window: Duration::from_secs(2),
        ..RunnerConfig::default()
    };
    let handles = spawn_loopback_cluster(N, cfg);
    let logs = drive(&handles, PROPOSALS);
    assert_logs_consistent(&logs, PROPOSALS);
    assert!(
        logs[0].iter().any(|d| d.index > 0),
        "at least one batch must carry more than one payload"
    );
    let stats = handles.into_iter().next().expect("leader").join();
    assert_eq!(stats.delivered, PROPOSALS as u64);
    assert!(
        stats.decided < PROPOSALS as u64,
        "batching must use fewer consensus instances than payloads"
    );
}

#[test]
fn leaderless_cluster_commits_via_timeout_view_change() {
    const N: usize = 4;
    // The view-0 leader (replica 0) is never spawned: its transport is
    // dropped on the floor. Replicas 1..=3 each hold a stashed
    // proposal, starve, vote the view change, and replica 1 — leader
    // of view 1 — drives the first batch through.
    let cfg = RunnerConfig {
        poll: Duration::from_millis(5),
        view_change_timeout: Some(Duration::from_millis(300)),
        ..RunnerConfig::default()
    };
    let mut transports = LoopbackTransport::<Batch<BytesPayload>>::group(N);
    drop(transports.remove(0));
    let handles: Vec<RunnerHandle<BytesPayload>> = transports
        .into_iter()
        .zip(1..)
        .map(|(t, id)| NetRunner::spawn(Replica::new(id, N), t, cfg.clone()))
        .collect();

    for (i, h) in handles.iter().enumerate() {
        assert!(h.propose(payload(i + 1)));
    }
    // Every live replica's first delivery is replica 1's proposal,
    // committed in view 1 at seq 1 after the timeout-driven change.
    for (r, h) in handles.iter().enumerate() {
        let d = h
            .decisions
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("replica {} never committed", r + 1));
        assert_eq!((d.seq, d.index), (1 as Seq, 0), "replica {}", r + 1);
        assert_eq!(d.payload, payload(1), "replica {}", r + 1);
    }
    let view_changes: u64 = handles
        .into_iter()
        .map(|h| h.join().view_changes_started)
        .sum();
    assert!(
        view_changes >= 1,
        "at least one replica must have fired the view-change timer"
    );
}

#[test]
fn reactor_cluster_survives_kill_and_reconnect() {
    with_deadline(Duration::from_secs(180), kill_and_reconnect_body);
}

fn kill_and_reconnect_body() {
    const N: usize = 4;
    let (listeners, addrs) = bind_listeners(N);
    let mut handles: Vec<Option<RunnerHandle<BytesPayload>>> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, l)| Some(spawn_net_replica(id, l, &addrs, RunnerConfig::default())))
        .collect();

    // Proposals are submitted one at a time and confirmed before the
    // next, so each forms its own singleton batch: seq advances by one
    // per proposal and every delivery has index 0.
    let expect_commit =
        |handles: &[Option<RunnerHandle<BytesPayload>>], live: &[usize], seq: Seq, i: usize| {
            let leader = handles[0].as_ref().expect("leader alive");
            assert!(leader.propose(payload(i)));
            for &r in live {
                let h = handles[r].as_ref().expect("live replica");
                let d = h
                    .decisions
                    .recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("replica {r} missing seq {seq}"));
                assert_eq!((d.seq, d.index), (seq, 0), "replica {r}");
                assert_eq!(d.payload, payload(i), "replica {r}");
            }
        };

    // Phase 1 — full cluster commits 5 proposals.
    for i in 0..5 {
        expect_commit(&handles, &[0, 1, 2, 3], (i + 1) as Seq, i);
    }

    // Phase 2 — kill replica 3; the remaining 2f+1 keep committing.
    handles[3].take().expect("replica 3").join();
    for i in 5..10 {
        expect_commit(&handles, &[0, 1, 2], (i + 1) as Seq, i);
    }

    // Phase 3 — restart replica 3 on its original address (fresh
    // state). Its listener port was freed when the old transport shut
    // down; peers reconnect via backoff.
    let listener = TcpListener::bind(addrs[3]).expect("rebind replica 3's port");
    handles[3] = Some(spawn_net_replica(
        3,
        listener,
        &addrs,
        RunnerConfig::default(),
    ));

    // Kill replica 2: commits now REQUIRE the restarted replica 3 in
    // the quorum, which proves it is load-bearing, not just connected.
    handles[2].take().expect("replica 2").join();
    for i in 10..15 {
        expect_commit(&handles, &[0, 1], (i + 1) as Seq, i);
    }

    // The restarted replica rejoined with a hole at seqs 1..=10. The
    // first live decision above the hole reveals the gap; catch-up
    // fetches the certificate-backed prefix from a peer and the
    // replica must then deliver the ENTIRE committed log — the
    // identical (seq, index, payload) stream the never-killed
    // replicas delivered.
    let h3 = handles[3].as_ref().expect("restarted replica");
    for i in 0..15 {
        let d = h3
            .decisions
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("restarted replica missing delivery {i}"));
        assert_eq!((d.seq, d.index), ((i + 1) as Seq, 0), "restarted replica");
        assert_eq!(d.payload, payload(i), "restarted replica");
    }
    let stats = handles[3].take().expect("restarted replica").join();
    assert!(
        stats.state_requests >= 1,
        "recovery must have used the state-transfer protocol"
    );
    assert_eq!(stats.delivered, 15, "full prefix plus live tail");

    for h in handles.into_iter().flatten() {
        h.join();
    }
}

#[test]
fn restarted_replica_catches_up_under_continuous_load_reactor() {
    with_deadline(Duration::from_secs(180), catch_up_under_load_body);
}

/// Kills and restarts a replica while the cluster is under continuous
/// batched load, so catch-up races live commits: by the time the first
/// state chunk lands, new instances have already decided above it.
fn catch_up_under_load_body() {
    const N: usize = 4;
    const PHASE: usize = 100; // payloads per phase, 3 phases
    let cfg = RunnerConfig {
        max_batch: 8,
        batch_window: Duration::from_millis(5),
        catch_up_timeout: Duration::from_millis(200),
        ..RunnerConfig::default()
    };
    let (listeners, addrs) = bind_listeners(N);
    let mut handles: Vec<Option<RunnerHandle<BytesPayload>>> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, l)| Some(spawn_net_replica(id, l, &addrs, cfg.clone())))
        .collect();

    let drain = |h: &RunnerHandle<BytesPayload>,
                 r: usize,
                 lo: usize,
                 hi: usize|
     -> Vec<Delivery<BytesPayload>> {
        (lo..hi)
            .map(|i| {
                let d = h
                    .decisions
                    .recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("replica {r} missing delivery {i}"));
                assert_eq!(d.payload, payload(i), "replica {r} out of submission order");
                d
            })
            .collect()
    };

    // Phase 1 — all four replicas deliver the first burst.
    let mut logs: Vec<Vec<Delivery<BytesPayload>>> = vec![Vec::new(); N];
    for i in 0..PHASE {
        assert!(handles[0].as_ref().expect("leader").propose(payload(i)));
    }
    for r in 0..N {
        let chunk = drain(handles[r].as_ref().expect("replica"), r, 0, PHASE);
        logs[r].extend(chunk);
    }

    // Phase 2 — replica 3 is down; the rest keep committing.
    handles[3].take().expect("replica 3").join();
    for i in PHASE..2 * PHASE {
        assert!(handles[0].as_ref().expect("leader").propose(payload(i)));
    }
    for r in 0..3 {
        let chunk = drain(handles[r].as_ref().expect("replica"), r, PHASE, 2 * PHASE);
        logs[r].extend(chunk);
    }

    // Phase 3 — restart replica 3 and IMMEDIATELY pour on more load,
    // so its state transfer runs concurrently with live consensus.
    let listener = TcpListener::bind(addrs[3]).expect("rebind replica 3's port");
    handles[3] = Some(spawn_net_replica(3, listener, &addrs, cfg.clone()));
    for i in 2 * PHASE..3 * PHASE {
        assert!(handles[0].as_ref().expect("leader").propose(payload(i)));
    }
    for r in 0..3 {
        let chunk = drain(
            handles[r].as_ref().expect("replica"),
            r,
            2 * PHASE,
            3 * PHASE,
        );
        logs[r].extend(chunk);
    }
    // The restarted replica must deliver the FULL history from seq 1:
    // the prefix it missed (recovered and verified via catch-up) plus
    // everything committed while it raced to rejoin.
    let rejoined = drain(handles[3].as_ref().expect("replica 3"), 3, 0, 3 * PHASE);

    // Byte-identical (seq, index, payload) streams everywhere.
    for r in 1..3 {
        assert_eq!(logs[r], logs[0], "replica {r} diverged");
    }
    assert_eq!(rejoined, logs[0], "rejoined replica's log diverged");

    let stats = handles[3].take().expect("replica 3").join();
    assert!(
        stats.state_requests >= 1,
        "recovery must use state transfer"
    );
    assert_eq!(stats.delivered, 3 * PHASE as u64);
    for h in handles.into_iter().flatten() {
        h.join();
    }
}

#[test]
fn lying_state_peer_is_rejected_and_another_peer_retried_reactor() {
    with_deadline(Duration::from_secs(180), lying_state_peer_body);
}

/// Replica 0 leads view 0 honestly but serves state-transfer entries
/// with corrupted commit certificates (`Behavior::StateGarbage`). The
/// restarted replica's first catch-up request goes to replica 0 (the
/// rotation starts at `(id + 1) % n = 0`), so recovery only succeeds
/// if the bad certificates are rejected and the request is retried
/// against an honest peer.
fn lying_state_peer_body() {
    const N: usize = 4;
    let cfg = RunnerConfig {
        catch_up_timeout: Duration::from_millis(200),
        ..RunnerConfig::default()
    };
    let (listeners, addrs) = bind_listeners(N);
    let mut handles: Vec<Option<RunnerHandle<BytesPayload>>> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, l)| {
            let behavior = if id == 0 {
                Behavior::StateGarbage
            } else {
                Behavior::Honest
            };
            Some(spawn_net_replica_with(id, l, &addrs, cfg.clone(), behavior))
        })
        .collect();

    let expect_commit =
        |handles: &[Option<RunnerHandle<BytesPayload>>], live: &[usize], seq: Seq, i: usize| {
            let leader = handles[0].as_ref().expect("leader alive");
            assert!(leader.propose(payload(i)));
            for &r in live {
                let h = handles[r].as_ref().expect("live replica");
                let d = h
                    .decisions
                    .recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("replica {r} missing seq {seq}"));
                assert_eq!((d.seq, d.index), (seq, 0), "replica {r}");
                assert_eq!(d.payload, payload(i), "replica {r}");
            }
        };

    // Commit a prefix with everyone up, then 5 more with replica 3
    // down so it has something to miss.
    for i in 0..5 {
        expect_commit(&handles, &[0, 1, 2, 3], (i + 1) as Seq, i);
    }
    handles[3].take().expect("replica 3").join();
    for i in 5..10 {
        expect_commit(&handles, &[0, 1, 2], (i + 1) as Seq, i);
    }

    // Restart replica 3 and commit more: live traffic reveals the gap
    // and triggers catch-up against the lying peer first.
    let listener = TcpListener::bind(addrs[3]).expect("rebind replica 3's port");
    handles[3] = Some(spawn_net_replica(3, listener, &addrs, cfg.clone()));
    for i in 10..15 {
        expect_commit(&handles, &[0, 1, 2], (i + 1) as Seq, i);
    }

    // Despite the liar, the restarted replica recovers the full,
    // verified prefix.
    let h3 = handles[3].as_ref().expect("restarted replica");
    for i in 0..15 {
        let d = h3
            .decisions
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("restarted replica missing delivery {i}"));
        assert_eq!((d.seq, d.index), ((i + 1) as Seq, 0), "restarted replica");
        assert_eq!(d.payload, payload(i), "restarted replica");
    }
    // The rejection count must be visible in a live snapshot — it is
    // published when the bad StateResponse is handled, not only when
    // the runner is joined.
    let live = handles[3].as_ref().expect("restarted replica").stats();
    assert!(
        live.state_rejections >= 1,
        "live stats must already show the rejected certificates"
    );
    let stats = handles[3].take().expect("restarted replica").join();
    assert!(
        stats.state_rejections >= 1,
        "the lying peer's certificates must have been rejected"
    );
    assert!(
        stats.state_rejections >= live.state_rejections,
        "final stats never go backwards from a live snapshot"
    );
    assert!(
        stats.state_retries >= 1,
        "catch-up must have moved on to another peer"
    );
    for h in handles.into_iter().flatten() {
        h.join();
    }
}

#[test]
fn snapshot_catch_up_below_the_low_water_mark_reactor() {
    // Ten times the history must not cost more transferred entries:
    // catch-up is O(delta above the stable checkpoint), not O(history).
    with_deadline(Duration::from_secs(180), || {
        for history in [27, 270] {
            snapshot_catch_up_body(history);
        }
    });
}

/// Fault injection for checkpointed recovery: with a small checkpoint
/// interval, the donors garbage-collect their committed logs while
/// replica 3 is down, so the restarted replica's gap starts BELOW
/// every donor's low-water mark and the per-entry state transfer
/// cannot serve it. Recovery must instead install the donor's stable
/// checkpoint (the snapshot path) and replay only the delta above it —
/// which also means the rejoined replica does NOT re-deliver the
/// pruned prefix. The killed replica 2 makes the rejoined replica
/// load-bearing: further commits need it in the quorum.
///
/// `history` is how many commits exist when replica 3 restarts. What
/// recovery transfers and delivers is bounded by one constant whatever
/// the history: a donor's log holds at most two checkpoint intervals
/// above its low-water mark, plus the commits made after the restart.
fn snapshot_catch_up_body(history: usize) {
    const N: usize = 4;
    const INTERVAL: u64 = 4;
    const LIVE: usize = 5; // commits after the restart
    const DELTA_BOUND: u64 = 2 * INTERVAL + LIVE as u64;
    let frontier = history + LIVE;
    let cfg = RunnerConfig {
        checkpoint_interval: INTERVAL,
        catch_up_timeout: Duration::from_millis(200),
        ..RunnerConfig::default()
    };
    let (listeners, addrs) = bind_listeners(N);
    let mut handles: Vec<Option<RunnerHandle<BytesPayload>>> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, l)| Some(spawn_net_replica(id, l, &addrs, cfg.clone())))
        .collect();

    let expect_commit =
        |handles: &[Option<RunnerHandle<BytesPayload>>], live: &[usize], seq: Seq, i: usize| {
            let leader = handles[0].as_ref().expect("leader alive");
            assert!(leader.propose(payload(i)));
            for &r in live {
                let h = handles[r].as_ref().expect("live replica");
                let d = h
                    .decisions
                    .recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("replica {r} missing seq {seq}"));
                assert_eq!((d.seq, d.index), (seq, 0), "replica {r}");
                assert_eq!(d.payload, payload(i), "replica {r}");
            }
        };

    // Phase 1 — a short shared prefix, then replica 3 goes down.
    for i in 0..3 {
        expect_commit(&handles, &[0, 1, 2, 3], (i + 1) as Seq, i);
    }
    handles[3].take().expect("replica 3").join();

    // Phase 2 — commit far past several checkpoint intervals. The
    // donors' low-water marks advance to within two intervals of
    // `history` (seq 20 or later after 27 commits), well above replica
    // 3's gap start at seq 4: the entries it needs first no longer
    // exist in any donor's log.
    for i in 3..history {
        expect_commit(&handles, &[0, 1, 2], (i + 1) as Seq, i);
    }

    // Phase 3 — restart replica 3 fresh, then kill replica 2 so
    // commits REQUIRE the rejoined replica in the quorum.
    let listener = TcpListener::bind(addrs[3]).expect("rebind replica 3's port");
    handles[3] = Some(spawn_net_replica(3, listener, &addrs, cfg.clone()));
    handles[2].take().expect("replica 2").join();
    for i in history..frontier {
        expect_commit(&handles, &[0, 1], (i + 1) as Seq, i);
    }

    // The rejoined replica converges on the suffix: everything it
    // delivers is in global order and it reaches the live frontier.
    // It must NOT be required to re-deliver the pruned
    // prefix — the stable checkpoint replaced those entries — so the
    // assertion is on suffix convergence, not on full redelivery.
    let h3 = handles[3].as_ref().expect("restarted replica");
    let mut last_seq: Seq = 0;
    loop {
        let d = h3
            .decisions
            .recv_timeout(Duration::from_secs(30))
            .expect("rejoined replica stalled before reaching the frontier");
        assert!(d.seq > last_seq, "rejoined replica replayed out of order");
        last_seq = d.seq;
        assert_eq!(d.payload, payload(d.seq as usize - 1), "rejoined replica");
        if d.seq == frontier as Seq {
            break;
        }
    }

    let stats = handles[3].take().expect("restarted replica").join();
    assert!(
        stats.state_requests >= 1,
        "recovery must use state transfer"
    );
    assert!(
        stats.snapshots_installed >= 1,
        "a gap below the donors' low-water mark must be healed by a \
         snapshot install, not per-entry transfer"
    );
    // Either count may legitimately be small, even 0 transferred:
    // donors flush buffered votes on reconnect, which can decide the
    // delta live before the snapshot's own delta is replayed.
    assert!(
        stats.state_entries_applied <= DELTA_BOUND,
        "history {history}: {} entries transferred, catch-up is not O(delta)",
        stats.state_entries_applied
    );
    assert!(
        stats.delivered <= DELTA_BOUND,
        "history {history}: {} payloads delivered, the checkpointed prefix \
         must not be re-delivered entry by entry",
        stats.delivered
    );
    for h in handles.into_iter().flatten() {
        h.join();
    }
}
