//! Transport-layer fault-injection tests: the `LinkFaults` plane (the
//! same hooks the edgebench scenario matrix scripts) is driven directly
//! against a real-socket consensus cluster, and the cluster must
//! converge to **full commit identity** — every replica, including the
//! faulted one, delivers the identical (seq, index, payload) stream.
//!
//! Both scenarios run on the epoll `ReactorTransport`, the one-lane
//! case of the node mux; the fault hooks sit on the event loop's
//! enqueue path, exactly where the cluster's backbone meets them.

use curb::cluster::FaultPlane;
use curb::consensus::{Batch, BytesPayload, Replica};
use curb::net::{
    Delivery, LinkFaults, NetRunner, ReactorConfig, ReactorTransport, RunnerConfig, RunnerHandle,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

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

/// Spawns one replica over real sockets and hands back the runner
/// together with its transport's fault handle, so the test can script
/// cuts and delays while the runner owns the transport.
fn spawn_faultable(
    id: usize,
    listener: TcpListener,
    addrs: &[SocketAddr],
    cfg: RunnerConfig,
) -> (RunnerHandle<BytesPayload>, Arc<LinkFaults>) {
    let reactor_cfg = ReactorConfig {
        backoff_base: Duration::from_millis(10),
        backoff_max: Duration::from_millis(200),
        tick: Duration::from_millis(2),
        ..ReactorConfig::default()
    };
    let transport: ReactorTransport<Batch<BytesPayload>> =
        ReactorTransport::bind(id, listener, addrs.to_vec(), reactor_cfg).expect("bind transport");
    let faults = transport.faults();
    let runner = NetRunner::spawn(Replica::new(id, addrs.len()), transport, cfg);
    (runner, faults)
}

fn spawn_cluster(n: usize, cfg: &RunnerConfig) -> (Vec<RunnerHandle<BytesPayload>>, FaultPlane) {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect();
    let mut handles = Vec::with_capacity(n);
    let mut fault_handles = Vec::with_capacity(n);
    for (id, l) in listeners.into_iter().enumerate() {
        let (h, f) = spawn_faultable(id, l, &addrs, cfg.clone());
        handles.push(h);
        fault_handles.push(f);
    }
    (handles, FaultPlane::new(fault_handles))
}

fn drain(
    h: &RunnerHandle<BytesPayload>,
    r: usize,
    lo: usize,
    hi: usize,
) -> Vec<Delivery<BytesPayload>> {
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
}

#[test]
fn partition_heals_to_identical_logs_reactor() {
    with_deadline(Duration::from_secs(180), partition_heal_body);
}

/// Replica 3 is partitioned away **mid-round** — proposals are in
/// flight when the cut lands. The remaining 2f+1 keep committing; the
/// healed replica discovers the gap from live traffic and recovers the
/// missing prefix via state transfer, converging to the identical log
/// without ever restarting.
fn partition_heal_body() {
    const N: usize = 4;
    const PHASE: usize = 20;
    let cfg = RunnerConfig {
        catch_up_timeout: Duration::from_millis(200),
        ..RunnerConfig::default()
    };
    let (handles, plane) = spawn_cluster(N, &cfg);

    // Phase 1 — healthy cluster commits a prefix.
    for i in 0..PHASE {
        assert!(handles[0].propose(payload(i)));
    }
    let mut logs: Vec<Vec<Delivery<BytesPayload>>> =
        (0..N).map(|r| drain(&handles[r], r, 0, PHASE)).collect();

    // Phase 2 — cut replica 3 from every peer (a minority partition:
    // quorum survives on the majority side) and commit through it.
    plane.isolate(3);
    for i in PHASE..2 * PHASE {
        assert!(handles[0].propose(payload(i)));
    }
    for (r, log) in logs.iter_mut().enumerate().take(3) {
        log.extend(drain(&handles[r], r, PHASE, 2 * PHASE));
    }
    assert!(
        plane.dropped() > 0,
        "the cut must have dropped frames at the transport layer"
    );

    // Phase 3 — heal mid-stream and keep committing. The partitioned
    // replica sees live traffic above its gap and catches up.
    plane.heal_all();
    for i in 2 * PHASE..3 * PHASE {
        assert!(handles[0].propose(payload(i)));
    }
    for (r, log) in logs.iter_mut().enumerate().take(3) {
        log.extend(drain(&handles[r], r, 2 * PHASE, 3 * PHASE));
    }
    // Replica 3 must deliver EVERYTHING from the start of the cut:
    // the missed partition-era commits plus the live tail.
    logs[3].extend(drain(&handles[3], 3, PHASE, 3 * PHASE));

    for r in 1..N {
        assert_eq!(logs[r], logs[0], "replica {r} diverged after the heal");
    }
    let stats = handles.into_iter().map(|h| h.join()).collect::<Vec<_>>();
    assert!(
        stats[3].state_requests >= 1,
        "the healed replica must have recovered via state transfer"
    );
}

#[test]
fn slow_leader_lane_still_commits_reactor() {
    with_deadline(Duration::from_secs(180), slow_leader_body);
}

/// Every link touching the view-0 leader gets 20 ms of injected one-way
/// delay while proposals flow. Rounds must keep committing — slower,
/// never wedged — and all replicas converge to the identical log; the
/// delay line must actually have parked frames.
fn slow_leader_body() {
    const N: usize = 4;
    const PROPOSALS: usize = 30;
    let (handles, plane) = spawn_cluster(N, &RunnerConfig::default());

    // Warm the cluster so every peer link is up before the delay lands.
    assert!(handles[0].propose(payload(0)));
    let mut logs: Vec<Vec<Delivery<BytesPayload>>> =
        (0..N).map(|r| drain(&handles[r], r, 0, 1)).collect();

    // 20 ms on every lane in and out of the leader.
    for peer in 1..N {
        plane.slow_link(0, peer, Duration::from_millis(20));
    }
    for i in 1..PROPOSALS {
        assert!(handles[0].propose(payload(i)));
    }
    for (r, log) in logs.iter_mut().enumerate() {
        log.extend(drain(&handles[r], r, 1, PROPOSALS));
    }
    assert!(
        plane.delayed() > 0,
        "the delay line must have parked frames on the leader lanes"
    );
    plane.heal_all();

    for r in 1..N {
        assert_eq!(logs[r], logs[0], "replica {r} diverged under the slow link");
    }
    for h in handles {
        h.join();
    }
}
