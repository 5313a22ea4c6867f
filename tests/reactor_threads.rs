//! The socket engine's scalability claim, measured: a 16-replica
//! localhost cluster must run with at most 3 OS threads per replica
//! spent on networking (a reader and a writer per peer would need ~31
//! at this group size; the reactor needs exactly one), and a node
//! backbone must run exactly one event-loop thread, gone after drop.
//!
//! Threads are counted by kernel name (`/proc/self/task/*/comm`, at
//! most 15 bytes): the event loop is `curb-net-io-{id}`, the runner
//! `curb-net-runner-{id}` cut to `curb-net-runner`. Both tests count
//! the `curb-net-` family, so they take turns on one lock; each then
//! sees only its own threads.

use curb::consensus::{Batch, BytesPayload, Replica};
use curb::net::{
    MuxTransport, NetRunner, ReactorConfig, ReactorTransport, RunnerConfig, RunnerHandle,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The kernel names (`comm`, at most 15 bytes) of this process's
/// threads that start with `prefix`. A thread that exits mid-scan is
/// skipped.
fn threads_named(prefix: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with(prefix))
        .collect()
}

/// Serialises the tests of this file: each counts threads by name.
fn census() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn sixteen_replica_reactor_cluster_uses_one_net_thread_per_replica() {
    let _census = census();
    const N: usize = 16;
    const NET_THREAD_BUDGET_PER_REPLICA: usize = 3;
    // `curb-net-runner-{id}`, cut to 15 bytes.
    const RUNNER: &str = "curb-net-runner";

    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect();
    let handles: Vec<RunnerHandle<BytesPayload>> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, l)| {
            let transport: ReactorTransport<Batch<BytesPayload>> =
                ReactorTransport::bind(id, l, addrs.clone(), ReactorConfig::default())
                    .expect("bind transport");
            NetRunner::spawn(Replica::new(id, N), transport, RunnerConfig::default())
        })
        .collect();

    // Commit through the full 16-replica group so the count below is
    // taken with every connection (16·15 sockets) live and working,
    // not with the cluster half-dialed.
    for i in 0..5 {
        let payload = BytesPayload(format!("scale-{i}").into_bytes());
        assert!(handles[0].propose(payload.clone()), "runner stopped early");
        for (r, h) in handles.iter().enumerate() {
            let d = h
                .decisions
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("replica {r} missing delivery {i}"));
            assert_eq!(d.payload, payload, "replica {r}");
        }
    }

    // Each replica costs one runner thread (not networking) plus its
    // networking threads; every thread `curb-net` spawns is named
    // `curb-net-*`.
    let ours = threads_named("curb-net-");
    let runners = ours.iter().filter(|name| *name == RUNNER).count();
    assert_eq!(runners, N, "one runner thread per replica: {ours:?}");
    let loops = ours
        .iter()
        .filter(|name| name.starts_with("curb-net-io-"))
        .count();
    assert_eq!(loops, N, "one event loop per replica: {ours:?}");
    let net_threads = ours.len() - runners;
    assert!(
        (N..=N * NET_THREAD_BUDGET_PER_REPLICA).contains(&net_threads),
        "{net_threads} networking threads for {N} replicas is outside \
         [1, {NET_THREAD_BUDGET_PER_REPLICA}] per replica: {ours:?}"
    );

    for h in handles {
        h.join();
    }
}

#[test]
fn a_backbone_runs_exactly_one_event_loop_thread() {
    // One event loop per node, whatever the peer count — no hidden
    // helpers, no thread-per-peer regression — and drop joins it.
    let _census = census();
    const N: usize = 3;

    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect();
    let transports: Vec<MuxTransport<BytesPayload>> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, l)| {
            MuxTransport::bind(id, l, addrs.clone(), ReactorConfig::default())
                .expect("bind backbone")
        })
        .collect();

    // Every node hears each peer's one broadcast, so the names are
    // read with the full mesh (3·2 sockets) connected.
    for t in &transports {
        t.broadcast_app(b"up");
    }
    for t in &transports {
        for _ in 0..N - 1 {
            t.recv_app(Duration::from_secs(10))
                .expect("mesh never fully connected");
        }
    }

    let mut names = threads_named("curb-net-");
    names.sort();
    let expected: Vec<String> = (0..N).map(|id| format!("curb-net-io-{id}")).collect();
    assert_eq!(
        names, expected,
        "each of the {N} backbones must run exactly one event-loop thread"
    );

    drop(transports);
    // Drop joins the loop: the threads must actually be gone.
    let left = threads_named("curb-net-");
    assert!(
        left.is_empty(),
        "event-loop threads must exit on drop: {left:?}"
    );
}
