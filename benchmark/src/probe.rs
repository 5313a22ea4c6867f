//! Per-layer probes: timed direct calls into each crate's public
//! functions, each under a harness span.
//!
//! A probe runs its operation repeatedly for a fixed budget and
//! reports the mean cost of one call. These numbers say what a layer
//! costs on its own; which end-to-end metric each should move, and on
//! which workload, is tabulated in README.md.

use crate::metrics::Reading;
use crate::trace::{counter_sum, histogram_p50, Recorder, SpanId};
use crate::workload::HOSTS;
use curb_assign::solve;
use curb_chain::{Block, Blockchain, RequestKind, Transaction, Wal, WalConfig};
use curb_cluster::{bootstrap_pinned, ChainStore, PersistConfig, SbMsg};
use curb_consensus::{Batch, BytesPayload, Payload, PbftMsg, Replica};
use curb_core::{
    ConfigData, CurbConfig, CurbNetwork, FlowRuleSpec, ReplyMatcher, RequestKey, SwitchId,
};
use curb_crypto::rng::DetRng;
use curb_crypto::{sha256, KeyPair};
use curb_graph::internet2;
use curb_net::frame::{decode_msg, encode_msg_into, write_frame, FrameDecoder};
use curb_net::{
    LoopbackTransport, NetRunner, ReactorConfig, ReactorTransport, RunnerConfig, RunnerHandle,
};
use curb_sdn::{FlowAction, FlowEntry, FlowMatch, FlowTable, HostId, Packet, PortId};
use curb_telemetry::{Registry, TraceCtx};
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long each probe repeats its operation.
const BUDGET: Duration = Duration::from_millis(100);

/// Payload size of the consensus and framing probes: about what one
/// flow-rule transaction encodes to.
const PAYLOAD_BYTES: usize = 128;

/// Repeats `op` for [`BUDGET`] under one harness span and returns the
/// mean seconds per call.
fn time_per_call<T>(
    rec: &mut Recorder,
    parent: SpanId,
    span: &str,
    mut op: impl FnMut() -> T,
) -> f64 {
    rec.scope(format!("probe.{span}"), Some(parent), |_, _| {
        let start = Instant::now();
        let mut calls = 0u64;
        loop {
            // Check the clock every few calls so that reading it does
            // not dominate nanosecond-scale operations.
            for _ in 0..8 {
                black_box(op());
            }
            calls += 8;
            let elapsed = start.elapsed();
            if elapsed >= BUDGET {
                return elapsed.as_secs_f64() / calls as f64;
            }
        }
    })
}

/// Like [`time_per_call`] for an operation that consumes an input:
/// `setup` makes the input and is not timed, though it does count
/// against the budget.
fn time_per_call_with<I, T>(
    rec: &mut Recorder,
    parent: SpanId,
    span: &str,
    mut setup: impl FnMut() -> I,
    mut op: impl FnMut(I) -> T,
) -> f64 {
    rec.scope(format!("probe.{span}"), Some(parent), |_, _| {
        let start = Instant::now();
        let mut busy = Duration::ZERO;
        let mut calls = 0u32;
        while start.elapsed() < BUDGET {
            let input = setup();
            let t = Instant::now();
            black_box(op(input));
            busy += t.elapsed();
            calls += 1;
        }
        busy.as_secs_f64() / f64::from(calls)
    })
}

fn flow_config(dst_host: u32) -> ConfigData {
    ConfigData::FlowRules(vec![FlowRuleSpec {
        priority: 10,
        dst_host,
        out_port: 2,
    }])
}

/// A block's worth of flow-rule transactions, different from every
/// earlier call's (a chain rejects a transaction it already holds).
fn fresh_txs(next_host: &mut u32) -> Vec<Transaction> {
    (0..64)
        .map(|i| {
            *next_host += 1;
            Transaction::new(
                RequestKind::PacketIn,
                i % 4,
                0,
                flow_config(*next_host).encode(),
            )
        })
        .collect()
}

fn crypto(rec: &mut Recorder, parent: SpanId, out: &mut Vec<Reading>) {
    let data = vec![0xABu8; 4096];
    let s = time_per_call(rec, parent, "crypto.sha256", || sha256::digest(&data));
    out.push(Reading {
        name: "crypto.sha256_mb_per_s",
        value: data.len() as f64 / 1e6 / s,
        unit: "MB/s",
    });
    let mut rng = DetRng::new(1);
    let keys = KeyPair::generate(&mut rng);
    let msg = b"curbbench probe message";
    let s = time_per_call(rec, parent, "crypto.schnorr_sign", || {
        keys.sign(msg, &mut rng)
    });
    out.push(Reading {
        name: "crypto.schnorr_sign_us",
        value: s * 1e6,
        unit: "us",
    });
    let sig = keys.sign(msg, &mut DetRng::new(2));
    let public = keys.public();
    let s = time_per_call(rec, parent, "crypto.schnorr_verify", || {
        public.verify(msg, &sig)
    });
    out.push(Reading {
        name: "crypto.schnorr_verify_us",
        value: s * 1e6,
        unit: "us",
    });
}

fn chain(rec: &mut Recorder, parent: SpanId, scratch: &Path, out: &mut Vec<Reading>) {
    let genesis = Block::genesis(b"probe");
    let mut host = 0;
    let s = time_per_call_with(
        rec,
        parent,
        "chain.block_build",
        || fresh_txs(&mut host),
        |txs| Block::next(&genesis, txs, 1),
    );
    out.push(Reading {
        name: "chain.block_build_us",
        value: s * 1e6,
        unit: "us",
    });

    // The chain and the block being built both borrow from the cell.
    let chain = std::cell::RefCell::new(Blockchain::with_genesis(b"probe"));
    let s = time_per_call_with(
        rec,
        parent,
        "chain.append",
        || Block::next(chain.borrow().tip(), fresh_txs(&mut host), 1),
        |block| chain.borrow_mut().append(block).expect("extends the tip"),
    );
    out.push(Reading {
        name: "chain.append_us",
        value: s * 1e6,
        unit: "us",
    });

    let record = vec![0x5Au8; 4096];
    let wal_dir = scratch.join("wal");
    let (wal, _) = Wal::open(&wal_dir, WalConfig::default()).expect("open probe WAL");
    let mut seq = 0u64;
    let s = time_per_call(rec, parent, "chain.wal_append", || {
        seq += 1;
        wal.append(seq, &record);
    });
    out.push(Reading {
        name: "chain.wal_append_us",
        value: s * 1e6,
        unit: "us",
    });
    let s = time_per_call(rec, parent, "chain.wal_sync", || {
        seq += 1;
        wal.append(seq, &record);
        wal.sync().expect("sync probe WAL")
    });
    out.push(Reading {
        name: "chain.wal_sync_ms",
        value: s * 1e3,
        unit: "ms",
    });
    drop(wal);

    let store = std::cell::RefCell::new(
        ChainStore::open(PersistConfig::new(scratch.join("store")), b"probe").expect("open store"),
    );
    let s = time_per_call_with(
        rec,
        parent,
        "chain.store_append",
        || Block::next(store.borrow().tip(), fresh_txs(&mut host), 1),
        |block| store.borrow_mut().append(block).expect("extends the tip"),
    );
    out.push(Reading {
        name: "chain.store_append_us",
        value: s * 1e6,
        unit: "us",
    });
}

fn payload_batch(n: usize) -> Batch<BytesPayload> {
    Batch(vec![BytesPayload(vec![7; PAYLOAD_BYTES]); n])
}

fn consensus(rec: &mut Recorder, parent: SpanId, out: &mut Vec<Reading>) {
    let mut msgs = 0;
    for (n, name) in [
        (1, "consensus.instance_us_b1"),
        (64, "consensus.instance_us_b64"),
    ] {
        let batch = payload_batch(n);
        let mut group = curb_consensus::Cluster::<Batch<BytesPayload>>::new(4);
        let s = time_per_call(rec, parent, &format!("consensus.instance.b{n}"), || {
            group.propose(batch.clone());
            msgs = group.run_to_quiescence();
        });
        out.push(Reading {
            name,
            value: s * 1e6,
            unit: "us",
        });
    }
    out.push(Reading {
        name: "consensus.msgs_per_instance",
        value: msgs as f64,
        unit: "count",
    });
}

fn net_frames(rec: &mut Recorder, parent: SpanId, out: &mut Vec<Reading>) {
    let payload = payload_batch(16);
    let msg = PbftMsg::PrePrepare {
        view: 0,
        seq: 1,
        digest: payload.digest(),
        payload,
    };
    let max_frame = 1 << 20;
    let mut body = Vec::new();
    let mut wire = Vec::new();
    let s = time_per_call(rec, parent, "net.frame_encode", || {
        body.clear();
        wire.clear();
        encode_msg_into(&msg, &mut body);
        write_frame(&mut wire, &body, max_frame).expect("frame fits")
    });
    out.push(Reading {
        name: "net.frame_encode_ns",
        value: s * 1e9,
        unit: "ns",
    });
    let mut decoder = FrameDecoder::new(max_frame);
    let s = time_per_call(rec, parent, "net.frame_decode", || {
        let mut decoded = None;
        decoder
            .feed(&wire, |frame| {
                decoded = decode_msg::<Batch<BytesPayload>>(frame).ok();
            })
            .expect("well-formed frame");
        decoded.expect("decodes")
    });
    out.push(Reading {
        name: "net.frame_decode_ns",
        value: s * 1e9,
        unit: "ns",
    });
}

/// Proposes on runner 0 and waits for its own delivery, repeatedly.
fn commit_loop(
    rec: &mut Recorder,
    parent: SpanId,
    span: &str,
    runners: &[RunnerHandle<BytesPayload>],
) -> f64 {
    let payload = BytesPayload(vec![7; PAYLOAD_BYTES]);
    let await_delivery = |r: &RunnerHandle<BytesPayload>| {
        r.decisions
            .recv_timeout(Duration::from_secs(10))
            .expect("group commits within 10 s")
    };
    // The first commit also pays connection set-up.
    runners[0].propose(payload.clone());
    for r in runners {
        await_delivery(r);
    }
    let s = time_per_call(rec, parent, span, || {
        runners[0].propose(payload.clone());
        await_delivery(&runners[0])
    });
    // Followers deliver everything too; do not leave it queued.
    for r in &runners[1..] {
        while r.decisions.try_recv().is_ok() {}
    }
    s
}

fn net_groups(rec: &mut Recorder, parent: SpanId, out: &mut Vec<Reading>) {
    let n = 4;
    let runners: Vec<RunnerHandle<BytesPayload>> =
        LoopbackTransport::<Batch<BytesPayload>>::group(n)
            .into_iter()
            .enumerate()
            .map(|(id, t)| NetRunner::spawn(Replica::new(id, n), t, RunnerConfig::default()))
            .collect();
    let s = commit_loop(rec, parent, "net.group_commit", &runners);
    out.push(Reading {
        name: "net.group_commit_us",
        value: s * 1e6,
        unit: "us",
    });
    for r in runners {
        r.join();
    }

    // The same group over the epoll reactor, for the transport's own
    // histograms: the cluster's backbone publishes them into a
    // registry that is private to each node, so they are read here.
    let registry = Registry::new();
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind probe listener"))
        .collect();
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().expect("probe listener address"))
        .collect();
    let runners: Vec<RunnerHandle<BytesPayload>> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            let transport: ReactorTransport<Batch<BytesPayload>> =
                ReactorTransport::bind_with_registry(
                    id,
                    listener,
                    addrs.clone(),
                    ReactorConfig::default(),
                    registry.clone(),
                )
                .expect("bind probe reactor");
            NetRunner::spawn(Replica::new(id, n), transport, RunnerConfig::default())
        })
        .collect();
    // The reactor times its reads, writes and waits only while
    // tracing is on.
    curb_telemetry::enable();
    commit_loop(rec, parent, "net.reactor_commit", &runners);
    for r in runners {
        r.join();
    }
    curb_telemetry::disable();
    curb_telemetry::drain();
    let p50 = |name| histogram_p50(&registry, name).unwrap_or(0.0);
    out.push(Reading {
        name: "net.write_p50_us",
        value: p50("net.write_ns") / 1e3,
        unit: "us",
    });
    out.push(Reading {
        name: "net.poll_wait_p50_us",
        value: p50("net.poll_wait_ns") / 1e3,
        unit: "us",
    });
    out.push(Reading {
        name: "net.events_per_wake",
        value: p50("net.events_per_wake"),
        unit: "count",
    });
    let registries = [registry];
    for (name, counter) in [
        ("net.backpressure_drops", "net.backpressure_drops"),
        ("net.decode_copy_bytes", "net.decode_copy_bytes"),
    ] {
        out.push(Reading {
            name,
            value: counter_sum(&registries, counter) as f64,
            unit: if name.ends_with("bytes") {
                "B"
            } else {
                "count"
            },
        });
    }
}

fn cluster_wire(rec: &mut Recorder, parent: SpanId, out: &mut Vec<Reading>) {
    let reply = SbMsg::Reply {
        controller: 3,
        key: RequestKey {
            switch: SwitchId(2),
            seq: 77,
        },
        config: flow_config(9),
        ctx: TraceCtx::mint(2, 77),
    };
    let s = time_per_call(rec, parent, "cluster.wire_encode", || reply.encode());
    out.push(Reading {
        name: "cluster.wire_encode_ns",
        value: s * 1e9,
        unit: "ns",
    });
    let bytes = reply.encode();
    let s = time_per_call(rec, parent, "cluster.wire_decode", || {
        SbMsg::decode(&bytes).expect("decodes")
    });
    out.push(Reading {
        name: "cluster.wire_decode_ns",
        value: s * 1e9,
        unit: "ns",
    });
}

fn assign(rec: &mut Recorder, parent: SpanId, out: &mut Vec<Reading>) {
    let config = CurbConfig {
        controller_capacity: 10,
        ..CurbConfig::default()
    };
    let topo = internet2().with_switch_count(20);
    let shared = bootstrap_pinned(&topo, config, 1)
        .expect("Internet2 bootstrap")
        .shared;
    let model = shared.base_model();
    let options = shared.initial_options();
    let s = time_per_call(rec, parent, "assign.solve", || {
        solve(&model, &options).expect("Internet2 assignment is feasible")
    });
    out.push(Reading {
        name: "assign.solve_ms",
        value: s * 1e3,
        unit: "ms",
    });
}

fn core_and_sim(rec: &mut Recorder, parent: SpanId, out: &mut Vec<Reading>) {
    let topo = internet2();
    let mut net = CurbNetwork::new(&topo, CurbConfig::default()).expect("Internet2 network");
    let mut round_ms = 0.0;
    let s = time_per_call(rec, parent, "core.sim_round", || {
        let report = net.run_round();
        round_ms = report
            .avg_latency
            .expect("the simulated round accepts requests")
            .as_secs_f64()
            * 1e3;
    });
    out.push(Reading {
        name: "core.sim_rounds_per_s",
        value: 1.0 / s,
        unit: "1/s",
    });
    out.push(Reading {
        name: "core.sim_round_ms",
        value: round_ms,
        unit: "ms",
    });

    let config = flow_config(9);
    let s = time_per_call(rec, parent, "core.reply_match", || {
        let mut matcher = ReplyMatcher::new(2, 300_000_000);
        matcher.on_reply(0, config.clone(), 1);
        matcher.on_reply(1, config.clone(), 2)
    });
    out.push(Reading {
        name: "core.reply_match_ns",
        value: s * 1e9 / 2.0,
        unit: "ns",
    });
}

fn sdn(rec: &mut Recorder, parent: SpanId, out: &mut Vec<Reading>) {
    // A table as full as the workloads make it: one entry per host.
    let entry = |host: u32| {
        FlowEntry::new(
            10,
            FlowMatch::dst_host(HostId(host)),
            vec![FlowAction::Output(PortId(2))],
        )
    };
    let mut table = FlowTable::new();
    for host in 1..=HOSTS {
        table.add(entry(host));
    }
    let mut host = 0;
    let s = time_per_call(rec, parent, "sdn.flow_install", || {
        host = host % HOSTS + 1;
        table.add(entry(host));
    });
    out.push(Reading {
        name: "sdn.flow_install_ns",
        value: s * 1e9,
        unit: "ns",
    });
    let s = time_per_call(rec, parent, "sdn.flow_lookup", || {
        host = host % HOSTS + 1;
        table
            .lookup(&Packet::new(HostId(0), HostId(host)))
            .expect("every host has an entry")
            .len()
    });
    out.push(Reading {
        name: "sdn.flow_lookup_ns",
        value: s * 1e9,
        unit: "ns",
    });
}

fn telemetry(rec: &mut Recorder, parent: SpanId, out: &mut Vec<Reading>) {
    curb_telemetry::enable();
    let s = time_per_call(rec, parent, "telemetry.span_record", || {
        curb_telemetry::record_span("curbbench.probe", 1, 2, -1, -1)
    });
    curb_telemetry::disable();
    // The probe's own spans are not part of any launch's trace.
    curb_telemetry::drain();
    out.push(Reading {
        name: "telemetry.span_record_ns",
        value: s * 1e9,
        unit: "ns",
    });
}

/// Runs every probe. `scratch` is a directory the storage probes may
/// fill; it is removed afterwards.
pub fn run_all(rec: &mut Recorder, parent: SpanId, scratch: &Path) -> Vec<Reading> {
    let mut out = Vec::new();
    let _ = std::fs::remove_dir_all(scratch);
    crypto(rec, parent, &mut out);
    chain(rec, parent, scratch, &mut out);
    consensus(rec, parent, &mut out);
    net_frames(rec, parent, &mut out);
    net_groups(rec, parent, &mut out);
    cluster_wire(rec, parent, &mut out);
    assign(rec, parent, &mut out);
    core_and_sim(rec, parent, &mut out);
    sdn(rec, parent, &mut out);
    telemetry(rec, parent, &mut out);
    let _ = std::fs::remove_dir_all(scratch);
    out
}
