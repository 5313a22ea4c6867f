//! The four workloads and the request streams their seeds produce.
//!
//! `--seed` fixes the request stream only (which switch asks for which
//! host, and when). Topology, key material and injected delays are
//! fixed parameters of a workload, so that runs with different seeds
//! measure the same system.

use curb_cluster::{build_schedule, ArrivalProcess, ClusterConfig, NodeBehavior, PhaseSpec};
use curb_crypto::rng::DetRng;
use std::time::Duration;

/// Seed of `curb_graph::synthetic` and of the cluster's key material.
pub const TOPOLOGY_SEED: u64 = 7;

/// Destination hosts are drawn from `1..=HOSTS`, so a switch's flow
/// table reaches a steady size during warm-up and the same
/// `(switch, host)` pair recurs within a run (the config-consistency
/// check needs repeats).
pub const HOSTS: u32 = 1024;

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Each switch keeps `outstanding` requests in flight; the next is
    /// raised when one is accepted.
    Closed {
        /// Requests in flight per switch.
        outstanding: usize,
    },
    /// Requests are raised on a seeded schedule at `rate_hz` across
    /// the fleet, whether or not earlier ones were accepted.
    Open {
        /// Offered rate, whole fleet.
        rate_hz: f64,
        /// Gap distribution.
        process: ArrivalProcess,
    },
}

/// One workload: a fixed deployment plus a load shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Controller sites of `synthetic(controllers, switches, _)`.
    pub controllers: usize,
    /// Switch sites (one s-agent each).
    pub switches: usize,
    /// Pinned controller groups of `3f + 1`; the rest are spares.
    pub groups: usize,
    /// Load shape.
    pub load: Load,
    /// Delay every controller pair by `shared.cc_delay_ms[a][b]`.
    pub wan_delays: bool,
    /// A controller that sends corrupted REPLYs from launch.
    pub liar: Option<usize>,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lan_closed",
        controllers: 8,
        switches: 4,
        groups: 2,
        load: Load::Closed { outstanding: 1 },
        wan_delays: false,
        liar: None,
    },
    Workload {
        name: "lan_sat",
        controllers: 4,
        switches: 4,
        groups: 1,
        load: Load::Closed { outstanding: 96 },
        wan_delays: false,
        liar: None,
    },
    Workload {
        name: "wan_open",
        controllers: 8,
        switches: 4,
        groups: 2,
        load: Load::Open {
            rate_hz: 300.0,
            process: ArrivalProcess::Fixed,
        },
        wan_delays: true,
        liar: None,
    },
    Workload {
        name: "byz_open",
        controllers: 12,
        switches: 4,
        groups: 2,
        load: Load::Open {
            rate_hz: 200.0,
            process: ArrivalProcess::Poisson,
        },
        wan_delays: false,
        liar: Some(1),
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The cluster configuration every launch of this workload uses.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::default();
        cfg.curb.seed = TOPOLOGY_SEED;
        cfg.curb.controller_capacity = 4;
        // The workloads measure the runtime, not CAP feasibility: open
        // the delay bounds so the byz_open re-solve always has an answer.
        cfg.curb.max_cs_delay_ms = 1e9;
        cfg.curb.max_cc_delay_ms = None;
        // No controller in any workload is slow, and this host stalls
        // the whole process for longer than the default 300 ms margin
        // a few times a minute. Lazy strikes are never forgiven, so by
        // the fifth stall the agents accuse honest controllers and the
        // cluster reassigns itself mid-measurement. Contradicting
        // replies (what byz_open's liar sends) still accuse at once.
        cfg.curb.lazy_margin = Duration::from_secs(3600);
        cfg.shards = 1;
        cfg.node.runner.checkpoint_interval = 8;
        if let Some(liar) = self.liar {
            cfg.behaviors = vec![NodeBehavior::Honest; self.controllers];
            cfg.behaviors[liar] = NodeBehavior::Lying;
        }
        cfg
    }
}

/// One request of a run: which switch raises a PACKET_IN for which
/// host, and (open loops) when it is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Offset from the measured launch's start at which the request is
    /// due; closed loops fill it in when they raise the request.
    pub due_ns: u64,
    /// The raising switch.
    pub switch: usize,
    /// The destination host, in `1..=HOSTS`.
    pub dst_host: u32,
}

/// The whole open-loop schedule for `duration`, a pure function of
/// the seed.
pub fn open_schedule(
    seed: u64,
    switches: usize,
    rate_hz: f64,
    process: ArrivalProcess,
    duration: Duration,
) -> Vec<Request> {
    let phase = PhaseSpec {
        duration_ms: duration.as_millis() as u64,
        rate_hz,
        process,
    };
    build_schedule(&[phase], switches, &mut DetRng::new(seed))
        .into_iter()
        .map(|a| Request {
            due_ns: a.at_ns,
            switch: a.switch.0,
            dst_host: 1 + a.dst_host % HOSTS,
        })
        .collect()
}

/// A closed loop's per-switch host streams: switch `s` asks for
/// `next(s)` each time one of its requests is accepted. Each switch
/// has its own fork of the seed's generator, so its stream does not
/// depend on the order accepts arrive in.
pub struct ClosedStreams {
    rngs: Vec<DetRng>,
}

impl ClosedStreams {
    /// Streams for `switches` switches under `seed`.
    pub fn new(seed: u64, switches: usize) -> ClosedStreams {
        let mut master = DetRng::new(seed);
        ClosedStreams {
            rngs: (0..switches).map(|_| master.fork()).collect(),
        }
    }

    /// The next destination host switch `switch` asks for.
    pub fn next(&mut self, switch: usize) -> u32 {
        self.rngs[switch].next_range(1, u64::from(HOSTS) + 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_open_schedule() {
        let make = |seed| {
            open_schedule(
                seed,
                4,
                200.0,
                ArrivalProcess::Poisson,
                Duration::from_secs(5),
            )
        };
        let (a, b, c) = (make(11), make(11), make(12));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.len() > 800 && a.len() < 1200, "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a
            .iter()
            .all(|r| r.switch < 4 && (1..=HOSTS).contains(&r.dst_host)));
    }

    #[test]
    fn same_seed_same_closed_streams_whatever_the_accept_order() {
        let mut a = ClosedStreams::new(5, 2);
        let mut b = ClosedStreams::new(5, 2);
        let a0: Vec<u32> = (0..4).map(|_| a.next(0)).collect();
        let a1: Vec<u32> = (0..4).map(|_| a.next(1)).collect();
        // b interleaves the switches the other way round.
        let mut b0 = Vec::new();
        let mut b1 = Vec::new();
        for _ in 0..4 {
            b1.push(b.next(1));
            b0.push(b.next(0));
        }
        assert_eq!((a0.clone(), a1), (b0, b1));
        let mut c = ClosedStreams::new(6, 2);
        let c0: Vec<u32> = (0..4).map(|_| c.next(0)).collect();
        assert_ne!(a0, c0);
        assert!(a0.iter().all(|h| (1..=HOSTS).contains(h)));
    }

    #[test]
    fn workloads_are_findable_and_well_formed() {
        for w in &WORKLOADS {
            assert_eq!(Workload::named(w.name), Some(w));
            assert!(
                w.groups * 4 <= w.controllers,
                "{}: f = 1 groups of 4",
                w.name
            );
            if let Some(liar) = w.liar {
                assert_eq!(w.cluster_config().behaviors[liar], NodeBehavior::Lying);
            }
        }
        assert_eq!(Workload::named("nope"), None);
    }
}
