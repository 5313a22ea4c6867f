//! Launching the cluster, offering a workload's requests and
//! collecting what the s-agents accepted.
//!
//! The load generator is this module: the collector on the calling
//! thread and, for open loops, one injector thread. Everything else
//! running in the process belongs to the program under test.

use crate::procstat;
use crate::stats::{median, percentile, window_of};
use crate::workload::{open_schedule, ClosedStreams, Load, Request, Workload, TOPOLOGY_SEED};
use curb_cluster::{bootstrap_pinned, AgentEvent, AgentInjector, Cluster};
use curb_core::{ConfigData, SwitchId};
use curb_graph::synthetic;
use curb_telemetry::Registry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long after the last window outstanding requests may still be
/// accepted before they count as failed.
const DRAIN: Duration = Duration::from_secs(5);

/// A launch whose first requests are not accepted within this long is
/// wedged and is shut down and repeated. Today's runtime has a start-up
/// race: a node's transport is live before its node thread has opened
/// its consensus lanes, and a PRE-PREPARE that arrives in between is
/// dropped without retransmission, after which in-order delivery holds
/// the lane's every later instance back for good. A healthy launch
/// serves its first requests in 0.03-0.2 s; the agents' own re-raise
/// comes after 2 s and cannot unwedge a lane.
const WEDGE_LIMIT: Duration = Duration::from_secs(3);

/// Launches tried before a measured run gives up.
const LAUNCH_TRIES: usize = 5;

/// Longest the `byz_open` prelude may take to rotate the liar out.
const ROTATION_DEADLINE: Duration = Duration::from_secs(30);

/// The generator did not keep its schedule, so the run is not a
/// measurement of the program: in the median window, the *median* of
/// (raised − due) is above this many microseconds. A generator that
/// keeps up raises a request about 80 µs after it is due (the sleep's
/// overshoot). The tail says nothing about the generator on this
/// host: the injector's wake-up queues behind the cluster's ~100
/// threads, and a stalled vCPU holds it for 15–100 ms, so a healthy
/// window's p99 is anywhere from 0.3 to 25 ms (NOISE.md). It is
/// reported as `gen.inject_lag_p99_us`, and it is already inside every
/// round time, which is measured from the instant the request was due.
pub const MAX_INJECT_LAG_P50_US: f64 = 1_000.0;

/// Bootstraps and launches `w`'s deployment, injected delays included.
pub fn launch(w: &Workload) -> Cluster {
    let topo = synthetic(w.controllers, w.switches, TOPOLOGY_SEED);
    let cfg = w.cluster_config();
    let boot = bootstrap_pinned(&topo, cfg.curb.clone(), w.groups).expect("pinned bootstrap");
    let cluster = Cluster::launch_with(boot, &cfg);
    if w.wan_delays {
        let plane = cluster.fault_plane();
        for a in 0..w.controllers {
            for b in a + 1..w.controllers {
                plane.slow_link(a, b, wan_delay(&cluster, a, b));
            }
        }
    }
    cluster
}

/// The one-way delay injected between controllers `a` and `b`: the
/// topology's propagation delay between their sites.
fn wan_delay(cluster: &Cluster, a: usize, b: usize) -> Duration {
    Duration::from_secs_f64(cluster.shared.cc_delay_ms[a][b] / 1e3)
}

/// One cold cycle: bootstrap, launch, and the first accepted flow rule
/// on every switch. Returns the time that took (shutdown excluded), or
/// `None` when the launch wedged (see [`WEDGE_LIMIT`]).
pub fn cold_cycle(w: &Workload) -> Option<Duration> {
    let t0 = Instant::now();
    let cluster = launch(w);
    let mut col = Collector::new(w.switches);
    let mut streams = ClosedStreams::new(TOPOLOGY_SEED, w.switches);
    let all: Vec<usize> = (0..w.switches).collect();
    let served = raise_and_wait(&cluster, &all, &mut streams, &mut col, WEDGE_LIMIT, |c| {
        c.outstanding == 0
    });
    let took = t0.elapsed();
    cluster.shutdown();
    served.then_some(took)
}

/// The shape of one measured launch.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Request-stream seed.
    pub seed: u64,
    /// Discarded lead-in.
    pub warmup: Duration,
    /// Length of one window.
    pub window: Duration,
    /// Number of windows.
    pub windows: usize,
}

impl Plan {
    /// Warm-up plus every window.
    pub fn measured(&self) -> Duration {
        self.warmup + self.window * self.windows as u32
    }
}

/// What one window saw.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Length of the window, seconds.
    pub length_s: f64,
    /// Flow-rule rounds accepted in the window.
    pub rounds: usize,
    /// Accept rate within the window: rounds after the first, over
    /// the time from the first accept to the last.
    pub rate_per_s: f64,
    /// Median due → accept time of those rounds, ms.
    pub p50_ms: f64,
    /// 95th percentile of the same, ms.
    pub p95_ms: f64,
    /// Process CPU seconds (user + system) spent during the window.
    pub cpu_s: f64,
    /// CPU seconds the hypervisor withheld from the machine during
    /// the window, summed over its CPUs.
    pub steal_s: f64,
    /// Median of how late the generator raised the requests due in
    /// the window, µs (0 for a closed loop, which raises a request the
    /// moment it is due).
    pub lag_p50_us: f64,
    /// 99th percentile of the same.
    pub lag_p99_us: f64,
}

/// Everything one measured launch produced.
pub struct Outcome {
    /// Per-window statistics.
    pub per_window: Vec<Window>,
    /// Requests raised, warm-up included.
    pub attempted: u64,
    /// Requests not accepted by the end of the drain.
    pub failed: u64,
    /// Accepts beyond the first for one request (an agent re-raised it
    /// and both copies committed).
    pub duplicates: u64,
    /// 99th percentile of every measured round, pooled (information
    /// only: the windows do not hold enough samples to gate it).
    pub pooled_p99_ms: f64,
    /// Median over windows of the per-window median of how late the
    /// generator raised a request, µs.
    pub inject_lag_p50_us: f64,
    /// Median over windows of the per-window p99 of the same.
    pub inject_lag_p99_us: f64,
    /// First `Byzantine` event → last `EpochAdopted` event, ms.
    pub reass_ms: Option<f64>,
    /// OS threads of the process while the cluster ran.
    pub threads: u64,
    /// The config accepted for each `(switch, dst_host)`.
    pub configs: HashMap<(usize, u32), ConfigData>,
    /// Every request of the measured load, offsets from `t0_clock_ns`.
    pub ops: Vec<Op>,
    /// The telemetry clock's reading when the measured load started,
    /// which places `ops` and the windows among the program's spans.
    pub t0_clock_ns: u64,
    /// Why the run's outputs are wrong; empty when they are right.
    pub violations: Vec<String>,
    /// The controllers' metric registries, by controller id.
    pub registries: Vec<Registry>,
}

/// A window is disturbed when the hypervisor withheld more than this
/// share of the machine's CPU time during it. An undisturbed window on
/// the development host loses 0–0.3 %; while a neighbour is busy it is
/// 5–25 %, and every workload slows by about as much (NOISE.md).
const MAX_STEAL_SHARE: f64 = 0.02;

/// Fewest undisturbed windows the estimator settles for; with fewer
/// it has no choice but to use every window.
const MIN_QUIET_WINDOWS: usize = 3;

/// The windows the estimator uses: the undisturbed ones, or all of
/// them when fewer than [`MIN_QUIET_WINDOWS`] are.
fn quiet(windows: &[Window]) -> Vec<&Window> {
    let cpus = thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let quiet: Vec<&Window> = windows
        .iter()
        .filter(|w| w.steal_s <= MAX_STEAL_SHARE * cpus * w.length_s)
        .collect();
    if quiet.len() >= MIN_QUIET_WINDOWS {
        quiet
    } else {
        windows.iter().collect()
    }
}

/// The estimator: the median over the undisturbed windows of a
/// per-window statistic.
fn over_windows(windows: &[Window], f: impl Fn(&Window) -> f64) -> f64 {
    let per: Vec<f64> = quiet(windows).into_iter().map(f).collect();
    median(&per).expect("at least one window")
}

impl Outcome {
    /// How many windows the estimator used.
    pub fn quiet_windows(&self) -> usize {
        quiet(&self.per_window).len()
    }

    /// Median over windows of the per-window median round time, ms.
    pub fn round_p50_ms(&self) -> f64 {
        over_windows(&self.per_window, |w| w.p50_ms)
    }

    /// Median over windows of the per-window p95 round time, ms.
    pub fn round_p95_ms(&self) -> f64 {
        over_windows(&self.per_window, |w| w.p95_ms)
    }

    /// Median over windows of accepted rounds per second.
    pub fn rounds_per_s(&self) -> f64 {
        over_windows(&self.per_window, |w| w.rate_per_s)
    }

    /// Median over windows of process CPU per accepted round, µs.
    pub fn cpu_us_per_round(&self) -> f64 {
        over_windows(&self.per_window, |w| w.cpu_s * 1e6 / w.rounds.max(1) as f64)
    }
}

/// A raised request and when it was accepted.
pub struct Op {
    /// The request.
    pub req: Request,
    /// When its flow rule was accepted, if it was.
    pub accepted_ns: Option<u64>,
}

/// Everything the collector learns from the agents' event stream.
///
/// Accepted flow rules are matched back to the requests that asked
/// for them. A request is identified by `(switch, dst_host)`; an
/// agent's own re-raise of a timed-out request carries the same pair,
/// so it counts as the same operation.
struct Collector {
    ops: Vec<Op>,
    /// Unaccepted requests per pair, oldest first.
    waiting: HashMap<(usize, u32), VecDeque<usize>>,
    outstanding: usize,
    configs: HashMap<(usize, u32), ConfigData>,
    duplicates: u64,
    violations: Vec<String>,
    accused: BTreeSet<usize>,
    first_flag: Option<Instant>,
    last_adopt: Option<Instant>,
    /// `EpochAdopted` events per switch.
    adopted: Vec<u32>,
}

impl Collector {
    fn new(switches: usize) -> Collector {
        Collector {
            ops: Vec::new(),
            waiting: HashMap::new(),
            outstanding: 0,
            configs: HashMap::new(),
            duplicates: 0,
            violations: Vec::new(),
            accused: BTreeSet::new(),
            first_flag: None,
            last_adopt: None,
            adopted: vec![0; switches],
        }
    }

    fn raise(&mut self, req: Request) {
        self.waiting
            .entry((req.switch, req.dst_host))
            .or_default()
            .push_back(self.ops.len());
        self.outstanding += 1;
        self.ops.push(Op {
            req,
            accepted_ns: None,
        });
    }

    fn violation(&mut self, what: String) {
        // The first few say what went wrong; the rest only repeat it.
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    /// Takes one agent event. Returns the request an accepted flow
    /// rule answers, or `None` for any other event, a duplicate accept
    /// or an unexpected one. `raised` tells whether a scheduled
    /// request has been raised yet.
    fn on_event(
        &mut self,
        cluster: &Cluster,
        switch: usize,
        event: AgentEvent,
        now_ns: u64,
        raised: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let config = match event {
            AgentEvent::Accepted { config, .. } => config,
            AgentEvent::Byzantine { accused } => {
                self.first_flag.get_or_insert_with(Instant::now);
                self.accused.extend(accused);
                return None;
            }
            AgentEvent::EpochAdopted { .. } => {
                self.adopted[switch] += 1;
                self.last_adopt = Some(Instant::now());
                return None;
            }
            AgentEvent::ReassIssued { .. } => return None,
        };
        let ConfigData::FlowRules(rules) = &config else {
            return None; // RE-ASS rounds are control traffic.
        };
        let [rule] = rules.as_slice() else {
            self.violation(format!("switch {switch}: accepted {} rules", rules.len()));
            return None;
        };
        let pair = (switch, rule.dst_host);
        let dst = cluster.shared.dst_switch(rule.dst_host);
        let want_port = cluster.shared.next_hop_port[switch][dst.0];
        if rule.out_port != want_port {
            self.violation(format!(
                "switch {switch} host {}: port {} accepted, routing table says {want_port}",
                rule.dst_host, rule.out_port
            ));
        }
        match self.configs.get(&pair) {
            Some(seen) if *seen != config => {
                self.violation(format!("{pair:?}: two different configs accepted"));
            }
            Some(_) => {}
            None => {
                self.configs.insert(pair, config.clone());
            }
        }
        let Some(queue) = self.waiting.get_mut(&pair) else {
            self.violation(format!("{pair:?}: accepted but never requested"));
            return None;
        };
        match queue.front() {
            Some(&idx) if raised(idx) => {
                queue.pop_front();
                self.outstanding -= 1;
                self.ops[idx].accepted_ns = Some(now_ns);
                Some(idx)
            }
            _ => {
                self.duplicates += 1;
                None
            }
        }
    }

    /// Forgets the requests raised so far (their verdicts stay) and
    /// returns how many there were, how many were never accepted, and
    /// the requests themselves.
    fn settle(&mut self) -> (u64, u64, Vec<Op>) {
        let failed = self.outstanding as u64;
        let attempted = self.ops.len() as u64;
        self.waiting.clear();
        self.outstanding = 0;
        (attempted, failed, std::mem::take(&mut self.ops))
    }
}

/// Raises one request on each of `switches`, then takes events until
/// `done` holds. Returns `false` if that takes longer than `limit`.
fn raise_and_wait(
    cluster: &Cluster,
    switches: &[usize],
    streams: &mut ClosedStreams,
    col: &mut Collector,
    limit: Duration,
    done: impl Fn(&Collector) -> bool,
) -> bool {
    let start = Instant::now();
    for &s in switches {
        let dst_host = streams.next(s);
        col.raise(Request {
            due_ns: 0,
            switch: s,
            dst_host,
        });
        cluster.pkt_in(SwitchId(s), dst_host);
    }
    while !done(col) {
        let Some(left) = limit.checked_sub(start.elapsed()) else {
            return false;
        };
        if let Ok((switch, event)) = cluster.events.recv_timeout(left) {
            col.on_event(cluster, switch.0, event, 0, |_| true);
        }
    }
    true
}

/// Launches `w` and has it serve its first requests, repeating a
/// wedged launch. The first requests are one per switch — or, with a
/// lying controller, one from a single switch of the liar's group:
/// that agent sees the contradicting REPLY and accuses, and nothing
/// else is in flight when the RE-ASS it raises rotates the epoch.
fn launch_serving(w: &Workload, streams: &mut ClosedStreams) -> (Cluster, Collector) {
    for attempt in 1..=LAUNCH_TRIES {
        let cluster = launch(w);
        let mut col = Collector::new(w.switches);
        let first: Vec<usize> = match w.liar {
            Some(liar) => (0..w.switches)
                .find(|&s| cluster.epoch0.ctrl_list(SwitchId(s)).contains(&liar))
                .into_iter()
                .collect(),
            None => (0..w.switches).collect(),
        };
        assert!(!first.is_empty(), "the liar serves no switch");
        if raise_and_wait(&cluster, &first, streams, &mut col, WEDGE_LIMIT, |c| {
            c.outstanding == 0
        }) {
            return (cluster, col);
        }
        eprintln!(
            "curbbench: {} launch {attempt} wedged: first requests not accepted within \
             {WEDGE_LIMIT:?}; launching again",
            w.name
        );
        cluster.shutdown();
    }
    panic!("{}: {LAUNCH_TRIES} launches in a row wedged", w.name);
}

/// Waits until the accusation raised during the first request has
/// rotated the liar out and re-homed every agent, then has every
/// switch raise a request on the rotated epoch.
///
/// The measured load is not offered *through* the rotation because
/// today's runtime does not survive that reliably: a request or a
/// second RE-ASS that straddles the rotation is lost, times out after
/// 2 s, and the audit that follows accuses honest controllers (see
/// NOISE.md).
fn rotate_out_liar(
    cluster: &Cluster,
    w: &Workload,
    streams: &mut ClosedStreams,
    col: &mut Collector,
) {
    let all: Vec<usize> = (0..w.switches).collect();
    let rotated = raise_and_wait(cluster, &[], streams, col, ROTATION_DEADLINE, |c| {
        c.adopted.iter().all(|&n| n > 0)
    });
    if !rotated
        || !raise_and_wait(cluster, &all, streams, col, ROTATION_DEADLINE, |c| {
            c.outstanding == 0
        })
    {
        col.violation(format!(
            "liar not rotated out within {ROTATION_DEADLINE:?}: adoptions per switch {:?}, \
             {} requests outstanding",
            col.adopted, col.outstanding
        ));
    }
}

/// The injector half of an open loop: raises each request when it is
/// due and records when it actually did.
fn spawn_open_injector(
    injectors: Vec<AgentInjector>,
    schedule: Vec<Request>,
    raised_ns: Arc<Vec<AtomicU64>>,
    t0: Instant,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("curbbench-inject".into())
        .spawn(move || {
            for (i, req) in schedule.iter().enumerate() {
                let due = t0 + Duration::from_nanos(req.due_ns);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                // Publish before raising: the collector only matches an
                // accept to a request it can see was raised. Offsets are
                // stored +1 so that 0 means "not yet".
                let at = t0.elapsed().as_nanos() as u64;
                raised_ns[i].store(at + 1, Ordering::SeqCst);
                injectors[req.switch].pkt_in(req.dst_host);
            }
        })
        .expect("spawn injector")
}

/// Runs one measured launch of `w` under `plan`, from bootstrap to
/// shutdown.
pub fn run(w: &Workload, plan: &Plan) -> Outcome {
    let mut streams = ClosedStreams::new(plan.seed, w.switches);
    let (cluster, mut col) = launch_serving(w, &mut streams);
    if w.wan_delays {
        let delays: Vec<f64> = (0..w.controllers)
            .flat_map(|a| (a + 1..w.controllers).map(move |b| (a, b)))
            .map(|(a, b)| wan_delay(&cluster, a, b).as_secs_f64() * 1e3)
            .collect();
        eprintln!(
            "curbbench: {} injects {:.1}-{:.1} ms one-way between controller pairs (median {:.1} ms)",
            w.name,
            delays.iter().copied().fold(f64::INFINITY, f64::min),
            delays.iter().copied().fold(0.0, f64::max),
            median(&delays).expect("controller pairs"),
        );
    }
    if w.liar.is_some() {
        rotate_out_liar(&cluster, w, &mut streams, &mut col);
    }
    let (attempted, failed, _) = col.settle();

    let t0 = Instant::now();
    let t0_clock_ns = curb_telemetry::now_nanos();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let measured_ns = plan.measured().as_nanos() as u64;

    // Open loops know every request up front; closed loops raise them
    // as accepts come back.
    let mut raised_ns: Arc<Vec<AtomicU64>> = Arc::new(Vec::new());
    let mut injector = None;
    match w.load {
        Load::Open { rate_hz, process } => {
            let schedule = open_schedule(plan.seed, w.switches, rate_hz, process, plan.measured());
            raised_ns = Arc::new(schedule.iter().map(|_| AtomicU64::new(0)).collect());
            for req in &schedule {
                col.raise(*req);
            }
            injector = Some(spawn_open_injector(
                cluster.injectors(),
                schedule,
                Arc::clone(&raised_ns),
                t0,
            ));
        }
        Load::Closed { outstanding } => {
            for _ in 0..outstanding {
                for s in 0..w.switches {
                    let dst_host = streams.next(s);
                    col.raise(Request {
                        due_ns: now_ns(),
                        switch: s,
                        dst_host,
                    });
                    cluster.pkt_in(SwitchId(s), dst_host);
                }
            }
        }
    }
    let closed = matches!(w.load, Load::Closed { .. });

    // CPU is sampled at every window boundary, by this thread.
    let boundary = |k: usize| plan.warmup + plan.window * k as u32;
    let mut cpu_at: Vec<(f64, f64)> = Vec::with_capacity(plan.windows + 1);
    let mut threads = procstat::threads();
    let drain_end = plan.measured() + DRAIN;
    loop {
        let elapsed = t0.elapsed();
        while cpu_at.len() <= plan.windows && elapsed >= boundary(cpu_at.len()) {
            cpu_at.push((procstat::cpu_seconds(), procstat::steal_seconds()));
            threads = threads.max(procstat::threads());
        }
        let wake = if cpu_at.len() <= plan.windows {
            boundary(cpu_at.len())
        } else if col.outstanding == 0 || elapsed >= drain_end {
            break;
        } else {
            drain_end
        };
        let Ok((switch, event)) = cluster.events.recv_timeout(wake.saturating_sub(elapsed)) else {
            continue;
        };
        let at = now_ns();
        let raised = |idx: usize| closed || raised_ns[idx].load(Ordering::SeqCst) != 0;
        let answered = col.on_event(&cluster, switch.0, event, at, raised);
        if answered.is_some() && closed && at < measured_ns {
            let dst_host = streams.next(switch.0);
            col.raise(Request {
                due_ns: now_ns(),
                switch: switch.0,
                dst_host,
            });
            cluster.pkt_in(switch, dst_host);
        }
    }
    if let Some(handle) = injector {
        // The schedule ends with the last window, so it has been
        // raised in full by now.
        handle.join().expect("injector thread");
    }

    let raised_at = |idx: usize| (!closed).then(|| raised_ns[idx].load(Ordering::SeqCst) - 1);
    let (per_window, pooled_p99_ms) = window_stats(plan, &col.ops, raised_at, &cpu_at);

    if let Some(k) = per_window.iter().position(|w| w.rounds == 0) {
        col.violation(format!("window {k} accepted no round"));
    }
    if let Err(why) = heights_converge(&cluster, w) {
        col.violation(why);
    }
    match w.liar {
        Some(liar) if col.accused.iter().ne([&liar]) => {
            col.violation(format!("accused {:?}, the liar is {liar}", col.accused));
        }
        None if !col.accused.is_empty() => {
            col.violation(format!("accused {:?}, nobody lies", col.accused));
        }
        _ => {}
    }
    let (load_attempted, load_failed, ops) = col.settle();
    let registries = cluster.registries.clone();
    // Joining the nodes and agents also flushes their span buffers.
    cluster.shutdown();
    let inject_lag_p50_us = over_windows(&per_window, |w| w.lag_p50_us);
    let inject_lag_p99_us = over_windows(&per_window, |w| w.lag_p99_us);

    Outcome {
        per_window,
        attempted: attempted + load_attempted,
        failed: failed + load_failed,
        duplicates: col.duplicates,
        pooled_p99_ms,
        inject_lag_p50_us,
        inject_lag_p99_us,
        reass_ms: col
            .first_flag
            .zip(col.last_adopt)
            .map(|(flag, adopt)| adopt.saturating_duration_since(flag).as_secs_f64() * 1e3),
        threads,
        configs: col.configs,
        ops,
        t0_clock_ns,
        violations: col.violations,
        registries,
    }
}

/// Per-window statistics, and the p99 of every windowed round pooled:
/// rounds by the instant they were accepted, generator lag by the
/// instant the request was due. `raised_at`
/// gives the offset at which an open loop raised request `idx`
/// (`None` for a closed loop, which raises a request when it is due);
/// `cpu_at` holds the process's CPU seconds and the machine's steal
/// seconds at each boundary.
fn window_stats(
    plan: &Plan,
    ops: &[Op],
    raised_at: impl Fn(usize) -> Option<u64>,
    cpu_at: &[(f64, f64)],
) -> (Vec<Window>, f64) {
    let (warmup_ns, window_ns) = (plan.warmup.as_nanos() as u64, plan.window.as_nanos() as u64);
    let window = |t_ns| window_of(t_ns, warmup_ns, window_ns, plan.windows);
    let mut latency_ms: Vec<Vec<f64>> = vec![Vec::new(); plan.windows];
    let mut lag_us: Vec<Vec<f64>> = vec![Vec::new(); plan.windows];
    // First and last accept of each window, for its rate.
    let mut accepts: Vec<(u64, u64)> = vec![(u64::MAX, 0); plan.windows];
    for (idx, op) in ops.iter().enumerate() {
        if let (Some(at), Some(k)) = (raised_at(idx), window(op.req.due_ns)) {
            lag_us[k].push(at.saturating_sub(op.req.due_ns) as f64 / 1e3);
        }
        if let Some((accepted_ns, k)) = op.accepted_ns.and_then(|t| Some((t, window(t)?))) {
            latency_ms[k].push(accepted_ns.saturating_sub(op.req.due_ns) as f64 / 1e6);
            let (first, last) = accepts[k];
            accepts[k] = (first.min(accepted_ns), last.max(accepted_ns));
        }
    }
    let mut pooled: Vec<f64> = Vec::new();
    let windows = (0..plan.windows)
        .map(|k| {
            let (lat, lag) = (&mut latency_ms[k], &mut lag_us[k]);
            lat.sort_by(f64::total_cmp);
            lag.sort_by(f64::total_cmp);
            pooled.extend_from_slice(lat);
            let (first, last) = accepts[k];
            let (before, after) = (cpu_at[k], cpu_at[k + 1]);
            Window {
                length_s: plan.window.as_secs_f64(),
                rounds: lat.len(),
                rate_per_s: if last > first {
                    (lat.len() - 1) as f64 * 1e9 / (last - first) as f64
                } else {
                    0.0
                },
                p50_ms: percentile(lat, 0.50).unwrap_or(f64::NAN),
                p95_ms: percentile(lat, 0.95).unwrap_or(f64::NAN),
                cpu_s: after.0 - before.0,
                steal_s: after.1 - before.1,
                lag_p50_us: percentile(lag, 0.50).unwrap_or(0.0),
                lag_p99_us: percentile(lag, 0.99).unwrap_or(0.0),
            }
        })
        .collect();
    pooled.sort_by(f64::total_cmp);
    (windows, percentile(&pooled, 0.99).unwrap_or(f64::NAN))
}

/// After the drain every honest node must report the same chain
/// height (non-members adopt blocks on `f + 1` announcements, so they
/// may trail by a moment).
fn heights_converge(cluster: &Cluster, w: &Workload) -> Result<(), String> {
    let heights = || -> Vec<u64> {
        cluster
            .nodes
            .iter()
            .filter(|n| Some(n.id) != w.liar)
            .map(|n| n.probe.height.load(Ordering::Relaxed))
            .collect()
    };
    let deadline = Instant::now() + DRAIN;
    loop {
        let h = heights();
        if h.iter().all(|&x| x == h[0]) {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "honest chain heights diverge after the drain: {h:?}"
            ));
        }
        thread::sleep(Duration::from_millis(10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_estimator_skips_disturbed_windows_while_enough_are_quiet() {
        let window = |p50_ms: f64, steal_s: f64| Window {
            length_s: 1.0,
            p50_ms,
            steal_s,
            ..Window::default()
        };
        // Half of a one-second window stolen is disturbed on any host.
        let mut windows = vec![
            window(20.0, 0.0),
            window(35.0, 0.5),
            window(21.0, 0.0),
            window(36.0, 0.5),
            window(37.0, 0.5),
            window(22.0, 0.0),
            window(38.0, 0.5),
        ];
        assert_eq!(over_windows(&windows, |w| w.p50_ms), 21.0);
        // With two quiet windows left there is nothing to prefer.
        windows[0].steal_s = 0.5;
        assert_eq!(over_windows(&windows, |w| w.p50_ms), 35.0);
    }

    #[test]
    fn window_stats_bucket_by_accept_and_lag_by_due() {
        let plan = Plan {
            seed: 0,
            warmup: Duration::from_secs(1),
            window: Duration::from_secs(1),
            windows: 2,
        };
        let ms = |t: u64| t * 1_000_000;
        let op = |due_ms: u64, accepted_ms: Option<u64>| Op {
            req: Request {
                due_ns: ms(due_ms),
                switch: 0,
                dst_host: 1,
            },
            accepted_ns: accepted_ms.map(ms),
        };
        let ops = [
            op(500, Some(900)),   // warm-up: counted nowhere
            op(990, Some(1_010)), // due in warm-up, accepted in window 0
            op(1_100, Some(1_130)),
            op(1_500, Some(1_510)),
            op(1_900, Some(2_100)), // due in window 0, accepted in window 1
            op(2_200, None),        // failed
            op(2_300, Some(2_350)),
            op(2_900, Some(3_050)), // accepted after the last window
        ];
        // Every request was raised 2 ms late.
        let raised_at = |idx: usize| Some(ops[idx].req.due_ns + ms(2));
        let cpu_at = [(1.0, 7.0), (1.75, 7.0), (2.75, 7.5)];
        let (w, p99) = window_stats(&plan, &ops, raised_at, &cpu_at);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].rounds, w[1].rounds), (3, 2));
        assert_eq!((w[0].p50_ms, w[0].p95_ms), (20.0, 30.0));
        assert_eq!(w[1].p50_ms, 50.0);
        // Two rounds after the first, 500 ms from first accept to last.
        assert_eq!(w[0].rate_per_s, 4.0);
        assert_eq!((w[0].cpu_s, w[1].cpu_s), (0.75, 1.0));
        assert_eq!((w[0].steal_s, w[1].steal_s), (0.0, 0.5));
        assert_eq!((w[0].lag_p50_us, w[1].lag_p99_us), (2_000.0, 2_000.0));
        assert_eq!(p99, 200.0);
        // A closed loop has no lag to report.
        let (w, _) = window_stats(&plan, &ops, |_| None, &cpu_at);
        assert_eq!(w[0].lag_p99_us, 0.0);
    }
}
