//! Scenario runners shared by the figure binaries.

#![allow(clippy::field_reassign_with_default)]
use curb_assign::{solve, CapModel, Objective, SolveOptions};
use curb_core::{ControllerBehavior, CurbConfig, CurbNetwork, Report};
use curb_graph::{internet2, synthetic, DelayModel, Internet2};
use std::time::Duration;

/// Shortest-path delay matrices (ms) of the Internet2 topology:
/// `(controller-to-switch [switch][controller], controller-to-controller)`.
pub fn internet2_delays() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    delays_of(&internet2())
}

/// Shortest-path delay matrices (ms) of an arbitrary topology.
pub fn delays_of(topo: &Internet2) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let model = DelayModel::paper_default();
    let km = topo.graph.all_pairs();
    let ms = |a: usize, b: usize| model.propagation(km[a][b]).as_secs_f64() * 1_000.0;
    let controllers: Vec<usize> = topo.controllers().collect();
    let switches: Vec<usize> = topo.switches().collect();
    let cs = switches
        .iter()
        .map(|&s| controllers.iter().map(|&c| ms(s, c)).collect())
        .collect();
    let cc = controllers
        .iter()
        .map(|&a| controllers.iter().map(|&b| ms(a, b)).collect())
        .collect();
    (cs, cc)
}

/// One OP-solver configuration of the Fig. 6–8 sweeps.
#[derive(Debug, Clone, Copy)]
pub struct OpCombo {
    /// TCR or LCR.
    pub objective: Objective,
    /// Apply the leader constraint C2.6.
    pub leader_pins: bool,
    /// Apply the C2C constraint C2.4 with this `D_c,c` (ms).
    pub cc_threshold: Option<f64>,
}

impl OpCombo {
    /// Human-readable column label.
    pub fn label(&self) -> String {
        let mut s = match self.objective {
            Objective::Tcr => "TCR".to_string(),
            Objective::Lcr => "LCR".to_string(),
        };
        if self.leader_pins {
            s.push_str("+ldr");
        }
        if self.cc_threshold.is_some() {
            s.push_str("+c2c");
        }
        s
    }
}

/// Result of one reassignment OP solve.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Wall-clock solve time in ms.
    pub elapsed_ms: f64,
    /// Controllers in use in the new assignment.
    pub used: usize,
    /// PDL relative to the previous assignment.
    pub pdl: f64,
    /// Whether the search proved optimality within its budget.
    pub optimal: bool,
}

/// Builds the Internet2 CAP model at threshold `d_cs` and, optionally,
/// C2C threshold `d_cc`. The Fig. 6–8 solver experiments use ample
/// capacity so controller usage is coverage-driven (decreasing in
/// `D_c,s`, the paper's Fig. 7); pass a tight `capacity` to study the
/// capacitated regime instead.
pub fn internet2_model(d_cs: f64, d_cc: Option<f64>, capacity: u32) -> CapModel {
    let (cs, cc) = internet2_delays();
    let (n_s, n_c) = (cs.len(), cc.len());
    let mut model = CapModel::new(n_s, n_c);
    model
        .set_fault_tolerance(1)
        .set_cs_delay(cs)
        .set_cc_delay(cc)
        .set_max_cs_delay(d_cs)
        .set_max_cc_delay(d_cc);
    model.capacity = vec![capacity; n_c];
    model
}

/// The Fig. 6–8 reassignment experiment: solve the initial assignment,
/// mark one used controller byzantine, re-solve under `combo`, and
/// report solve time, controller usage and PDL. Returns `None` if the
/// instance is infeasible at this `d_cs`.
pub fn reassignment_op(d_cs: f64, combo: &OpCombo) -> Option<OpResult> {
    let mut model = internet2_model(d_cs, None, 34);
    let initial = solve(&model, &SolveOptions::default()).ok()?;
    let previous = initial.assignment;
    // Accuse the busiest previously-used controller.
    let victim = *previous
        .used_controllers()
        .iter()
        .max_by_key(|&&j| {
            (0..model.n_switches())
                .filter(|&i| previous.contains(i, j))
                .count()
        })
        .expect("assignment uses controllers");
    model.exclude(victim);
    model.set_max_cc_delay(combo.cc_threshold);
    if combo.leader_pins {
        for i in 0..model.n_switches() {
            // Convention: a group's leader is its lowest-id member.
            let leader = previous
                .group(i)
                .iter()
                .copied()
                .find(|&j| j != victim)
                .expect("group has an honest member");
            if model.cs_delay[i][leader] <= model.max_cs_delay {
                model.pin_leader(i, leader);
            }
        }
    }
    let options = SolveOptions {
        objective: combo.objective,
        previous: Some(previous.clone()),
        node_limit: 200_000,
        seed: 7,
    };
    let solution = solve(&model, &options).ok()?;
    Some(OpResult {
        elapsed_ms: solution.stats.elapsed.as_secs_f64() * 1_000.0,
        used: solution.used,
        pdl: previous.pdl_to(&solution.assignment),
        optimal: solution.stats.optimal,
    })
}

/// The byzantine-resilience experiments of Fig. 4.
///
/// * `exp = 1`: one silent group leader;
/// * `exp = 2`: three silent controllers in different groups;
/// * `exp = 3`: three lazy (200–500 ms) group leaders.
///
/// # Panics
///
/// Panics if `exp` is not 1, 2 or 3.
pub fn byzantine_rounds(exp: u8, parallel: bool, rounds: usize) -> Report {
    let topo = internet2();
    let mut config = CurbConfig::default().with_parallel(parallel);
    if exp == 3 {
        // Lazy nodes must lag visibly beyond honest jitter.
        config.lazy_margin = Duration::from_millis(150);
    }
    let mut net = CurbNetwork::new(&topo, config).expect("internet2 is feasible");
    let victims: Vec<usize> = distinct_group_leaders(&net, if exp == 1 { 1 } else { 3 });
    let behavior = if exp == 3 {
        ControllerBehavior::paper_lazy()
    } else {
        assert!(exp == 1 || exp == 2, "exp must be 1, 2 or 3");
        ControllerBehavior::Silent
    };
    for v in victims {
        net.set_controller_behavior(v, behavior);
    }
    net.run_rounds(rounds)
}

/// Picks `n` byzantine victims, preferring group leaders, while
/// keeping the system within its fault budget: no controller group
/// (including the final committee) may contain more than `f = 1`
/// victims — the placement discipline of the paper's experiment ❷,
/// whose three byzantine nodes sit in different groups. Exhaustively
/// searches controller combinations and returns the largest compatible
/// set of at most `n`.
fn distinct_group_leaders(net: &CurbNetwork, n: usize) -> Vec<usize> {
    let epoch = net.epoch();
    let leaders: Vec<usize> = epoch.groups.iter().map(|g| g.leader()).collect();
    // Candidates: leaders first (the worst-case byzantine placement),
    // then other used controllers.
    let mut candidates: Vec<usize> = Vec::new();
    for &l in &leaders {
        if !candidates.contains(&l) {
            candidates.push(l);
        }
    }
    for c in epoch.assignment.used_controllers() {
        if !candidates.contains(&c) {
            candidates.push(c);
        }
    }
    let compatible = |set: &[usize]| -> bool {
        let committee = set
            .iter()
            .filter(|&&v| epoch.final_com.contains(&v))
            .count();
        if committee > 1 {
            return false;
        }
        epoch
            .groups
            .iter()
            .all(|g| g.members.iter().filter(|m| set.contains(m)).count() <= 1)
    };
    // Depth-first search for the largest compatible subset up to `n`.
    fn search(
        candidates: &[usize],
        start: usize,
        current: &mut Vec<usize>,
        best: &mut Vec<usize>,
        n: usize,
        compatible: &dyn Fn(&[usize]) -> bool,
    ) {
        if current.len() > best.len() {
            *best = current.clone();
        }
        if current.len() == n {
            return;
        }
        for idx in start..candidates.len() {
            current.push(candidates[idx]);
            if compatible(current) {
                search(candidates, idx + 1, current, best, n, compatible);
            }
            current.pop();
            if best.len() == n {
                return;
            }
        }
    }
    let mut best = Vec::new();
    let mut current = Vec::new();
    search(&candidates, 0, &mut current, &mut best, n, &compatible);
    best
}

/// Capacity needed so that `n_controllers` can host `n_switches` groups
/// of size `3f + 1`, with a small headroom. Tight capacity makes the
/// solver spread load across (nearly) all controllers — the paper's
/// setting, where all 16 controllers serve the 34 switches.
pub fn capacity_for(f: usize, n_switches: usize, n_controllers: usize) -> u32 {
    let links = n_switches * (3 * f + 1);
    ((links as f64 / n_controllers as f64) * 1.05).ceil() as u32 + 1
}

/// Fig. 5(a)/(b): PKT-IN latency (ms) and throughput (TPS) versus the
/// number of switches.
pub fn pktin_sweep_switches(
    values: &[usize],
    parallel: bool,
    rounds: usize,
) -> Vec<(usize, f64, f64)> {
    let full = internet2();
    values
        .iter()
        .map(|&n| {
            let topo = full.with_switch_count(n);
            let config = CurbConfig::default().with_parallel(parallel);
            let mut net = CurbNetwork::new(&topo, config).expect("feasible");
            let report = net.run_rounds(rounds);
            (n, mean_latency_ms(&report), report.mean_tps())
        })
        .collect()
}

/// Fig. 5(c)/(d): PKT-IN latency and throughput versus `f`.
///
/// Larger groups legitimately take longer to agree, so the request
/// timeout scales with `f` — otherwise the watchdogs would read slow
/// (but correct) consensus as failure.
pub fn pktin_sweep_f(values: &[usize], parallel: bool, rounds: usize) -> Vec<(usize, f64, f64)> {
    let topo = internet2();
    values
        .iter()
        .map(|&f| {
            let mut config = CurbConfig::default().with_f(f).with_parallel(parallel);
            config.controller_capacity = capacity_for(f, 34, 16);
            config.timeout = Duration::from_millis(500) * f as u32;
            let mut net = CurbNetwork::new(&topo, config).expect("feasible");
            let report = net.run_rounds(rounds);
            (f, mean_latency_ms(&report), report.mean_tps())
        })
        .collect()
}

/// One measured reassignment round on a fresh network: every switch
/// accuses the same (used, non-essential) controller, so the group
/// leaders run a *real* OP re-solve whose cost — TCR versus LCR —
/// flows into the request latency.
fn measure_reassignment(net: &mut CurbNetwork, iteration: usize) -> curb_core::RoundReport {
    let used: Vec<usize> = net
        .epoch()
        .assignment
        .used_controllers()
        .into_iter()
        .collect();
    // Rotate the victim across iterations; avoid the final leader so
    // the committee stays live.
    let final_leader = net.epoch().final_leader();
    let victim = used
        .iter()
        .copied()
        .filter(|&c| c != final_leader)
        .nth(iteration % (used.len().saturating_sub(1)).max(1))
        .unwrap_or(used[0]);
    net.run_reassignment_round(vec![victim])
}

/// Fig. 9(a)/(c): RE-ASS latency and throughput versus the number of
/// switches, under the given reassignment objective. Each round runs on
/// a fresh network (reassignments are destructive).
pub fn reass_sweep_switches(
    values: &[usize],
    objective: Objective,
    rounds: usize,
) -> Vec<(usize, f64, f64)> {
    let full = internet2();
    values
        .iter()
        .map(|&n| {
            let topo = full.with_switch_count(n);
            let report = Report {
                rounds: (0..rounds)
                    .map(|i| {
                        let mut config = CurbConfig::default();
                        config.reassign_objective = objective;
                        let mut net = CurbNetwork::new(&topo, config).expect("feasible");
                        measure_reassignment(&mut net, i)
                    })
                    .collect(),
            };
            (n, mean_latency_ms(&report), report.mean_tps())
        })
        .collect()
}

/// Fig. 9(b)/(c): RE-ASS latency and throughput versus `f`. Each round
/// runs on a fresh network.
pub fn reass_sweep_f(
    values: &[usize],
    objective: Objective,
    rounds: usize,
) -> Vec<(usize, f64, f64)> {
    let topo = internet2();
    values
        .iter()
        .map(|&f| {
            let report = Report {
                rounds: (0..rounds)
                    .map(|i| {
                        let mut config = CurbConfig::default().with_f(f);
                        config.reassign_objective = objective;
                        config.controller_capacity = capacity_for(f, 34, 16) + 1;
                        config.timeout = Duration::from_millis(500) * f as u32;
                        let mut net = CurbNetwork::new(&topo, config).expect("feasible");
                        measure_reassignment(&mut net, i)
                    })
                    .collect(),
            };
            (f, mean_latency_ms(&report), report.mean_tps())
        })
        .collect()
}

/// Per-category message counts for one steady-state round of grouped
/// Curb at controller count `n` — the empirical counterpart of
/// Theorem 1's `O(kc² + c² + 2cN)` decomposition.
pub fn complexity_breakdown(n: usize) -> Vec<(&'static str, u64)> {
    let topo = synthetic(n, 2 * n, 42);
    let mut config = CurbConfig::default();
    config.controller_capacity = capacity_for(1, 2 * n, n);
    config.max_cs_delay_ms = f64::INFINITY;
    let mut net = CurbNetwork::new(&topo, config).expect("synthetic topology feasible");
    // Warm-up round, then measure one steady round.
    net.run_round();
    let before: Vec<(&'static str, u64)> =
        net.message_stats().iter().map(|(k, c, _)| (k, c)).collect();
    net.run_round();
    net.message_stats()
        .iter()
        .map(|(k, c, _)| {
            let prev = before
                .iter()
                .find(|(bk, _)| *bk == k)
                .map(|(_, bc)| *bc)
                .unwrap_or(0);
            (k, c - prev)
        })
        .filter(|(_, c)| *c > 0)
        .collect()
}

/// Theorem 1: per-round protocol messages of grouped Curb versus the
/// flat-BFT baseline, as the controller count `N` grows (switches scale
/// as `2N`).
pub fn complexity_sweep(n_values: &[usize], rounds: usize) -> Vec<(usize, f64, f64)> {
    n_values
        .iter()
        .map(|&n| {
            let topo = synthetic(n, 2 * n, 42);
            let mut grouped_cfg = CurbConfig::default();
            grouped_cfg.controller_capacity = capacity_for(1, 2 * n, n);
            grouped_cfg.max_cs_delay_ms = f64::INFINITY;
            let mut grouped =
                CurbNetwork::new(&topo, grouped_cfg).expect("synthetic topology feasible");
            let grouped_msgs = grouped.run_rounds(rounds).mean_messages();

            let mut flat = CurbNetwork::new(&topo, CurbConfig::default().flat())
                .expect("flat mode always feasible");
            let flat_msgs = flat.run_rounds(rounds).mean_messages();
            (n, grouped_msgs, flat_msgs)
        })
        .collect()
}

/// Mean per-round latency in ms (0 when nothing was accepted).
pub fn mean_latency_ms(report: &Report) -> f64 {
    report
        .mean_latency()
        .map(|d| d.as_secs_f64() * 1_000.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internet2_delays_dimensions() {
        let (cs, cc) = internet2_delays();
        assert_eq!(cs.len(), 34);
        assert_eq!(cs[0].len(), 16);
        assert_eq!(cc.len(), 16);
        // Diagonal of cc is zero.
        for (j, row) in cc.iter().enumerate() {
            assert_eq!(row[j], 0.0);
        }
    }

    #[test]
    fn op_combo_labels() {
        let c = OpCombo {
            objective: Objective::Lcr,
            leader_pins: true,
            cc_threshold: Some(10.0),
        };
        assert_eq!(c.label(), "LCR+ldr+c2c");
    }

    #[test]
    fn capacity_scales_with_f() {
        assert!(capacity_for(2, 34, 16) > capacity_for(1, 34, 16));
    }

    #[test]
    fn reassignment_op_runs() {
        let combo = OpCombo {
            objective: Objective::Tcr,
            leader_pins: false,
            cc_threshold: None,
        };
        let r = reassignment_op(30.0, &combo).expect("feasible at 30 ms");
        // Ample capacity at a generous threshold: the minimum cover is
        // one group's worth of controllers.
        assert!(r.used >= 4);
        assert!(r.pdl >= 0.0 && r.pdl <= 1.0);
    }
}
