//! The s-agent as a sans-I/O state machine: Algorithm 1 of the paper
//! plus the detection rules of Step 4. Inputs are
//! [`raise`](AgentMachine::raise), [`reply`](AgentMachine::reply) and
//! [`deadline`](AgentMachine::deadline), with time as nanoseconds on
//! the driver's clock; outputs are [`AgentOutput`]s. The simulator's
//! [`SwitchActor`](crate::SwitchActor) and `curb-cluster`'s socket
//! s-agent drive it, under one set of rules:
//!
//! * `f + 1` identical replies accept; a reply from a controller off
//!   the current list neither votes nor clears a strike, and a listed
//!   controller's reply clears its miss tally even after its round
//!   closed;
//! * a round that settles clean (accepted, every listed controller
//!   within the lazy margin) is forgotten at its last reply; any other
//!   is audited at its deadline and forgotten one timeout later, so
//!   late contradictions still count; announcements never go early;
//! * an unanswered round is reported; re-raising is driver policy.

use crate::ids::SwitchId;
use crate::payload::{ConfigData, ReqKind, RequestKey, RequestRecord};
use crate::round::{EvidenceBook, ReplyMatcher};
use crate::shared::Shared;
use curb_sdn::flow::{FlowAction, FlowEntry, FlowMatch, FlowTable};
use curb_sdn::{FlowMod, HostId, PortId};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// High bit marking a synthetic [`RequestKey::seq`]: when a
/// reassignment commits, every controller serving a switch (under the
/// outgoing or the incoming assignment) pushes it the new assignment
/// keyed `ANNOUNCE_SEQ_BIT | epoch`, adopted under the same `f + 1`
/// rule. Agent-issued sequence numbers stay far below this bit.
pub const ANNOUNCE_SEQ_BIT: u64 = 1 << 63;

/// A closed agent-issued round, for metrics collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqOutcome {
    /// The request.
    pub key: RequestKey,
    /// Whether it was a `RE-ASS`.
    pub is_reassignment: bool,
    /// When the request was raised, on the driver's clock.
    pub sent_ns: u64,
    /// When `f + 1` matching replies arrived (`None` = never).
    pub accepted_ns: Option<u64>,
}

/// What the driver must do after an input.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentOutput {
    /// Send this request to every controller in
    /// [`AgentMachine::ctrl_list`], and wake the machine at its
    /// deadline.
    Request(RequestRecord),
    /// `f + 1` identical replies accepted `config` for an agent-issued
    /// round. Its effect (flow rules installed, or an
    /// [`Adopted`](AgentOutput::Adopted) list) precedes this output.
    Accepted {
        /// The request.
        key: RequestKey,
        /// The accepted configuration.
        config: ConfigData,
        /// Raise → accept latency.
        latency_ns: u64,
    },
    /// Fresh byzantine evidence: `accused` are accused, and the
    /// `RE-ASS` round `reass` was raised over them (its
    /// [`Request`](AgentOutput::Request) precedes this output).
    Accused {
        /// Newly accused controllers.
        accused: Vec<usize>,
        /// The `RE-ASS` request raised over them.
        reass: RequestKey,
    },
    /// An accepted `NewAssignment` replaced the controller list.
    Adopted(Vec<usize>),
    /// An agent-issued round reached its deadline without a quorum.
    /// `retries` counts this round's own retries plus one: what a
    /// re-raise of `kind` would carry.
    Unanswered {
        /// What was asked.
        kind: ReqKind,
        /// Retries a re-raise would carry.
        retries: u32,
    },
    /// An agent-issued round was forgotten.
    Closed(ReqOutcome),
}

/// One open round.
#[derive(Debug)]
struct Round {
    key: RequestKey,
    /// `R_s`: the reply-matching state.
    matcher: ReplyMatcher,
    kind: ReqKind,
    sent_ns: u64,
    retries: u32,
    /// The round's next deadline: its audit, then its removal.
    due_ns: u64,
}

impl Round {
    fn outcome(&self) -> ReqOutcome {
        ReqOutcome {
            key: self.key,
            is_reassignment: matches!(self.kind, ReqKind::ReAss { .. }),
            sent_ns: self.sent_ns,
            accepted_ns: self.matcher.accepted_at(),
        }
    }
}

fn is_announcement(seq: u64) -> bool {
    seq & ANNOUNCE_SEQ_BIT != 0
}

/// The one s-agent: open rounds, strike tallies, the controller list
/// and the flow table of one switch.
#[derive(Debug)]
pub struct AgentMachine {
    switch: SwitchId,
    /// `ctrList_s`: the switch's current controller group.
    ctrl_list: Vec<usize>,
    accept_quorum: usize,
    lazy_margin_ns: u64,
    timeout_ns: u64,
    /// The last sequence number issued.
    last_seq: u64,
    rounds: BTreeMap<u64, Round>,
    /// Each open round's `(due_ns, seq)`, soonest first.
    deadlines: BTreeSet<(u64, u64)>,
    evidence: EvidenceBook,
    flow_table: FlowTable,
}

impl AgentMachine {
    /// An agent for `switch` serving `ctrl_list`, with the quorum and
    /// thresholds of `shared.config`, rounds audited `timeout` after
    /// they open, and sequence numbers issued above `last_seq`.
    pub fn new(
        switch: SwitchId,
        ctrl_list: Vec<usize>,
        shared: &Shared,
        timeout: Duration,
        last_seq: u64,
    ) -> AgentMachine {
        let config = &shared.config;
        AgentMachine {
            switch,
            ctrl_list,
            accept_quorum: shared.accept_f() + 1,
            lazy_margin_ns: config.lazy_margin.as_nanos() as u64,
            timeout_ns: timeout.as_nanos() as u64,
            last_seq,
            rounds: BTreeMap::new(),
            deadlines: BTreeSet::new(),
            evidence: EvidenceBook::new(config.suspect_threshold, config.lazy_patience),
            flow_table: FlowTable::with_table_miss(),
        }
    }

    /// The switch this agent fronts.
    pub fn switch(&self) -> SwitchId {
        self.switch
    }

    /// The current controller list.
    pub fn ctrl_list(&self) -> &[usize] {
        &self.ctrl_list
    }

    /// The switch's flow table.
    pub fn flow_table(&self) -> &FlowTable {
        &self.flow_table
    }

    /// The flow table, for matching data-plane packets.
    pub fn flow_table_mut(&mut self) -> &mut FlowTable {
        &mut self.flow_table
    }

    /// Rounds still open.
    pub fn pending(&self) -> usize {
        self.rounds.len()
    }

    /// Replaces the controller list, with the detection bookkeeping of
    /// [`EvidenceBook::adopt_ctrl_list`].
    pub fn adopt_ctrl_list(&mut self, list: Vec<usize>) {
        self.evidence.adopt_ctrl_list(list != self.ctrl_list, &list);
        self.ctrl_list = list;
    }

    /// Opens a round for `kind` under the next sequence number and
    /// returns the request to broadcast. `retries` is carried to the
    /// round's [`Unanswered`](AgentOutput::Unanswered) report.
    pub fn raise(&mut self, kind: ReqKind, retries: u32, now_ns: u64) -> RequestRecord {
        self.last_seq += 1;
        let key = RequestKey {
            switch: self.switch,
            seq: self.last_seq,
        };
        self.open(key, kind.clone(), retries, now_ns);
        RequestRecord { key, kind }
    }

    fn open(&mut self, key: RequestKey, kind: ReqKind, retries: u32, now_ns: u64) {
        let due_ns = now_ns + self.timeout_ns;
        let round = Round {
            key,
            matcher: ReplyMatcher::new(self.accept_quorum, self.lazy_margin_ns),
            kind,
            sent_ns: now_ns,
            retries,
            due_ns,
        };
        self.rounds.insert(key.seq, round);
        self.deadlines.insert((due_ns, key.seq));
    }

    /// A REPLY from `controller` (Algorithm 1, lines 3-13).
    pub fn reply(
        &mut self,
        controller: usize,
        key: RequestKey,
        config: ConfigData,
        now_ns: u64,
    ) -> Vec<AgentOutput> {
        let mut out = Vec::new();
        if key.switch != self.switch || !self.ctrl_list.contains(&controller) {
            return out;
        }
        self.evidence.clear_miss(controller);
        let announcement = is_announcement(key.seq);
        if announcement && !self.rounds.contains_key(&key.seq) {
            // A controller-initiated announcement: open a round so the
            // same `f + 1` rule gates adoption.
            let kind = ReqKind::ReAss {
                accused: Vec::new(),
            };
            self.open(key, kind, 0, now_ns);
        }
        let Some(round) = self.rounds.get_mut(&key.seq) else {
            return out; // closed, stale or fabricated
        };
        let sent_ns = round.sent_ns;
        let outcome = round.matcher.on_reply(controller, config, now_ns);
        if let Some(config) = outcome.newly_accepted {
            self.apply(&config, now_ns, &mut out);
            if !announcement {
                out.push(AgentOutput::Accepted {
                    key,
                    config,
                    latency_ns: now_ns.saturating_sub(sent_ns),
                });
            }
        }
        self.accuse(outcome.contradictors, now_ns, &mut out);
        if outcome.straggler && self.evidence.lazy_strike(controller) {
            self.accuse(vec![controller], now_ns, &mut out);
        }
        if let Some(round) = self.rounds.get(&key.seq) {
            if !announcement && round.matcher.settled(&self.ctrl_list) {
                self.deadlines.remove(&(round.due_ns, key.seq));
                out.push(AgentOutput::Closed(round.outcome()));
                self.rounds.remove(&key.seq);
            }
        }
        out
    }

    /// Time passed `now_ns`: audits every round due (miss and lazy
    /// strikes, accusations, unanswered reports) and forgets every
    /// round audited one timeout ago.
    pub fn deadline(&mut self, now_ns: u64) -> Vec<AgentOutput> {
        let mut out = Vec::new();
        while let Some(&(due, seq)) = self.deadlines.first().filter(|(due, _)| *due <= now_ns) {
            self.deadlines.pop_first();
            let round = self.rounds.get_mut(&seq).expect("a deadline has its round");
            let Some(audit) = round.matcher.audit(&self.ctrl_list) else {
                let round = self.rounds.remove(&seq).expect("present");
                if !is_announcement(seq) {
                    out.push(AgentOutput::Closed(round.outcome()));
                }
                continue;
            };
            let unanswered =
                (!is_announcement(seq) && round.matcher.accepted().is_none()).then(|| {
                    AgentOutput::Unanswered {
                        kind: round.kind.clone(),
                        retries: round.retries + 1,
                    }
                });
            round.due_ns = due + self.timeout_ns;
            self.deadlines.insert((round.due_ns, seq));
            let evidence = &mut self.evidence;
            let mut accused: Vec<usize> = audit
                .missing
                .into_iter()
                .filter(|c| evidence.miss_strike(*c))
                .collect();
            accused.extend(
                audit
                    .lazies
                    .into_iter()
                    .filter(|c| evidence.lazy_strike(*c)),
            );
            self.accuse(accused, now_ns, &mut out);
            out.extend(unanswered);
        }
        out
    }

    /// When [`deadline`](AgentMachine::deadline) next has work.
    pub fn next_deadline(&self) -> Option<u64> {
        self.deadlines.first().map(|(due, _)| *due)
    }

    /// Closes every open agent-issued round and forgets all of them
    /// (the simulator's round boundary).
    pub fn close_all(&mut self) -> Vec<ReqOutcome> {
        self.deadlines.clear();
        let rounds = std::mem::take(&mut self.rounds);
        rounds
            .into_iter()
            .filter(|(seq, _)| !is_announcement(*seq))
            .map(|(_, round)| round.outcome())
            .collect()
    }

    /// Applies an accepted configuration (Step 4): FLOW_MOD for flow
    /// rules, the new list for a reassignment.
    fn apply(&mut self, config: &ConfigData, now_ns: u64, out: &mut Vec<AgentOutput>) {
        match config {
            ConfigData::FlowRules(rules) => {
                for r in rules {
                    let command = FlowMod::add(FlowEntry::new(
                        r.priority,
                        FlowMatch::dst_host(HostId(r.dst_host)),
                        vec![FlowAction::Output(PortId(r.out_port))],
                    ));
                    command.apply(&mut self.flow_table, now_ns);
                }
            }
            ConfigData::NewAssignment { groups } => {
                if let Some(list) = groups.get(self.switch.0) {
                    self.adopt_ctrl_list(list.clone());
                    out.push(AgentOutput::Adopted(list.clone()));
                }
            }
        }
    }

    /// Accuses the not-yet-accused among `controllers` and raises a
    /// `RE-ASS` over them.
    fn accuse(&mut self, controllers: Vec<usize>, now_ns: u64, out: &mut Vec<AgentOutput>) {
        let accused = self.evidence.fresh_accusations(controllers);
        if accused.is_empty() {
            return;
        }
        let kind = ReqKind::ReAss {
            accused: accused.clone(),
        };
        let record = self.raise(kind, 0, now_ns);
        let reass = record.key;
        out.push(AgentOutput::Request(record));
        out.push(AgentOutput::Accused { accused, reass });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CurbConfig;
    use crate::ids::NodePlan;
    use crate::payload::FlowRuleSpec;

    const MS: u64 = 1_000_000;
    /// The request timeout; `CurbConfig::default()` has `f = 1` (quorum
    /// 2), a 300 ms lazy margin and thresholds of 5.
    const TIMEOUT: u64 = 500 * MS;

    fn machine() -> AgentMachine {
        let shared = Shared {
            config: CurbConfig::default(),
            plan: NodePlan {
                n_controllers: 5,
                n_switches: 1,
            },
            keys: Vec::new(),
            cs_delay_ms: vec![vec![1.0; 5]],
            cc_delay_ms: vec![vec![1.0; 5]; 5],
            next_hop_port: vec![vec![0]],
        };
        let timeout = Duration::from_nanos(TIMEOUT);
        AgentMachine::new(SwitchId(0), vec![0, 1, 2, 3], &shared, timeout, 0)
    }

    fn pkt_in() -> ReqKind {
        ReqKind::PktIn { dst_host: 7 }
    }

    fn rules() -> ConfigData {
        ConfigData::FlowRules(vec![FlowRuleSpec {
            priority: 10,
            dst_host: 7,
            out_port: 3,
        }])
    }

    fn accused(outputs: &[AgentOutput]) -> Vec<usize> {
        outputs
            .iter()
            .flat_map(|o| match o {
                AgentOutput::Accused { accused, .. } => accused.clone(),
                _ => Vec::new(),
            })
            .collect()
    }

    /// Raises a PKT-IN at `at`, delivers `repliers`' matching replies
    /// 1 ms later, and returns the outputs of the round's deadline.
    fn round(m: &mut AgentMachine, at: u64, repliers: &[usize]) -> Vec<AgentOutput> {
        let key = m.raise(pkt_in(), 0, at).key;
        for &c in repliers {
            m.reply(c, key, rules(), at + MS);
        }
        m.deadline(at + TIMEOUT)
    }

    #[test]
    fn an_announcement_is_adopted_at_f_plus_one_listed_controllers_not_at_f() {
        let mut m = machine();
        let key = RequestKey {
            switch: SwitchId(0),
            seq: ANNOUNCE_SEQ_BIT | 1,
        };
        let config = ConfigData::NewAssignment {
            groups: vec![vec![0, 1, 2, 4]],
        };
        assert!(m.reply(0, key, config.clone(), 0).is_empty(), "f replies");
        assert_eq!(m.ctrl_list(), &[0, 1, 2, 3]);
        assert_eq!(
            m.reply(1, key, config, MS),
            vec![AgentOutput::Adopted(vec![0, 1, 2, 4])],
            "an announcement is adopted, not reported as an accept"
        );
        assert_eq!(m.ctrl_list(), &[0, 1, 2, 4]);
    }

    #[test]
    fn an_unlisted_controller_neither_votes_nor_clears_a_strike() {
        let mut m = machine();
        // Controller 3 misses four rounds: one short of the threshold.
        for i in 0..4 {
            assert!(accused(&round(&mut m, i * 1000 * MS, &[0, 1, 2])).is_empty());
        }
        m.adopt_ctrl_list(vec![0, 1, 2]);
        let key = m.raise(pkt_in(), 0, 10_000 * MS).key;
        assert!(m.reply(3, key, rules(), 10_000 * MS).is_empty());
        assert!(
            m.reply(0, key, rules(), 10_000 * MS).is_empty(),
            "3 did not vote: one vote is not f + 1"
        );
        let out = m.reply(1, key, rules(), 10_000 * MS);
        assert!(matches!(out[..], [AgentOutput::Accepted { .. }, ..]));
        // Back in the list, 3's tally still stands at four: one more
        // miss accuses it.
        m.adopt_ctrl_list(vec![0, 1, 2, 3]);
        assert_eq!(accused(&round(&mut m, 20_000 * MS, &[0, 1, 2])), vec![3]);
    }

    #[test]
    fn a_clean_round_closes_at_once_and_a_lazy_one_is_struck_at_its_deadline() {
        let mut m = machine();
        let key = m.raise(pkt_in(), 0, 0).key;
        for c in 0..3 {
            m.reply(c, key, rules(), MS);
        }
        let closed = ReqOutcome {
            key,
            is_reassignment: false,
            sent_ns: 0,
            accepted_ns: Some(MS),
        };
        assert_eq!(
            m.reply(3, key, rules(), 2 * MS),
            vec![AgentOutput::Closed(closed)]
        );
        assert_eq!(m.pending(), 0);

        // Controller 3 replies 400 ms after the quorum, past the 300 ms
        // margin but inside the timeout: a lazy strike per round, at the
        // round's deadline. The fifth accuses.
        for i in 1..=5 {
            let at = i * 1000 * MS;
            let key = m.raise(pkt_in(), 0, at).key;
            for c in 0..3 {
                m.reply(c, key, rules(), at + MS);
            }
            assert!(m.reply(3, key, rules(), at + 401 * MS).is_empty());
            assert_eq!(m.pending(), 1, "a lazy round stays open");
            assert!(m.deadline(at + TIMEOUT - 1).is_empty(), "not before");
            let struck = accused(&m.deadline(at + TIMEOUT));
            assert_eq!(struck, if i == 5 { vec![3] } else { vec![] });
            m.deadline(at + 2 * TIMEOUT);
        }
    }

    #[test]
    fn an_unanswered_round_is_reported_with_one_more_retry() {
        let mut m = machine();
        let key = m.raise(pkt_in(), 2, 0).key;
        m.reply(0, key, rules(), MS);
        assert_eq!(
            m.deadline(TIMEOUT),
            vec![AgentOutput::Unanswered {
                kind: pkt_in(),
                retries: 3
            }]
        );
    }

    #[test]
    fn open_rounds_never_outnumber_the_rounds_in_flight() {
        let mut m = machine();
        const STEP: u64 = MS;
        // A round lives at most until one timeout past its audit.
        let horizon = (2 * TIMEOUT / STEP) as usize + 1;
        for i in 0..100_000u64 {
            let now = i * STEP;
            let key = m.raise(pkt_in(), 0, now).key;
            // Controller 3 answers every other round: half the rounds
            // settle clean, half wait for their audit and reaping.
            let repliers: &[usize] = if i % 2 == 0 {
                &[0, 1, 2, 3]
            } else {
                &[0, 1, 2]
            };
            for &c in repliers {
                assert!(accused(&m.reply(c, key, rules(), now)).is_empty());
            }
            assert!(accused(&m.deadline(now)).is_empty());
            assert!(m.pending() <= (i as usize + 1).min(horizon));
        }
    }
}
