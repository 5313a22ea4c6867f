//! The shared round workflow: `f + 1` REPLY matching and byzantine
//! evidence, the parts the s-agent is built from.
//!
//! Algorithm 1 of the paper (accept a configuration once `f + 1`
//! identical replies arrive, accuse contradictors) and the Step-4
//! detection rules (miss strikes, lazy strikes) are pure bookkeeping —
//! nothing about them depends on whether replies arrive as simulator
//! events or over a TCP socket. This module holds that single
//! definition: [`AgentMachine`](crate::agent::AgentMachine), the one
//! s-agent that the simulator and the socket runtime both drive, holds
//! a [`ReplyMatcher`] per request and an [`EvidenceBook`] per agent.
//!
//! Timestamps are plain nanosecond counters: the simulator passes
//! `SimTime::as_nanos()`, the cluster a monotonic clock's nanos.

use crate::payload::ConfigData;
use std::collections::{BTreeMap, BTreeSet};

/// What one incoming REPLY did to an in-flight request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyOutcome {
    /// Set when this reply completed the `f + 1` quorum: the accepted
    /// configuration to apply.
    pub newly_accepted: Option<ConfigData>,
    /// Controllers whose replies contradict the accepted majority —
    /// byzantine evidence warranting an immediate accusation. Filled
    /// either at acceptance time (earlier contradictors) or when a
    /// late reply disagrees with the already-accepted config.
    pub contradictors: Vec<usize>,
    /// The reply arrived after the timeout audit *and* beyond the lazy
    /// margin past acceptance: the sender earns a lazy strike.
    pub straggler: bool,
}

impl ReplyOutcome {
    fn ignored() -> ReplyOutcome {
        ReplyOutcome {
            newly_accepted: None,
            contradictors: Vec::new(),
            straggler: false,
        }
    }
}

/// Result of the request-timeout audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Audit {
    /// Controllers that never replied (miss-strike candidates).
    pub missing: Vec<usize>,
    /// Controllers that replied beyond the lazy margin after the
    /// quorum formed (lazy-strike candidates).
    pub lazies: Vec<usize>,
}

/// Per-request REPLY matching state (`R_s` in Algorithm 1).
///
/// One matcher lives for the duration of one request; feed it every
/// reply via [`on_reply`](ReplyMatcher::on_reply) and run
/// [`audit`](ReplyMatcher::audit) once when the request times out.
#[derive(Debug)]
pub struct ReplyMatcher {
    accept_quorum: usize,
    lazy_margin_ns: u64,
    /// Replies received: `(controller, config, arrival_ns)`.
    replies: Vec<(usize, ConfigData, u64)>,
    accepted: Option<(ConfigData, u64)>,
    audited: bool,
}

impl ReplyMatcher {
    /// Creates a matcher accepting on `accept_quorum` (= `f + 1`)
    /// identical replies, with lazy replies measured against
    /// `lazy_margin_ns`.
    pub fn new(accept_quorum: usize, lazy_margin_ns: u64) -> ReplyMatcher {
        ReplyMatcher {
            accept_quorum: accept_quorum.max(1),
            lazy_margin_ns,
            replies: Vec::new(),
            accepted: None,
            audited: false,
        }
    }

    /// The accepted configuration, once the quorum has formed.
    pub fn accepted(&self) -> Option<&ConfigData> {
        self.accepted.as_ref().map(|(c, _)| c)
    }

    /// When the quorum formed, in the caller's nanosecond clock.
    pub fn accepted_at(&self) -> Option<u64> {
        self.accepted.as_ref().map(|(_, at)| *at)
    }

    /// Whether the timeout audit already ran.
    pub fn audited(&self) -> bool {
        self.audited
    }

    /// Number of distinct controllers that replied.
    pub fn reply_count(&self) -> usize {
        self.replies.len()
    }

    /// Whether the request settled clean: the quorum formed and every
    /// controller in `ctrl_list` replied within the lazy margin, so no
    /// later reply can change its outcome and its audit would strike
    /// nobody.
    pub fn settled(&self, ctrl_list: &[usize]) -> bool {
        let Some((_, accepted_at)) = &self.accepted else {
            return false;
        };
        ctrl_list.iter().all(|c| {
            self.replies
                .iter()
                .any(|(rc, _, t)| rc == c && t.saturating_sub(*accepted_at) <= self.lazy_margin_ns)
        })
    }

    /// Processes one REPLY from `controller` (Algorithm 1, lines
    /// 3-13). Duplicate votes are ignored; the first `f + 1` identical
    /// configurations accept; disagreeing replies become contradictor
    /// evidence, immediately if the quorum already formed.
    pub fn on_reply(&mut self, controller: usize, config: ConfigData, now_ns: u64) -> ReplyOutcome {
        if self.replies.iter().any(|(c, _, _)| *c == controller) {
            return ReplyOutcome::ignored(); // one vote per controller
        }
        self.replies.push((controller, config.clone(), now_ns));
        let straggler = self.audited
            && self
                .accepted
                .as_ref()
                .is_some_and(|(_, at)| now_ns.saturating_sub(*at) > self.lazy_margin_ns);
        let mut outcome = ReplyOutcome {
            newly_accepted: None,
            contradictors: Vec::new(),
            straggler,
        };
        match &self.accepted {
            None => {
                let matching = self.replies.iter().filter(|(_, c, _)| *c == config).count();
                if matching >= self.accept_quorum {
                    self.accepted = Some((config.clone(), now_ns));
                    outcome.contradictors = self
                        .replies
                        .iter()
                        .filter(|(_, c, _)| *c != config)
                        .map(|(c, _, _)| *c)
                        .collect();
                    outcome.newly_accepted = Some(config);
                }
            }
            Some((accepted, _)) => {
                if *accepted != config {
                    // Late contradiction.
                    outcome.contradictors = vec![controller];
                }
            }
        }
        outcome
    }

    /// Runs the one-shot timeout audit against the agent's current
    /// controller list: who never replied, and who replied beyond the
    /// lazy margin after acceptance. Returns `None` when already
    /// audited.
    pub fn audit(&mut self, ctrl_list: &[usize]) -> Option<Audit> {
        if self.audited {
            return None;
        }
        self.audited = true;
        let mut missing = Vec::new();
        let mut lazies = Vec::new();
        for &c in ctrl_list {
            match self.replies.iter().find(|(rc, _, _)| *rc == c) {
                None => missing.push(c),
                Some((_, _, t)) => {
                    if let Some((_, accepted_at)) = &self.accepted {
                        if t.saturating_sub(*accepted_at) > self.lazy_margin_ns {
                            lazies.push(c);
                        }
                    }
                }
            }
        }
        Some(Audit { missing, lazies })
    }
}

/// Per-agent byzantine evidence: strike tallies and the accused set
/// (Step 4 of the paper).
///
/// Strikes accumulate across requests; the book decides when evidence
/// amounts to an accusation and deduplicates accusations so each
/// controller is accused at most once per epoch.
#[derive(Debug)]
pub struct EvidenceBook {
    suspect_threshold: u32,
    lazy_patience: u32,
    /// Consecutive miss strikes per controller.
    strikes: BTreeMap<usize, u32>,
    /// Lazy strikes per controller.
    lazy_strikes: BTreeMap<usize, u32>,
    /// Controllers already accused (no duplicate RE-ASS).
    accused: BTreeSet<usize>,
}

impl EvidenceBook {
    /// Creates a book that accuses after `suspect_threshold`
    /// consecutive misses or `lazy_patience` lazy strikes.
    pub fn new(suspect_threshold: u32, lazy_patience: u32) -> EvidenceBook {
        EvidenceBook {
            suspect_threshold: suspect_threshold.max(1),
            lazy_patience: lazy_patience.max(1),
            strikes: BTreeMap::new(),
            lazy_strikes: BTreeMap::new(),
            accused: BTreeSet::new(),
        }
    }

    /// A controller that responds is not "missing": miss strikes are
    /// consecutive, so any reply clears the tally.
    pub fn clear_miss(&mut self, controller: usize) {
        self.strikes.remove(&controller);
    }

    /// Records one miss strike; `true` means the threshold is reached
    /// and the controller should be accused.
    pub fn miss_strike(&mut self, controller: usize) -> bool {
        let tally = self.strikes.entry(controller).or_insert(0);
        *tally += 1;
        *tally >= self.suspect_threshold
    }

    /// Records one lazy strike; `true` means patience ran out.
    pub fn lazy_strike(&mut self, controller: usize) -> bool {
        let tally = self.lazy_strikes.entry(controller).or_insert(0);
        *tally += 1;
        *tally >= self.lazy_patience
    }

    /// Filters `controllers` down to those not yet accused, marking
    /// the survivors accused. An empty return means nothing new to
    /// report.
    pub fn fresh_accusations(&mut self, controllers: Vec<usize>) -> Vec<usize> {
        let fresh: Vec<usize> = controllers
            .into_iter()
            .filter(|c| self.accused.insert(*c))
            .collect();
        fresh
    }

    /// Controllers accused so far.
    pub fn accused(&self) -> &BTreeSet<usize> {
        &self.accused
    }

    /// Epoch boundary: a new controller list was adopted.
    ///
    /// * miss-strike tallies always persist (a returning controller
    ///   resumes its record);
    /// * laziness tallies reset only when the list actually `changed` —
    ///   the old epoch's congestion is gone, so stragglers start fresh;
    /// * controllers that remain in (or return to) the list become
    ///   accusable again.
    pub fn adopt_ctrl_list(&mut self, changed: bool, list: &[usize]) {
        if changed {
            self.lazy_strikes.clear();
        }
        self.accused.retain(|c| !list.contains(c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::FlowRuleSpec;

    fn rules(port: u16) -> ConfigData {
        ConfigData::FlowRules(vec![FlowRuleSpec {
            priority: 10,
            dst_host: 7,
            out_port: port,
        }])
    }

    #[test]
    fn accepts_on_quorum_and_reports_prior_contradictors() {
        let mut m = ReplyMatcher::new(2, 300);
        // Contradictor first, then the majority.
        assert_eq!(m.on_reply(1, rules(9), 10), ReplyOutcome::ignored());
        assert!(m.on_reply(0, rules(3), 20).newly_accepted.is_none());
        let out = m.on_reply(2, rules(3), 30);
        assert_eq!(out.newly_accepted, Some(rules(3)));
        assert_eq!(out.contradictors, vec![1]);
        assert_eq!(m.accepted(), Some(&rules(3)));
        assert_eq!(m.accepted_at(), Some(30));
    }

    #[test]
    fn duplicate_votes_are_ignored() {
        let mut m = ReplyMatcher::new(2, 300);
        assert!(m.on_reply(0, rules(3), 1).newly_accepted.is_none());
        // Same controller voting again does not reach quorum.
        assert!(m.on_reply(0, rules(3), 2).newly_accepted.is_none());
        assert_eq!(m.reply_count(), 1);
    }

    #[test]
    fn late_contradiction_is_immediate_evidence() {
        let mut m = ReplyMatcher::new(1, 300);
        assert!(m.on_reply(0, rules(3), 1).newly_accepted.is_some());
        let out = m.on_reply(2, rules(9), 5);
        assert_eq!(out.contradictors, vec![2]);
        assert!(out.newly_accepted.is_none());
    }

    #[test]
    fn audit_reports_missing_and_lazy_once() {
        let mut m = ReplyMatcher::new(2, 100);
        m.on_reply(0, rules(3), 10);
        m.on_reply(1, rules(3), 20); // accepted at 20
        m.on_reply(2, rules(3), 500); // 480 ns late: lazy
        let audit = m.audit(&[0, 1, 2, 3]).expect("first audit runs");
        assert_eq!(audit.missing, vec![3]);
        assert_eq!(audit.lazies, vec![2]);
        assert!(m.audit(&[0, 1, 2, 3]).is_none(), "audit is one-shot");
    }

    #[test]
    fn settled_once_accepted_and_every_listed_controller_replied() {
        let mut m = ReplyMatcher::new(2, 100);
        m.on_reply(0, rules(3), 10);
        assert!(!m.settled(&[0]), "no quorum yet");
        m.on_reply(1, rules(3), 20);
        assert!(m.settled(&[0, 1]));
        assert!(!m.settled(&[0, 1, 2]), "controller 2 may still contradict");
        m.on_reply(2, rules(9), 30);
        assert!(m.settled(&[0, 1, 2]));
        // The audit a settled request gets is the one the timeout
        // would have run: nobody missing.
        assert!(m.audit(&[0, 1, 2]).unwrap().missing.is_empty());
    }

    #[test]
    fn post_audit_straggler_flagged() {
        let mut m = ReplyMatcher::new(1, 100);
        m.on_reply(0, rules(3), 10);
        m.audit(&[0, 1]);
        let out = m.on_reply(1, rules(3), 400);
        assert!(out.straggler);
    }

    #[test]
    fn evidence_book_thresholds_and_dedup() {
        let mut book = EvidenceBook::new(3, 2);
        assert!(!book.miss_strike(5));
        assert!(!book.miss_strike(5));
        book.clear_miss(5); // a reply resets consecutive misses
        assert!(!book.miss_strike(5));
        assert!(!book.miss_strike(5));
        assert!(book.miss_strike(5));
        assert_eq!(book.fresh_accusations(vec![5, 5]), vec![5]);
        assert!(book.fresh_accusations(vec![5]).is_empty(), "no duplicates");
        assert!(!book.lazy_strike(1));
        assert!(book.lazy_strike(1));
    }

    #[test]
    fn adopting_a_changed_list_resets_laziness_and_accusability() {
        let mut book = EvidenceBook::new(3, 2);
        book.lazy_strike(1);
        assert_eq!(book.fresh_accusations(vec![2]), vec![2]);
        book.adopt_ctrl_list(true, &[0, 1, 3]);
        // 2 left the list: its accusation stands (it cannot be
        // re-accused while absent anyway).
        assert!(book.accused().contains(&2));
        book.adopt_ctrl_list(true, &[0, 1, 2]);
        assert!(
            !book.accused().contains(&2),
            "returning controller is accusable again"
        );
        // Lazy tally was reset by the changed list.
        assert!(!book.lazy_strike(1));
    }
}
