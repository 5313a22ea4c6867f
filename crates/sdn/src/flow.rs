//! Flow matches, actions, entries and the flow table.
//!
//! Semantics follow OpenFlow: a table holds prioritised entries; a
//! packet is matched against entries in descending priority order and
//! the first match wins. A zero-priority wildcard entry acts as the
//! table-miss entry (typically sending the packet to the controller).

use crate::packet::{HostId, Packet, PortId};
use core::time::Duration;

/// Header fields an entry matches on; `None` means wildcard.
///
/// # Examples
///
/// ```rust
/// use curb_sdn::flow::FlowMatch;
/// use curb_sdn::packet::{HostId, Packet};
///
/// let m = FlowMatch::dst_host(HostId(9));
/// assert!(m.matches(&Packet::new(HostId(1), HostId(9))));
/// assert!(!m.matches(&Packet::new(HostId(1), HostId(2))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowMatch {
    /// Required source host, if any.
    pub src: Option<HostId>,
    /// Required destination host, if any.
    pub dst: Option<HostId>,
    /// Required ingress port, if any.
    pub in_port: Option<PortId>,
}

impl FlowMatch {
    /// Matches every packet (the table-miss match).
    pub fn any() -> Self {
        FlowMatch::default()
    }

    /// Matches packets destined to `dst`.
    pub fn dst_host(dst: HostId) -> Self {
        FlowMatch {
            dst: Some(dst),
            ..FlowMatch::default()
        }
    }

    /// Matches a specific `(src, dst)` pair.
    pub fn pair(src: HostId, dst: HostId) -> Self {
        FlowMatch {
            src: Some(src),
            dst: Some(dst),
            ..FlowMatch::default()
        }
    }

    /// Restricts the match to an ingress port (builder style).
    pub fn with_in_port(mut self, port: PortId) -> Self {
        self.in_port = Some(port);
        self
    }

    /// Returns `true` if `packet` satisfies every non-wildcard field.
    pub fn matches(&self, packet: &Packet) -> bool {
        self.src.is_none_or(|s| s == packet.src)
            && self.dst.is_none_or(|d| d == packet.dst)
            && self.in_port.is_none_or(|p| Some(p) == packet.in_port)
    }

    /// Returns `true` if this match is at least as specific as `other`
    /// on every field (used to decide FLOW_MOD modify/delete scope).
    pub fn covers(&self, other: &FlowMatch) -> bool {
        fn field_covers<T: PartialEq>(wild: &Option<T>, specific: &Option<T>) -> bool {
            match (wild, specific) {
                (None, _) => true,
                (Some(a), Some(b)) => a == b,
                (Some(_), None) => false,
            }
        }
        field_covers(&self.src, &other.src)
            && field_covers(&self.dst, &other.dst)
            && field_covers(&self.in_port, &other.in_port)
    }
}

/// What a switch does with a matched packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowAction {
    /// Forward out of the given port.
    Output(PortId),
    /// Drop the packet.
    Drop,
    /// Punt the packet to the controller (PACKET_IN).
    ToController,
}

/// One prioritised rule in a flow table.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntry {
    /// Higher priority wins; the table-miss entry uses priority 0.
    pub priority: u16,
    /// Header fields to match.
    pub matcher: FlowMatch,
    /// Actions applied on match, in order.
    pub actions: Vec<FlowAction>,
    /// Entry is removed this long after installation, if set.
    pub hard_timeout: Option<Duration>,
    /// Installation time in nanoseconds of simulation time (set by the
    /// table on insert).
    installed_at_ns: u64,
    /// Packets matched by this entry (OpenFlow flow statistics).
    packet_count: u64,
    /// Bytes matched by this entry.
    byte_count: u64,
}

impl FlowEntry {
    /// Creates an entry with no timeout.
    pub fn new(priority: u16, matcher: FlowMatch, actions: Vec<FlowAction>) -> Self {
        FlowEntry {
            priority,
            matcher,
            actions,
            hard_timeout: None,
            installed_at_ns: 0,
            packet_count: 0,
            byte_count: 0,
        }
    }

    /// Packets this entry has matched (flow statistics).
    pub fn packet_count(&self) -> u64 {
        self.packet_count
    }

    /// Bytes this entry has matched (flow statistics).
    pub fn byte_count(&self) -> u64 {
        self.byte_count
    }

    /// Sets a hard timeout (builder style).
    pub fn with_hard_timeout(mut self, timeout: Duration) -> Self {
        self.hard_timeout = Some(timeout);
        self
    }

    /// The table-miss entry: matches everything at priority 0 and punts
    /// to the controller.
    pub fn table_miss() -> Self {
        FlowEntry::new(0, FlowMatch::any(), vec![FlowAction::ToController])
    }

    /// Whether the entry has expired at simulation time `now_ns`.
    pub fn expired(&self, now_ns: u64) -> bool {
        match self.hard_timeout {
            Some(t) => now_ns.saturating_sub(self.installed_at_ns) >= t.as_nanos() as u64,
            None => false,
        }
    }
}

/// A switch's flow table.
///
/// Entries are kept sorted by descending priority; among equal
/// priorities the earliest-installed entry wins (deterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
}

impl FlowTable {
    /// Creates an empty table (no table-miss entry).
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Creates a table containing only the table-miss entry, the usual
    /// initial state of a Curb switch.
    pub fn with_table_miss() -> Self {
        let mut t = FlowTable::new();
        t.add(FlowEntry::table_miss());
        t
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs `entry` (FLOW_MOD ADD). An existing entry with the same
    /// priority and match is replaced, per OpenFlow overlap rules.
    pub fn add(&mut self, entry: FlowEntry) {
        self.add_at(entry, 0);
    }

    /// Installs `entry` recording `now_ns` as its installation time
    /// (drives hard-timeout expiry).
    pub fn add_at(&mut self, mut entry: FlowEntry, now_ns: u64) {
        entry.installed_at_ns = now_ns;
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.priority == entry.priority && e.matcher == entry.matcher)
        {
            *existing = entry;
            return;
        }
        // Insert keeping descending priority, stable among equals.
        let pos = self
            .entries
            .partition_point(|e| e.priority >= entry.priority);
        self.entries.insert(pos, entry);
    }

    /// Replaces the actions of every entry covered by `matcher`
    /// (FLOW_MOD MODIFY). Returns the number of entries changed.
    pub fn modify(&mut self, matcher: &FlowMatch, actions: &[FlowAction]) -> usize {
        let mut changed = 0;
        for e in &mut self.entries {
            if matcher.covers(&e.matcher) {
                e.actions = actions.to_vec();
                changed += 1;
            }
        }
        changed
    }

    /// Removes every entry covered by `matcher` (FLOW_MOD DELETE).
    /// Returns the number of entries removed.
    pub fn delete(&mut self, matcher: &FlowMatch) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !matcher.covers(&e.matcher));
        before - self.entries.len()
    }

    /// Looks up the actions for `packet`: the highest-priority matching
    /// entry wins. Returns `None` on a total miss (no entry matched).
    pub fn lookup(&self, packet: &Packet) -> Option<&[FlowAction]> {
        self.entries
            .iter()
            .find(|e| e.matcher.matches(packet))
            .map(|e| e.actions.as_slice())
    }

    /// Like [`FlowTable::lookup`], but also updates the matched entry's
    /// flow statistics — the form a forwarding switch uses.
    pub fn apply(&mut self, packet: &Packet) -> Option<&[FlowAction]> {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.matcher.matches(packet))?;
        entry.packet_count += 1;
        entry.byte_count += packet.wire_size() as u64;
        Some(entry.actions.as_slice())
    }

    /// Total packets matched across all entries.
    pub fn total_packets(&self) -> u64 {
        self.entries.iter().map(|e| e.packet_count).sum()
    }

    /// Drops entries whose hard timeout elapsed before `now_ns`.
    /// Returns the number of entries expired.
    pub fn expire(&mut self, now_ns: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !e.expired(now_ns));
        before - self.entries.len()
    }

    /// Iterates entries in match order (descending priority).
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src: u32, dst: u32) -> Packet {
        Packet::new(HostId(src), HostId(dst))
    }

    #[test]
    fn highest_priority_wins() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(1, FlowMatch::any(), vec![FlowAction::Drop]));
        t.add(FlowEntry::new(
            10,
            FlowMatch::dst_host(HostId(2)),
            vec![FlowAction::Output(PortId(1))],
        ));
        assert_eq!(
            t.lookup(&pkt(1, 2)),
            Some(&[FlowAction::Output(PortId(1))][..])
        );
        assert_eq!(t.lookup(&pkt(1, 3)), Some(&[FlowAction::Drop][..]));
    }

    #[test]
    fn table_miss_punts_to_controller() {
        let t = FlowTable::with_table_miss();
        assert_eq!(t.lookup(&pkt(5, 6)), Some(&[FlowAction::ToController][..]));
    }

    #[test]
    fn empty_table_misses_entirely() {
        let t = FlowTable::new();
        assert!(t.lookup(&pkt(1, 2)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn add_replaces_same_priority_and_match() {
        let mut t = FlowTable::new();
        let m = FlowMatch::dst_host(HostId(1));
        t.add(FlowEntry::new(5, m, vec![FlowAction::Drop]));
        t.add(FlowEntry::new(5, m, vec![FlowAction::Output(PortId(2))]));
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup(&pkt(0, 1)),
            Some(&[FlowAction::Output(PortId(2))][..])
        );
    }

    #[test]
    fn equal_priority_earliest_wins() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(
            5,
            FlowMatch::dst_host(HostId(1)),
            vec![FlowAction::Drop],
        ));
        t.add(FlowEntry::new(
            5,
            FlowMatch::any(),
            vec![FlowAction::ToController],
        ));
        // Both match dst=1 at priority 5; the first-installed must win.
        assert_eq!(t.lookup(&pkt(0, 1)), Some(&[FlowAction::Drop][..]));
    }

    #[test]
    fn modify_rewrites_covered_entries() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(
            5,
            FlowMatch::pair(HostId(1), HostId(2)),
            vec![FlowAction::Drop],
        ));
        t.add(FlowEntry::new(
            5,
            FlowMatch::pair(HostId(3), HostId(2)),
            vec![FlowAction::Drop],
        ));
        let n = t.modify(
            &FlowMatch::dst_host(HostId(2)),
            &[FlowAction::Output(PortId(7))],
        );
        assert_eq!(n, 2);
        assert_eq!(
            t.lookup(&pkt(1, 2)),
            Some(&[FlowAction::Output(PortId(7))][..])
        );
    }

    #[test]
    fn delete_removes_covered_entries() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(
            5,
            FlowMatch::pair(HostId(1), HostId(2)),
            vec![FlowAction::Drop],
        ));
        t.add(FlowEntry::new(
            5,
            FlowMatch::pair(HostId(1), HostId(3)),
            vec![FlowAction::Drop],
        ));
        assert_eq!(t.delete(&FlowMatch::dst_host(HostId(2))), 1);
        assert_eq!(t.len(), 1);
        assert!(t.lookup(&pkt(1, 2)).is_none());
    }

    #[test]
    fn covers_is_wildcard_aware() {
        let wild = FlowMatch::dst_host(HostId(2));
        let specific = FlowMatch::pair(HostId(1), HostId(2));
        assert!(wild.covers(&specific));
        assert!(!specific.covers(&wild));
        assert!(FlowMatch::any().covers(&wild));
        assert!(wild.covers(&wild));
    }

    #[test]
    fn in_port_match() {
        let m = FlowMatch::dst_host(HostId(2)).with_in_port(PortId(1));
        assert!(m.matches(&pkt(0, 2).with_in_port(PortId(1))));
        assert!(!m.matches(&pkt(0, 2).with_in_port(PortId(9))));
        assert!(!m.matches(&pkt(0, 2))); // packet without ingress port
    }

    #[test]
    fn hard_timeout_expires() {
        let mut t = FlowTable::new();
        let e = FlowEntry::new(5, FlowMatch::any(), vec![FlowAction::Drop])
            .with_hard_timeout(Duration::from_millis(10));
        t.add_at(e, 1_000_000); // installed at 1 ms
        assert_eq!(t.expire(5_000_000), 0); // 5 ms: still alive
        assert_eq!(t.expire(11_000_000), 1); // 11 ms: gone
        assert!(t.is_empty());
    }

    #[test]
    fn entries_without_timeout_never_expire() {
        let mut t = FlowTable::with_table_miss();
        assert_eq!(t.expire(u64::MAX), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn apply_updates_statistics() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(
            5,
            FlowMatch::dst_host(HostId(1)),
            vec![FlowAction::Output(PortId(2))],
        ));
        let p = pkt(0, 1).with_payload_len(100);
        assert!(t.apply(&p).is_some());
        assert!(t.apply(&p).is_some());
        let entry = t.iter().next().unwrap();
        assert_eq!(entry.packet_count(), 2);
        assert_eq!(entry.byte_count(), 2 * p.wire_size() as u64);
        assert_eq!(t.total_packets(), 2);
        // A miss changes nothing.
        assert!(t.apply(&pkt(0, 9)).is_none());
        assert_eq!(t.total_packets(), 2);
    }

    #[test]
    fn lookup_does_not_count() {
        let t = FlowTable::with_table_miss();
        let _ = t.lookup(&pkt(1, 2));
        assert_eq!(t.total_packets(), 0);
    }

    #[test]
    fn iter_is_priority_ordered() {
        let mut t = FlowTable::new();
        t.add(FlowEntry::new(1, FlowMatch::any(), vec![FlowAction::Drop]));
        t.add(FlowEntry::new(9, FlowMatch::any(), vec![FlowAction::Drop]));
        t.add(FlowEntry::new(5, FlowMatch::any(), vec![FlowAction::Drop]));
        let prios: Vec<u16> = t.iter().map(|e| e.priority).collect();
        assert_eq!(prios, vec![9, 5, 1]);
    }
}
