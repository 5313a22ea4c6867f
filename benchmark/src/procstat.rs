//! This process's CPU time, peak memory and thread count, read from
//! `/proc/self` (the cluster under test runs in the harness's own
//! process, so these are the controller + agent costs an edge box pays).

use std::fs;

/// Linux's `USER_HZ`: `/proc/<pid>/stat` reports CPU time in these
/// ticks on every architecture the kernel exposes to user space.
const TICKS_PER_S: f64 = 100.0;

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so the
/// fields are counted from the *last* `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3 (state); utime and stime are 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`, in
/// clock ticks: time the hypervisor ran something else while this
/// machine had work to do. 0 where the column is absent.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    Some(
        line.split_ascii_whitespace()
            .nth(8)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    )
}

/// A `Name:   <n> kB` line's value from the text of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, name: &str) -> Option<u64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(name)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds (user + system) this process has consumed so far.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let (utime, stime) = parse_cpu_ticks(&stat).expect("parse /proc/self/stat");
    (utime + stime) as f64 / TICKS_PER_S
}

/// Seconds of CPU time the hypervisor has withheld from this machine
/// since boot, summed over its CPUs.
pub fn steal_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
    parse_steal_ticks(&stat).expect("cpu line in /proc/stat") as f64 / TICKS_PER_S
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Live OS threads of this process.
pub fn threads() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, "Threads").expect("Threads in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (curb) bench (x)) S 1 4242 4242 0 -1 4194560 2910 0 0 0 \
                    731 269 0 0 20 0 83 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some((731, 269)));
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parens"), None);
    }

    #[test]
    fn steal_is_the_eighth_column_of_the_aggregate_line() {
        let stat = "cpu  2261985 0 1337028 5670526 17341 0 255239 294822 0 0\n\
                    cpu0 1156187 0 674311 2794308 11679 0 127450 148434 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(294822));
        assert_eq!(parse_steal_ticks("cpu  1 2 3 4\n"), Some(0));
        assert_eq!(parse_steal_ticks("intr 5\n"), None);
    }

    #[test]
    fn status_lines_are_matched_by_whole_name() {
        let status = "Name:\tcurbbench\nVmHWMx:\t1 kB\nVmHWM:\t  20480 kB\nThreads:\t83\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(status, "Threads"), Some(83));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
        assert!(steal_seconds() >= 0.0);
    }
}
