//! The metric catalogue: names, units, directions and regression
//! bounds. `BENCHMARK.json` at the repository root states the same
//! table for the driver; a test keeps the two in step.

/// One measured value of a catalogued metric.
pub struct Reading {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric and the share of the baseline's median by
/// which it may worsen before that counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening, as a share of the baseline median.
    pub bound: f64,
}

/// The five end-to-end metrics, reported by every workload. The bounds
/// are set from the noise study in NOISE.md: each is at least three
/// times the widest interquartile spread seen for it on any workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "round_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "round_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "rounds_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Every per-layer metric a traced run prints: `(name, unit, better)`.
/// They have no bound; README.md says which end-to-end metric each is
/// expected to move, and on which workload.
pub const PER_LAYER: [(&str, &str, Better); 42] = [
    ("crypto.sha256_mb_per_s", "MB/s", Better::Higher),
    ("crypto.schnorr_sign_us", "us", Better::Lower),
    ("crypto.schnorr_verify_us", "us", Better::Lower),
    ("chain.block_build_us", "us", Better::Lower),
    ("chain.append_us", "us", Better::Lower),
    ("chain.wal_append_us", "us", Better::Lower),
    ("chain.wal_sync_ms", "ms", Better::Lower),
    ("chain.store_append_us", "us", Better::Lower),
    ("consensus.instance_us_b1", "us", Better::Lower),
    ("consensus.instance_us_b64", "us", Better::Lower),
    ("consensus.msgs_per_instance", "count", Better::Lower),
    ("consensus.e2e_p50_us", "us", Better::Lower),
    ("consensus.prepare_p50_us", "us", Better::Lower),
    ("consensus.commit_p50_us", "us", Better::Lower),
    ("net.frame_encode_ns", "ns", Better::Lower),
    ("net.frame_decode_ns", "ns", Better::Lower),
    ("net.group_commit_us", "us", Better::Lower),
    ("net.write_p50_us", "us", Better::Lower),
    ("net.poll_wait_p50_us", "us", Better::Lower),
    ("net.events_per_wake", "count", Better::Higher),
    ("net.backpressure_drops", "count", Better::Lower),
    ("net.decode_copy_bytes", "B", Better::Lower),
    ("runner.payloads_per_batch", "count", Better::Higher),
    ("runner.msgs_per_round", "count", Better::Lower),
    ("cluster.round_p50_ms", "ms", Better::Lower),
    ("cluster.intra_p50_ms", "ms", Better::Lower),
    ("cluster.final_p50_ms", "ms", Better::Lower),
    ("cluster.unattributed_ms", "ms", Better::Lower),
    ("cluster.wire_encode_ns", "ns", Better::Lower),
    ("cluster.wire_decode_ns", "ns", Better::Lower),
    ("cluster.reass_ms", "ms", Better::Lower),
    ("cluster.threads", "count", Better::Lower),
    ("cluster.cpu_us_per_round", "us", Better::Lower),
    ("assign.solve_ms", "ms", Better::Lower),
    ("core.sim_rounds_per_s", "1/s", Better::Higher),
    ("core.sim_round_ms", "ms", Better::Lower),
    ("core.reply_match_ns", "ns", Better::Lower),
    ("sdn.flow_install_ns", "ns", Better::Lower),
    ("sdn.flow_lookup_ns", "ns", Better::Lower),
    ("telemetry.overhead_pct", "%", Better::Lower),
    ("telemetry.span_record_ns", "ns", Better::Lower),
    ("gen.inject_lag_p99_us", "us", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// The word `BENCHMARK.json` uses for a direction.
    fn word(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `BENCHMARK.json` is written one metric or workload per line, so
    /// the check is a line lookup rather than a JSON parser.
    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_states_the_same_end_to_end_table() {
        let json = benchmark_json();
        for m in END_TO_END {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                word(m.better),
                m.bound
            );
            assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        }
        assert_eq!(json.matches("\"bound\":").count(), END_TO_END.len());
    }

    #[test]
    fn benchmark_json_lists_every_per_layer_metric_and_workload() {
        let json = benchmark_json();
        for (name, unit, better) in PER_LAYER {
            let line = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                word(better)
            );
            assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        }
        assert_eq!(
            json.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": ", w.name);
            assert!(
                json.contains(&entry),
                "BENCHMARK.json lacks workload {}",
                w.name
            );
        }
        assert_eq!(json.matches("\"why\":").count(), WORKLOADS.len());
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, max: usize, extra: &str| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(ok(name, 64, "_.-"), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a metric name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(ok(unit, 16, "_/%.-"), "{unit}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
