//! curbbench — the repository's benchmark of the socket control plane.
//!
//! ```text
//! curbbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! curbbench compare <set-a.jsonl> <set-b.jsonl>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the workload untraced and traced, probes every
//! layer, and prints the per-layer metrics. README.md beside this
//! package has the metric and workload catalogue.

mod compare;
mod drive;
mod metrics;
mod probe;
mod procstat;
mod stats;
mod trace;
mod workload;

use drive::{cold_cycle, Outcome, Plan, MAX_INJECT_LAG_P50_US};
use metrics::{Reading, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use trace::{counter_sum, span_p50_ns, Recorder, SpanId};
use workload::Workload;

/// Windows of an end-to-end run; `--seconds` is split evenly over them.
const WINDOWS: usize = 10;

/// Windows of each of a traced run's two launches, of the same length.
const TRACED_WINDOWS: usize = 3;

/// Cold launch cycles behind `setup_s`.
const COLD_CYCLES: usize = 15;

/// Cycles dropped from each end before `setup_s` averages the rest.
/// A cycle ends on the first accepted flow rule, which waits on poll
/// timers in whatever phase they are in; on `wan_open` the cycles fall
/// into two clusters 25 % apart, and the median of 15 lands in one or
/// the other (NOISE.md).
const COLD_TRIM: usize = 2;

/// Where traced runs leave their span files, relative to the
/// repository root the benchmark is run from.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::named(value).ok_or_else(|| format!("no workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (1.0..=600.0).contains(&s)) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--out" => out = Some(value.to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The line the driver reads: the last line of standard output.
fn result_line(attempted: u64, failed: u64, readings: &[Reading]) -> String {
    let body: Vec<String> = readings
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Prints what a launch saw, window by window, on standard error.
fn narrate(w: &Workload, label: &str, o: &Outcome) {
    for (k, win) in o.per_window.iter().enumerate() {
        eprintln!(
            "curbbench: {} {label} window {k}: {} rounds at {:.2}/s, p50 {:.3} ms, p95 {:.3} ms, \
             cpu {:.3} s, stolen {:.2} s, inject lag p99 {:.0} us",
            w.name,
            win.rounds,
            win.rate_per_s,
            win.p50_ms,
            win.p95_ms,
            win.cpu_s,
            win.steal_s,
            win.lag_p99_us
        );
    }
    eprintln!(
        "curbbench: {} {label}: attempted {} failed {} duplicate accepts {} pooled p99 {:.3} ms \
         inject lag p50 {:.1} us p99 {:.1} us threads {} reass {:?} ms, {} of {} windows undisturbed",
        w.name,
        o.attempted,
        o.failed,
        o.duplicates,
        o.pooled_p99_ms,
        o.inject_lag_p50_us,
        o.inject_lag_p99_us,
        o.threads,
        o.reass_ms,
        o.quiet_windows(),
        o.per_window.len(),
    );
}

/// The correctness gate of one launch.
fn verdict(label: &str, o: &Outcome) -> Result<(), String> {
    if !o.violations.is_empty() {
        return Err(format!(
            "{label}: outputs are wrong: {}",
            o.violations.join("; ")
        ));
    }
    if o.inject_lag_p50_us > MAX_INJECT_LAG_P50_US {
        return Err(format!(
            "{label}: invalid run: the generator raised requests {:.0} us late at the median \
             (limit {MAX_INJECT_LAG_P50_US:.0} us)",
            o.inject_lag_p50_us
        ));
    }
    Ok(())
}

fn run_end_to_end(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let mut cold: Vec<f64> = Vec::with_capacity(COLD_CYCLES);
    let mut wedged = 0;
    while cold.len() < COLD_CYCLES {
        match cold_cycle(w) {
            Some(took) => cold.push(took.as_secs_f64()),
            None if wedged < COLD_CYCLES => wedged += 1,
            None => return Err(format!("{wedged} cold launches wedged")),
        }
    }
    cold.sort_by(f64::total_cmp);
    let setup_s = stats::trimmed_mean(&cold, COLD_TRIM).expect("cold cycles ran");
    eprintln!(
        "curbbench: {} setup_s {setup_s:.4}, the mean of {COLD_CYCLES} cold cycles without the \
         {COLD_TRIM} fastest and slowest ({wedged} wedged launches repeated): {cold:.4?}",
        w.name
    );

    let window = Duration::from_secs_f64(args.seconds / WINDOWS as f64);
    let plan = Plan {
        seed: args.seed,
        warmup: window,
        window,
        windows: WINDOWS,
    };
    let outcome = drive::run(w, &plan);
    narrate(w, "untraced", &outcome);
    let values = [
        setup_s,
        outcome.round_p50_ms(),
        outcome.round_p95_ms(),
        outcome.rounds_per_s(),
        procstat::peak_rss_mb(),
    ];
    let readings: Vec<Reading> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Reading {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect();
    verdict("untraced", &outcome)?;
    let (attempted, failed) = (outcome.attempted, outcome.failed);

    if let Some(path) = &args.out {
        let mut record = format!("{{\"workload\":\"{}\",\"seed\":{}", w.name, args.seed);
        let _ = write!(record, ",\"attempted\":{attempted},\"failed\":{failed}");
        for r in &readings {
            let _ = write!(record, ",\"{}\":{}", r.name, r.value);
        }
        record.push_str("}\n");
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("--out {path}: {e}"))?;
    }
    Ok(result_line(attempted, failed, &readings))
}

/// Harness spans for one launch: the launch itself, its warm-up and
/// windows, and one span per request (due → accepted).
fn launch_spans(rec: &mut Recorder, parent: SpanId, label: &str, plan: &Plan, o: &Outcome) {
    let at = |d: Duration| o.t0_clock_ns + d.as_nanos() as u64;
    let launch = rec.push(
        format!("launch.{label}"),
        at(Duration::ZERO),
        at(plan.measured()),
        Some(parent),
        None,
    );
    rec.push(
        "warmup",
        at(Duration::ZERO),
        at(plan.warmup),
        Some(launch),
        None,
    );
    for k in 0..plan.windows as u32 {
        rec.push(
            format!("window.{k}"),
            at(plan.warmup + plan.window * k),
            at(plan.warmup + plan.window * (k + 1)),
            Some(launch),
            None,
        );
    }
    for (idx, op) in o.ops.iter().enumerate() {
        if let Some(accepted_ns) = op.accepted_ns {
            rec.push(
                "gen.request",
                o.t0_clock_ns + op.req.due_ns,
                o.t0_clock_ns + accepted_ns,
                Some(launch),
                Some(idx as u64),
            );
        }
    }
}

fn run_traced(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let window = Duration::from_secs_f64(args.seconds / WINDOWS as f64);
    let plan = Plan {
        seed: args.seed,
        warmup: window,
        window,
        windows: TRACED_WINDOWS,
    };
    let mut rec = Recorder::default();
    let root = rec.open(format!("run.{}", w.name), None);

    // The same launch twice: tracing off, then on. The difference in
    // CPU per round is what tracing costs.
    let base = drive::run(w, &plan);
    narrate(w, "untraced", &base);
    launch_spans(&mut rec, root, "untraced", &plan, &base);
    verdict("untraced", &base)?;

    curb_telemetry::enable();
    let traced = drive::run(w, &plan);
    curb_telemetry::disable();
    let spans = curb_telemetry::drain();
    narrate(w, "traced", &traced);
    launch_spans(&mut rec, root, "traced", &plan, &traced);
    verdict("traced", &traced)?;
    if let Some((pair, _)) = traced
        .configs
        .iter()
        .find(|(pair, config)| base.configs.get(*pair).is_some_and(|c| c != *config))
    {
        return Err(format!(
            "{pair:?}: the traced and the untraced launch accepted different configs"
        ));
    }

    let probes = rec.open("probes", Some(root));
    let probed = probe::run_all(&mut rec, probes, &Path::new(OUT_DIR).join("probe-scratch"));
    rec.close(probes);

    let us = |name| span_p50_ns(&spans, name).unwrap_or(0.0) / 1e3;
    let ms = |name| span_p50_ns(&spans, name).unwrap_or(0.0) / 1e6;
    let (round, intra, fin) = (
        ms("cluster.round"),
        ms("cluster.intra"),
        ms("cluster.final"),
    );
    let registries = &traced.registries;
    let rounds = (traced.attempted - traced.failed).max(1) as f64;
    let decided = counter_sum(registries, "runner.decided").max(1) as f64;
    let harvested = [
        ("consensus.e2e_p50_us", us("consensus.e2e")),
        ("consensus.prepare_p50_us", us("consensus.prepare")),
        ("consensus.commit_p50_us", us("consensus.commit")),
        (
            "runner.payloads_per_batch",
            counter_sum(registries, "runner.delivered") as f64 / decided,
        ),
        (
            "runner.msgs_per_round",
            counter_sum(registries, "runner.outbound") as f64 / rounds,
        ),
        ("cluster.round_p50_ms", round),
        ("cluster.intra_p50_ms", intra),
        ("cluster.final_p50_ms", fin),
        ("cluster.unattributed_ms", round - intra - fin),
        ("cluster.reass_ms", traced.reass_ms.unwrap_or(0.0)),
        ("cluster.threads", traced.threads as f64),
        ("cluster.cpu_us_per_round", base.cpu_us_per_round()),
        (
            "telemetry.overhead_pct",
            (traced.cpu_us_per_round() / base.cpu_us_per_round() - 1.0) * 100.0,
        ),
        ("gen.inject_lag_p99_us", base.inject_lag_p99_us),
    ];
    // Report in catalogue order, and only what the catalogue names.
    let mut readings = Vec::with_capacity(PER_LAYER.len());
    for (name, unit, _) in PER_LAYER {
        let value = harvested
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .or_else(|| probed.iter().find(|r| r.name == name).map(|r| r.value))
            .ok_or_else(|| format!("no reading for per-layer metric {name}"))?;
        readings.push(Reading { name, value, unit });
    }

    rec.close(root);
    let path = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", w.name));
    trace::write_trace(&path, &rec, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "curbbench: {} harness spans and {} program spans -> {}",
        rec.spans().len(),
        spans.len(),
        path.display()
    );
    Ok(result_line(
        base.attempted + traced.attempted,
        base.failed + traced.failed,
        &readings,
    ))
}

fn run_compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("compare takes two result files: <set-a.jsonl> <set-b.jsonl>".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, agree) = compare::report(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(agree)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match run_compare(&argv[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("curbbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("curbbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    };
    match run {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("curbbench: {e}");
            ExitCode::FAILURE
        }
    }
}
