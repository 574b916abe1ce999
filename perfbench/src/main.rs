//! Two-clock benchmark of the pscc workspace.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Workloads: `des-peers-hotcold` and `des-cs-uniform` time paper-scale
//! DES figure points in wall-clock time. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer ones; the traced
//! `des-peers-hotcold` run also runs a real-clock closed loop on the
//! threaded cluster for the `threaded.*` and `net.*` layers. Every run
//! checks the program's outputs; the last line of standard output is one
//! JSON object, and the exit code is non-zero if a check failed.

mod des;
mod replica;
mod rt;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Output checks of one run: what failed.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; `why` describes a failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }
}

/// The result of one run: its checks and named metric values.
#[derive(Debug)]
pub struct Measured {
    /// Output checks made.
    pub checks: Checks,
    /// Operations attempted: runs of a DES point, or transactions.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Measured {
    fn new(checks: Checks) -> Self {
        Measured {
            checks,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
        }
    }

    fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Adds another measurement's checks, operations and metrics.
    fn absorb(&mut self, other: Measured) {
        self.checks.failures.extend(other.checks.failures);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.values.extend(other.values);
    }

    /// Reports on standard error the highest percentile of `samples`
    /// with ten samples beyond it.
    fn tail(&self, what: &str, samples: &[f64]) {
        if let Some(t) = stats::tail(samples) {
            eprintln!(
                "{what} tail: p{} = {:.1} us over {} samples",
                t.pct, t.value, t.n
            );
        }
    }
}

/// The end-to-end metrics (`--trace 0`), with units.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("wall_s", "s"),
        ("peak_rss_mb", "MiB"),
        ("txn_per_s", "1/s"),
        ("txn_p50_us", "us"),
        ("commit_p50_us", "us"),
        ("commit_ratio", "ratio"),
    ]
    .map(|(n, u)| (n.to_string(), u))
    .to_vec()
}

/// The per-layer metrics (`--trace 1`), with units. A layer a workload
/// does not run, or that cannot be seen from outside it, reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = [
        ("sim.events", "count"),
        ("sim.nondeterministic_runs", "count"),
        ("sim.self_share", "ratio"),
        ("sim.ns_per_event", "ns"),
        ("core.handle_share", "ratio"),
    ]
    .map(|(n, u)| (n.to_string(), u))
    .to_vec();
    for kind in replica::KINDS {
        v.push((format!("core.{kind}.calls"), "count"));
        v.push((format!("core.{kind}.us"), "us"));
        v.push((format!("core.{kind}.share"), "ratio"));
    }
    v.extend(
        [
            ("core.cache_hit_ratio", "ratio"),
            ("core.msgs_per_commit", "ratio"),
            ("core.callbacks_per_commit", "ratio"),
            ("core.adaptive_grants", "count"),
            ("wal.forces", "count"),
            ("wal.tail_records_max", "count"),
            ("wal.durable_log_mb", "MiB"),
            ("storage.page_reads", "count"),
            ("storage.page_writes", "count"),
            ("lockmgr.lock_waits", "count"),
            ("lockmgr.deadlock_aborts", "count"),
            ("lockmgr.timeout_aborts", "count"),
            ("threaded.begin_us_p50", "us"),
            ("threaded.read_local_us_p50", "us"),
            ("threaded.read_remote_us_p50", "us"),
            ("threaded.write_local_us_p50", "us"),
            ("threaded.write_remote_us_p50", "us"),
            ("threaded.commit_us_p50", "us"),
            ("threaded.commit_us_p99", "us"),
            ("threaded.txn_us_p99", "us"),
            ("net.remote_extra_us", "us"),
            ("net.busy_retries", "count"),
            ("net.requests_shed", "count"),
            ("net.credits_stalled", "count"),
            ("net.codec.encode_ns", "ns"),
            ("net.codec.decode_ns", "ns"),
            ("net.codec.bytes_per_msg", "bytes"),
            ("obs.trace_on_ratio", "ratio"),
        ]
        .map(|(n, u)| (n.to_string(), u)),
    );
    v
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["des-peers-hotcold", "des-cs-uniform"];

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(a)
}

fn run(a: &Args) -> Measured {
    let seconds = a.seconds;
    match (a.workload.as_str(), a.trace) {
        ("des-peers-hotcold", false) => des::untraced(&des::PEERS_HOTCOLD, a.seed, seconds),
        ("des-peers-hotcold", true) => {
            // The threaded loop first, before the DES runs grow the heap.
            let threaded = rt::layers(a.seed);
            let mut m = des::traced(&des::PEERS_HOTCOLD, a.seed, seconds);
            m.absorb(threaded);
            m
        }
        ("des-cs-uniform", false) => des::untraced(&des::CS_UNIFORM, a.seed, seconds),
        ("des-cs-uniform", true) => des::traced(&des::CS_UNIFORM, a.seed, seconds),
        _ => unreachable!("workload validated by parse"),
    }
}

/// Formats the result line: every metric of the selected set, by name,
/// with its unit.
fn result_json(m: &Measured, metrics: &[(String, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            let v = m.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.checks.failures.is_empty(),
        m.attempted.max(1),
        m.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let m = run(&a);
    let metrics = if a.trace { per_layer() } else { end_to_end() };
    for (name, unit) in &metrics {
        let v = m.values.get(name).copied().unwrap_or(0.0);
        eprintln!("{name:<32} {v:>16.4} {unit}");
    }
    for f in &m.checks.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", result_json(&m, &metrics));
    if m.checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the program agree on every metric and unit.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let all: Vec<(String, &str)> = end_to_end().into_iter().chain(per_layer()).collect();
        for (name, unit) in &all {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), all.len());
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn result_line_has_every_metric_and_a_failed_check_shows() {
        let mut m = Measured::new(Checks::default());
        (m.attempted, m.failed) = (5, 1);
        m.put("wall_s", 1.25);
        let metrics = end_to_end();
        let line = result_json(&m, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 1,"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), metrics.len());
        m.checks.check(false, || "x".to_string());
        assert!(result_json(&m, &metrics).starts_with("{\"correct\": false,"));
    }

    #[test]
    fn arguments_are_checked() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let a = parse(&s(&[
            "--workload",
            "des-cs-uniform",
            "--seed",
            "7",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((a.seed, a.trace), (7, true));
        assert!(parse(&s(&["--workload", "nope"])).is_err());
        assert!(parse(&s(&["--workload", "rt-inproc"])).is_err());
        assert!(parse(&s(&["--workload", "des-cs-uniform", "--trace", "2"])).is_err());
        assert!(parse(&s(&["--workload", "des-cs-uniform", "--seconds"])).is_err());
    }
}
