//! The repository benchmark: drives the public crate APIs in-process and
//! prints end-to-end metrics (untraced run) or per-layer metrics (traced
//! run) for one workload.
//!
//! ```text
//! archdse-perfbench --workload <explore-general|serve-hf|serve-lf>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed output
//! check makes the process exit with code 1. Without `--workload`, every
//! workload runs in a child process of its own, untraced and then
//! traced. See README.md for the workloads, metrics and checks.

mod explore;
mod serve;
mod timed;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

const WORKLOADS: [&str; 3] = ["explore-general", "serve-hf", "serve-lf"];

/// Files whose bytes a run must leave untouched.
const GUARDED_DIR: &str = "results";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; expected one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

/// The end-to-end metrics an untraced run prints, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("explore_s", "s"),
    ("best_cpi", "cpi"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics a traced run prints, with their units. A layer
/// the workload leaves idle reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("workloads.trace_build_ms", "ms"),
    ("mfrl.lf_phase_ms", "ms"),
    ("analytical.mask_ms", "ms"),
    ("analytical.mask_calls", "count"),
    ("analytical.cpi_ms", "ms"),
    ("analytical.cpi_calls", "count"),
    ("area.fits_ms", "ms"),
    ("area.fits_calls", "count"),
    ("mfrl.policy_ms", "ms"),
    ("fnn.forward_us", "us"),
    ("mfrl.reinforce_us", "us"),
    ("mfrl.hf_phase_ms", "ms"),
    ("fnn.rules_ms", "ms"),
    ("sim.batch_ms", "ms"),
    ("sim.designs", "count"),
    ("sim.minstr_per_s", "Minstr/s"),
    ("ledger.lf_evals", "count"),
    ("ledger.hf_evals", "count"),
    ("ledger.hf_hits", "count"),
    ("explore.unattributed_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.coalesce_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("client.gap_ms", "ms"),
    ("serve.requests_per_batch", "req/batch"),
    ("serve.points_per_batch", "points/batch"),
    ("serve.hf_cache_hits", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one run produced: operation counts, metrics and failed checks.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    failures: Vec<String>,
}

impl Outcome {
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a metric named in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.metrics.push((name, value));
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Every declared metric of the run's kind, with its unit and value.
    fn table(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        declared
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
                assert!(trace || value.is_some(), "end-to-end metric {name} was not measured");
                (name, unit, value.unwrap_or(0.0))
            })
            .collect()
    }

    fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .table(trace)
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values`: the mean of the two middle values when their
/// count is even (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile, as `archdse_serve::LatencyStats` computes it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate CPU jiffies `(steal, total)` from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Every file under `dir` with its bytes, in path order.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap_or_default();
                out.push((path, bytes));
            }
        }
    }
    out.sort();
    out
}

fn run_one(args: &Args, workload: &str) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    println!(
        "workload: {workload} (seed {}, {} s, trace {})",
        args.seed, args.seconds, args.trace as u8
    );
    println!("revision: {}", git_revision());
    println!("nproc: {nproc}");
    println!("build profile: {profile}");
    let guarded = snapshot(Path::new(GUARDED_DIR));
    let jiffies_before = cpu_jiffies();

    let mut outcome = Outcome::default();
    let result = match workload {
        "explore-general" => {
            explore::run(args.seed, args.seconds, args.trace, &mut outcome);
            Ok(())
        }
        "serve-hf" => {
            serve::run(&serve::SERVE_HF, args.seed, args.seconds, args.trace, &mut outcome)
        }
        "serve-lf" => {
            serve::run(&serve::SERVE_LF, args.seed, args.seconds, args.trace, &mut outcome)
        }
        _ => unreachable!("workload names are validated at parse"),
    };
    if let Err(e) = result {
        eprintln!("error: {workload}: {e}");
        return ExitCode::FAILURE;
    }
    if !args.trace {
        outcome.metric("peak_rss_mb", peak_rss_mb());
    }
    outcome.check(snapshot(Path::new(GUARDED_DIR)) == guarded, || {
        format!("{GUARDED_DIR}/ changed during the run")
    });

    if let (Some((s0, t0)), Some((s1, t1))) = (jiffies_before, cpu_jiffies()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("cpu steal: {:.1}% of CPU time over the run", 100.0 * share);
    }
    println!("operations: {} attempted, {} failed", outcome.attempted, outcome.failed);
    for (name, unit, value) in outcome.table(args.trace) {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    for f in &outcome.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", outcome.json(args.trace));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, untraced then traced.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.clone() {
        Some(workload) => run_one(&args, &workload),
        None => run_all(&args),
    }
}
