//! The parsweep benchmark: runs one workload for a fixed time and
//! prints its metrics as one JSON object on the last line of stdout.
//!
//! ```text
//! perfbench --workload eq_local|eq_po|neq_nearmiss|svc_mixed --seed N
//!           --seconds S --trace 0|1 [--inputs DIR] [--work DIR]
//! ```
//!
//! `--trace 1` needs a build with the program's `trace` feature; it
//! records spans and adds the `*_self_s` metrics. `perfbench/run.py` is
//! the command that builds both variants and combines their runs.

mod engine;
mod service;
mod spans;
mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Environment variables that change the program being measured.
const FORBIDDEN_ENV: [&str; 3] = ["PARSWEEP_SANITIZE", "PARSWEEP_INLINE", "PARSWEEP_TRACE"];

/// Hard cap on a run, kept below the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Command-line options.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inputs: PathBuf,
    pub work: PathBuf,
    /// `svc_mixed` only: play the warm-up and then round `n` alone, and
    /// report this process's own peak memory (see
    /// `service::probe_peak_rss`).
    pub rss_probe: Option<usize>,
}

/// Everything a workload reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for stderr.
    pub failures: Vec<String>,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Reports 0 for each of `metrics` this workload did not set: the
    /// figures of layers it does not pass through.
    pub fn zero_fill(&mut self, metrics: &[(&str, &'static str)]) {
        for &(name, unit) in metrics {
            self.metrics.entry(name.to_string()).or_insert((0.0, unit));
        }
    }

    /// Whether the run attempted something and no operation failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Records one judged operation.
    pub fn judge(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }
}

/// The unit of `name` in a workload's list of layer metrics.
pub fn unit_in(metrics: &[(&str, &'static str)], name: &str) -> &'static str {
    metrics
        .iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .unwrap_or_else(|| panic!("{name} is not a listed layer metric"))
}

/// Runs `round` until `seconds` have passed, always at least `min` times.
pub fn until_elapsed(
    seconds: f64,
    min: usize,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed().as_secs_f64() < seconds {
        round()?;
        n += 1;
    }
    Ok(())
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        inputs: PathBuf::from("perfbench/inputs"),
        work: PathBuf::from("perfbench/work"),
        rss_probe: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--inputs" => opts.inputs = value.into(),
            "--work" => opts.work = value.into(),
            "--rss-probe" => opts.rss_probe = Some(value.parse().map_err(|_| "bad --rss-probe")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn main() {
    let opts = parse_args().unwrap_or_else(|e| die(&e));
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            die(&format!(
                "{var} is set; it changes the program being measured"
            ));
        }
    }
    if opts.trace && !parsweep_trace::compiled() {
        die("--trace 1 needs a build with the program's trace feature");
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "perfbench: run exceeded {} s, giving up",
            WATCHDOG.as_secs()
        );
        std::process::exit(3);
    });
    let report = match opts.workload.as_str() {
        "eq_local" | "eq_po" | "neq_nearmiss" => engine::run(&opts),
        "svc_mixed" => service::run(&opts),
        other => die(&format!("unknown workload {other:?}")),
    };
    let report = report.unwrap_or_else(|e| die(&e));
    for f in &report.failures {
        eprintln!("perfbench: failed: {f}");
    }
    if opts.rss_probe.is_some() {
        // A memory probe's parent reads this flat line (see
        // `service::probe_once`).
        let peak = report.metrics.get("peak_rss_mb").map_or(0.0, |m| m.0);
        println!(
            "{{\"attempted\": {}, \"failed\": {}, \"peak_rss_mb\": {peak}}}",
            report.attempted, report.failed
        );
        return;
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_judgement_makes_the_run_incorrect() {
        let mut r = Report::default();
        assert!(!r.correct(), "nothing attempted");
        r.judge(Ok(()));
        assert!(r.correct());
        r.judge(Err("wrong verdict".into()));
        r.judge(Ok(()));
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (3, 1));
        assert_eq!(r.failures, ["wrong verdict"]);
    }

    /// `(name, unit)` of each object in `section` of BENCHMARK.json.
    fn spec_metrics(section: &str) -> Vec<(String, String)> {
        let spec = include_str!("../../../../BENCHMARK.json");
        let start = spec.find(&format!("\"{section}\"")).expect("section");
        let end = spec[start..].find(']').map_or(spec.len(), |e| start + e);
        let field = |key: &str| -> Vec<String> {
            spec[start..end]
                .split(&format!("\"{key}\": \""))
                .skip(1)
                .map(|rest| rest.split('"').next().unwrap_or("").to_string())
                .collect()
        };
        field("name").into_iter().zip(field("unit")).collect()
    }

    #[test]
    fn layer_metric_lists_match_the_benchmark_spec() {
        let mut listed: Vec<(String, String)> = engine::LAYER_METRICS
            .iter()
            .chain(service::LAYER_METRICS.iter())
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .chain(spans::metric_names().map(|n| (n.to_string(), "s".to_string())))
            .chain([("trace.overhead_ratio".to_string(), "ratio".to_string())])
            .collect();
        let mut spec = spec_metrics("per_layer");
        listed.sort();
        spec.sort();
        assert_eq!(listed, spec);
    }

    #[test]
    fn zero_fill_keeps_measured_values() {
        let mut r = Report::default();
        r.set("svc.memo_hits", 9.0, "count");
        r.zero_fill(&[("svc.memo_hits", "count"), ("svc.shards", "count")]);
        assert_eq!(r.metrics["svc.memo_hits"], (9.0, "count"));
        assert_eq!(r.metrics["svc.shards"], (0.0, "count"));
    }
}
