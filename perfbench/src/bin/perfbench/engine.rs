//! The engine workloads: `combined_check` from miter to verdict.
//!
//! * `eq_local`: equivalent miters whose proof needs the G and L phases.
//! * `eq_po`: equivalent miters the P phase proves alone.
//! * `neq_nearmiss`: near-miss mutants of the `eq_local` families that
//!   random simulation misses, disproved through G, L and SAT.

use std::collections::BTreeMap;
use std::time::Instant;

use parsweep_aig::{miter, read_aiger, Aig};
use parsweep_core::{combined_check, CombinedConfig, CombinedResult, Verdict};
use parsweep_par::Executor;
use perfbench::circuit::{outputs_differ, random_disagreements, Circuit};
use perfbench::mutate::near_miss;
use perfbench::rng::Rng;
use perfbench::stats::{geomean, median, quantile};

use crate::spans::{self, Collector};
use crate::{service, sys, unit_in, until_elapsed, Options, Report};

/// The per-layer metrics the engine workloads read, with their units.
pub const LAYER_METRICS: [(&str, &str); 24] = [
    ("aig.parse_s", "s"),
    ("aig.miter_s", "s"),
    ("aig.input_ands", "count"),
    ("core.check_s", "s"),
    ("core.phase_p_s", "s"),
    ("core.phase_g_s", "s"),
    ("core.phase_l_s", "s"),
    ("core.phase_other_s", "s"),
    ("core.proved_pairs", "count"),
    ("core.disproved_pairs", "count"),
    ("core.common_cuts", "count"),
    ("core.inconclusive_checks", "count"),
    ("core.local_phases", "count"),
    ("core.sim_words", "count"),
    ("core.cut_yield", "ratio"),
    ("core.reduction_pct", "%"),
    ("sat.fallback_s", "s"),
    ("sat.calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.unknown_pairs", "count"),
    ("par.pool_launches", "count"),
    ("par.inline_launches", "count"),
    ("par.arena_hit_ratio", "ratio"),
    ("par.arena_peak_live_mb", "MB"),
];

/// Before the warm-up and before every round, set-ups are repeated until
/// they add up to this many seconds (at least once); `setup_s` is the
/// median of all of a run's set-ups. A set-up of a few milliseconds does
/// not repeat within a bound alone, and set-ups spread over the whole run
/// sample the machine across it rather than at one moment.
const SETUP_SECONDS_PER_ROUND: f64 = 0.1;
/// Random 64-vector words each equivalent pair must agree on.
const AGREE_WORDS: usize = 64;
/// Mutant draws tried per mutant before a base pair is given up.
const MUTANT_ATTEMPTS: usize = 256;

/// One miter of a workload, as the program and the checker see it.
struct Case {
    name: String,
    left_path: std::path::PathBuf,
    /// The right side's bytes when it is a mutant built in memory.
    right_bytes: Option<Vec<u8>>,
    left: Circuit,
    right: Circuit,
    equivalent: bool,
    /// Checks of this miter per round.
    repeats: usize,
}

impl Case {
    fn right_path(&self) -> std::path::PathBuf {
        self.left_path
            .with_file_name(format!("{}.right.aig", base_name(&self.name)))
    }
}

fn base_name(name: &str) -> &str {
    name.split('#').next().unwrap_or(name)
}

/// `(pair, checks per round)` of the two equivalence workloads.
///
/// On `eq_local` the uneven counts keep `job_ms.p50` inside the `voter41`
/// checks' times and `job_ms.p90` inside the `sqrt10` ones': with one
/// check of each, p50 fell between the two miters' times.
fn equivalent_pairs(workload: &str) -> &'static [(&'static str, usize)] {
    match workload {
        "eq_local" => &[("sqrt10_1xd", 1), ("voter41_1xd", 2)],
        _ => &[
            ("log2_12_2xd", 1),
            ("sin12_2xd", 2),
            ("square10_2xd", 4),
            ("ac97_16_2xd", 8),
            ("vga_6_2xd", 8),
        ],
    }
}

/// `(pair, condition width k, mutants)` of `neq_nearmiss`.
///
/// A mutant's check time varies from site to site, so a run needs many
/// of them: the voter bases have the cheapest and least scattered mutants
/// (see the README), and the uneven counts keep `job_ms.p50` inside the
/// `voter25` mutants' times and `job_ms.p90` inside the `voter41` ones'.
const NEAR_MISS: [(&str, usize, usize); 2] = [("voter25_2xd", 20, 4), ("voter41_1xd", 20, 2)];

fn load_pair(opts: &Options, name: &str) -> Result<(Circuit, Circuit), String> {
    let read = |side: &str| -> Result<Circuit, String> {
        let path = opts.inputs.join(format!("{name}.{side}.aig"));
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Circuit::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (left, right) = (read("left")?, read("right")?);
    if left.inputs != right.inputs || left.outputs.len() != right.outputs.len() {
        return Err(format!("{name}: the two sides have different interfaces"));
    }
    Ok((left, right))
}

/// The workload's miters for one round. Near-miss mutants are drawn anew
/// for every round from the seed and the round number; the equivalent
/// pairs are the same every round.
fn build_cases(opts: &Options, round: usize) -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    if opts.workload == "neq_nearmiss" {
        for (name, k, count) in NEAR_MISS {
            let (left, right) = load_pair(opts, name)?;
            let mut rng = Rng::stream(opts.seed, &format!("{name}/{round}"));
            for m in 0..count {
                let mutant = near_miss(&left, &right, k, (m, count), &mut rng, MUTANT_ATTEMPTS)
                    .ok_or_else(|| format!("{name}: no witnessed mutant"))?;
                let bytes = mutant.circuit.to_binary();
                cases.push(Case {
                    name: format!("{name}#{m}"),
                    left_path: opts.inputs.join(format!("{name}.left.aig")),
                    right_bytes: Some(bytes),
                    left: left.clone(),
                    right: mutant.circuit,
                    equivalent: false,
                    repeats: 1,
                });
            }
        }
    } else {
        for &(name, repeats) in equivalent_pairs(&opts.workload) {
            let (left, right) = load_pair(opts, name)?;
            let bad = random_disagreements(&left, &right, opts.seed, AGREE_WORDS);
            if bad != 0 {
                return Err(format!("{name}: sides disagree on {bad} random vectors"));
            }
            cases.push(Case {
                name: name.to_string(),
                left_path: opts.inputs.join(format!("{name}.left.aig")),
                right_bytes: None,
                left,
                right,
                equivalent: true,
                repeats,
            });
        }
    }
    Ok(cases)
}

/// What one set-up produced and how long its parts took.
struct Setup {
    miters: Vec<Aig>,
    exec: Executor,
    total_s: f64,
    parse_s: f64,
    miter_s: f64,
}

fn set_up(cases: &[Case]) -> Result<Setup, String> {
    let start = Instant::now();
    let (miters, parse_s, miter_s) = load_miters(cases)?;
    let exec = Executor::new();
    Ok(Setup {
        miters,
        exec,
        total_s: start.elapsed().as_secs_f64(),
        parse_s,
        miter_s,
    })
}

/// The set-up times of a run.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    parse: Vec<f64>,
    miter: Vec<f64>,
}

impl SetupTimes {
    /// Sets `cases` up repeatedly for `SETUP_SECONDS_PER_ROUND`, holding
    /// one set-up at a time, and returns the last one.
    fn sample(&mut self, cases: &[Case]) -> Result<Setup, String> {
        let start = Instant::now();
        loop {
            let s = set_up(cases)?;
            self.total.push(s.total_s);
            self.parse.push(s.parse_s);
            self.miter.push(s.miter_s);
            if start.elapsed().as_secs_f64() >= SETUP_SECONDS_PER_ROUND {
                return Ok(s);
            }
        }
    }
}

/// Reads, parses and miters every case; returns the miters and the
/// seconds spent in `read_aiger` and in `miter`.
fn load_miters(cases: &[Case]) -> Result<(Vec<Aig>, f64, f64), String> {
    let (mut parse_s, mut miter_s) = (0.0, 0.0);
    let mut miters = Vec::with_capacity(cases.len());
    for case in cases {
        let left_bytes = std::fs::read(&case.left_path).map_err(|e| e.to_string())?;
        let right_bytes = match &case.right_bytes {
            Some(b) => b.clone(),
            None => std::fs::read(case.right_path()).map_err(|e| e.to_string())?,
        };
        let t = Instant::now();
        let left = read_aiger(&left_bytes[..]).map_err(|e| format!("{}: {e:?}", case.name))?;
        let right = read_aiger(&right_bytes[..]).map_err(|e| format!("{}: {e:?}", case.name))?;
        parse_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        miters.push(miter(&left, &right).map_err(|e| format!("{}: {e:?}", case.name))?);
        miter_s += t.elapsed().as_secs_f64();
    }
    Ok((miters, parse_s, miter_s))
}

/// Judges one verdict against the checker.
fn judge(case: &Case, verdict: &Verdict) -> Result<(), String> {
    match verdict {
        Verdict::Equivalent if case.equivalent => Ok(()),
        Verdict::Equivalent => Err(format!(
            "{}: equivalent, but the witness differs",
            case.name
        )),
        Verdict::NotEquivalent(cex) => {
            let inputs = cex.inputs();
            if inputs.len() != case.left.inputs {
                return Err(format!(
                    "{}: counterexample has {} inputs",
                    case.name,
                    inputs.len()
                ));
            }
            if outputs_differ(&case.left, &case.right, inputs) {
                Ok(())
            } else {
                Err(format!("{}: counterexample does not replay", case.name))
            }
        }
        Verdict::Undecided => Err(format!("{}: undecided", case.name)),
    }
}

/// One line on how a check went: size, time, phases and what decided it.
fn describe(case: &Case, miter: &Aig, r: &CombinedResult, seconds: f64) -> String {
    let p = r.engine.stats.phase_times;
    let by = match (&r.verdict, r.sat.is_some()) {
        (Verdict::Equivalent, false) => "equivalent by the engine",
        (Verdict::Equivalent, true) => "equivalent by SAT",
        (Verdict::NotEquivalent(_), false) => "not equivalent by the engine",
        (Verdict::NotEquivalent(_), true) => "not equivalent by SAT",
        (Verdict::Undecided, _) => "undecided",
    };
    format!(
        "{:<14} pis {:>4} ands {:>6} {:.3}s | P {:.3} G {:.3} L {:.3} other {:.3} SAT {:.3} | {by}",
        case.name,
        case.left.inputs,
        miter.num_ands(),
        seconds,
        p.po,
        p.global,
        p.local,
        p.other,
        r.sat_seconds
    )
}

/// Per-round sums of the per-layer figures.
#[derive(Default)]
struct RoundLayers {
    values: BTreeMap<&'static str, f64>,
    initial_ands: f64,
    final_ands: f64,
}

impl RoundLayers {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    fn absorb(&mut self, r: &CombinedResult, call_s: f64) {
        let s = &r.engine.stats;
        self.add("core.check_s", call_s);
        self.add("core.phase_p_s", s.phase_times.po);
        self.add("core.phase_g_s", s.phase_times.global);
        self.add("core.phase_l_s", s.phase_times.local);
        self.add("core.phase_other_s", s.phase_times.other);
        self.add("core.proved_pairs", s.proved_pairs as f64);
        self.add("core.disproved_pairs", s.disproved_pairs as f64);
        self.add("core.common_cuts", s.common_cuts as f64);
        self.add("core.inconclusive_checks", s.inconclusive_checks as f64);
        self.add("core.local_phases", f64::from(s.local_phases));
        self.add("core.sim_words", s.sim_words as f64);
        self.initial_ands += s.initial_ands as f64;
        self.final_ands += s.final_ands as f64;
        self.add("sat.fallback_s", r.sat_seconds);
        let sat = r.sat.as_ref().map(|s| s.stats).unwrap_or_default();
        self.add("sat.calls", sat.sat_calls as f64);
        self.add("sat.conflicts", sat.conflicts as f64);
        self.add("sat.unknown_pairs", sat.unknown_pairs as f64);
    }

    fn finish(mut self, exec: &Executor) -> BTreeMap<&'static str, f64> {
        let proved = self.values.get("core.proved_pairs").copied().unwrap_or(0.0);
        let cuts = self.values.get("core.common_cuts").copied().unwrap_or(0.0);
        self.values.insert(
            "core.cut_yield",
            if cuts > 0.0 { proved / cuts } else { 0.0 },
        );
        let reduced = if self.initial_ands > 0.0 {
            100.0 * (self.initial_ands - self.final_ands) / self.initial_ands
        } else {
            0.0
        };
        self.values.insert("core.reduction_pct", reduced);
        let l = exec.stats();
        self.values.insert("par.pool_launches", l.launches as f64);
        self.values
            .insert("par.inline_launches", l.inline_launches as f64);
        let takes = l.arena_hits + l.arena_misses;
        self.values.insert(
            "par.arena_hit_ratio",
            if takes > 0 {
                l.arena_hits as f64 / takes as f64
            } else {
                0.0
            },
        );
        self.values.insert(
            "par.arena_peak_live_mb",
            l.arena_peak_live_bytes as f64 / (1024.0 * 1024.0),
        );
        self.values
    }
}

/// Runs an engine workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut cases = build_cases(opts, 0)?;
    let mut setups = SetupTimes::default();
    let Setup {
        mut miters, exec, ..
    } = setups.sample(&cases)?;
    let cfg = CombinedConfig::default();

    // The round's checks in a seeded order that stays fixed for the run.
    let mut order: Vec<usize> = cases
        .iter()
        .enumerate()
        .flat_map(|(i, c)| std::iter::repeat_n(i, c.repeats))
        .collect();
    Rng::stream(opts.seed, "order").shuffle(&mut order);

    let mut report = Report::default();
    // One unmeasured check per base pair warms caches and the allocator:
    // the first check in a process runs markedly slower than later ones.
    let mut warmed: Vec<&str> = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        if !warmed.contains(&base_name(&case.name)) {
            warmed.push(base_name(&case.name));
            let r = combined_check(&miters[i], &exec, &cfg);
            report.judge(judge(case, &r.verdict));
        }
    }

    let collector = opts.trace.then(Collector::start);
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut per_case: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut calls_ms = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut traced: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut decided: Vec<String> = vec![String::new(); cases.len()];
    let mut round_no = 0;
    until_elapsed(opts.seconds, 3, || {
        round_no += 1;
        if opts.workload == "neq_nearmiss" {
            cases = build_cases(opts, round_no)?;
        }
        // Drop the previous round's miters first, so only one set is held.
        miters.clear();
        miters = setups.sample(&cases)?.miters;
        exec.reset_stats();
        let mut round = RoundLayers::default();
        let mut wall = 0.0;
        let cpu0 = sys::cpu_seconds();
        for &i in &order {
            let span = parsweep_trace::span("bench", spans::CHECK_SPAN);
            let t = Instant::now();
            let r = combined_check(&miters[i], &exec, &cfg);
            let dt = t.elapsed().as_secs_f64();
            drop(span);
            wall += dt;
            per_case[i].push(dt);
            calls_ms.push(dt * 1000.0);
            round.absorb(&r, dt);
            report.judge(judge(&cases[i], &r.verdict));
            decided[i] = describe(&cases[i], &miters[i], &r, dt);
        }
        cpus.push(sys::cpu_seconds() - cpu0);
        walls.push(wall);
        layers.push(round.finish(&exec));
        if let Some(c) = &collector {
            traced.push(c.take_round());
        }
        Ok(())
    })?;
    drop(collector);

    eprintln!(
        "perfbench: round walls {}",
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    report.set("setup_s", median(&setups.total), "s");
    report.set("wall_s", median(&walls), "s");
    report.set("cpu_s", median(&cpus), "s");
    report.set("peak_rss_mb", sys::peak_rss_mb(), "MB");
    let per_miter: Vec<f64> = per_case.iter().map(|t| median(t)).collect();
    report.set("verdict_s.geomean", geomean(&per_miter), "s");
    report.set("job_ms.p50", median(&calls_ms), "ms");
    report.set("job_ms.p90", quantile(&calls_ms, 0.9), "ms");

    for line in &decided {
        eprintln!("perfbench: {line}");
    }
    report.set("aig.parse_s", median(&setups.parse), "s");
    report.set("aig.miter_s", median(&setups.miter), "s");
    let ands: usize = miters.iter().map(Aig::num_ands).sum();
    report.set("aig.input_ands", ands as f64, "count");
    set_medians(&mut report, &layers, |name| unit_in(&LAYER_METRICS, name));
    set_medians(&mut report, &traced, |_| "s");
    report.zero_fill(&service::LAYER_METRICS);
    Ok(report)
}

/// Reports, for each metric of the rounds, its median over the rounds.
pub fn set_medians(
    report: &mut Report,
    rounds: &[BTreeMap<&'static str, f64>],
    unit: impl Fn(&str) -> &'static str,
) {
    let Some(first) = rounds.first() else {
        return;
    };
    for &name in first.keys() {
        let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(name).copied()).collect();
        report.set(name, median(&values), unit(name));
    }
}
