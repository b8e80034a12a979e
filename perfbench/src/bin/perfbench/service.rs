//! The `svc_mixed` workload: two closed-loop clients talk to a
//! `parsweep-net` server over loopback TCP.
//!
//! Each round starts a fresh server (the set-up that `setup_s` times),
//! connects both clients and plays the same job lists: every Tiny family
//! pair once, a witnessed near-miss mutant of each, exact repeats of the
//! equivalent pairs (served by the job memo) and repeats re-encoded with
//! their outputs permuted (served by the cone cache tiers). A client sends
//! its next job only after the previous result arrives, and repeats always
//! follow their original on the same client, so every repeat finds its
//! original settled.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use parsweep_net::{NetConfig, NetServer};
use perfbench::circuit::{outputs_differ, random_disagreements, Circuit};
use perfbench::json::{self, Object};
use perfbench::mutate::near_miss;
use perfbench::rng::Rng;
use perfbench::stats::{geomean, median, quantile};

use crate::engine::{self, set_medians};
use crate::spans::{self, Collector};
use crate::{sys, unit_in, until_elapsed, Options, Report};

/// The per-layer metrics `svc_mixed` reads, with their units.
pub const LAYER_METRICS: [(&str, &str); 9] = [
    ("svc.memo_hits", "count"),
    ("svc.cache_hits", "count"),
    ("svc.cache_semantic_hits", "count"),
    ("svc.cache_hit_ratio", "ratio"),
    ("svc.shards", "count"),
    ("svc.service_ms.p50", "ms"),
    ("svc.queue_wait_ms.p90", "ms"),
    ("net.overhead_ms.p50", "ms"),
    ("svc.worker_utilization", "ratio"),
];

/// The Tiny families, split between the two clients by cost.
const FAMILIES: [[&str; 5]; 2] = [
    [
        "tiny_log2_1xd",
        "tiny_hyp_1xd",
        "tiny_multiplier_1xd",
        "tiny_ac97_ctrl_1xd",
        "tiny_square_1xd",
    ],
    [
        "tiny_sin_1xd",
        "tiny_sqrt_1xd",
        "tiny_vga_lcd_1xd",
        "tiny_voter_1xd",
        "",
    ],
];
/// Exact repeats of each equivalent pair per round (job memo).
const MEMO_REPEATS: usize = 1;
/// Output-permuted repeats of each equivalent pair per round (cone cache).
const REENCODED_REPEATS: usize = 1;
/// Near-miss mutants of each pair per round, one per slice of its gates.
const MUTANTS: usize = 2;
/// Widest rare condition of a mutant; narrower for pairs with few inputs.
const MAX_CONDITION: usize = 20;
/// How long a client waits for one result before counting it lost.
const RESPONSE_WAIT: Duration = Duration::from_secs(30);
/// Random 64-vector words each equivalent pair must agree on.
const AGREE_WORDS: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Fresh,
    Mutant,
    Memo,
    Reencoded,
}

/// One submission: the files it names and how to judge its verdict.
struct Job {
    kind: Kind,
    /// Index of the base pair.
    family: usize,
    /// Index of the distinct miter (fresh and mutant jobs), for the
    /// per-miter medians.
    miter: Option<usize>,
    left_path: String,
    right_path: String,
    left: Circuit,
    right: Circuit,
    equivalent: bool,
}

/// What a client saw for one job.
struct Outcome {
    kind: Kind,
    miter: Option<usize>,
    rtt_s: f64,
    result: Result<Object, String>,
}

fn read_circuit(path: &Path) -> Result<Circuit, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Circuit::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<String, String> {
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_string_lossy().into_owned())
}

/// Builds both clients' job lists for one round and writes the files they
/// name. Mutants and output permutations are drawn anew every round from
/// the seed and the round number.
fn build_jobs(opts: &Options, work: &Path, round: usize) -> Result<[Vec<Job>; 2], String> {
    let mut lists: [Vec<Job>; 2] = [Vec::new(), Vec::new()];
    let mut miters = 0;
    for (client, families) in FAMILIES.iter().enumerate() {
        let mut rng = Rng::stream(opts.seed, &format!("client{client}/{round}"));
        let mut jobs: Vec<Job> = Vec::new();
        for (family, &name) in families.iter().filter(|n| !n.is_empty()).enumerate() {
            let left_path = opts.inputs.join(format!("{name}.left.aig"));
            let right_path = opts.inputs.join(format!("{name}.right.aig"));
            let left = read_circuit(&left_path)?;
            let right = read_circuit(&right_path)?;
            let bad = random_disagreements(&left, &right, opts.seed, AGREE_WORDS);
            if bad != 0 {
                return Err(format!("{name}: sides disagree on {bad} random vectors"));
            }
            let (lp, rp) = (
                left_path.to_string_lossy().into_owned(),
                right_path.to_string_lossy().into_owned(),
            );
            let job = |kind, miter, l: &str, r: &str, left: &Circuit, right: &Circuit| Job {
                kind,
                family,
                miter,
                left_path: l.to_string(),
                right_path: r.to_string(),
                left: left.clone(),
                right: right.clone(),
                equivalent: kind != Kind::Mutant,
            };
            jobs.push(job(Kind::Fresh, Some(miters), &lp, &rp, &left, &right));
            miters += 1;
            for _ in 0..MEMO_REPEATS {
                jobs.push(job(Kind::Memo, None, &lp, &rp, &left, &right));
            }
            for r in 0..REENCODED_REPEATS {
                // Any order but the original one: an unchanged file would
                // be an exact repeat.
                let n = left.outputs.len();
                let mut perm: Vec<usize> = (0..n).collect();
                while n > 1 && perm.iter().enumerate().all(|(i, &p)| i == p) {
                    rng.shuffle(&mut perm);
                }
                let (pl, pr) = (left.permute_outputs(&perm), right.permute_outputs(&perm));
                let l = write_file(&work.join(format!("{name}.r{r}.left.aig")), &pl.to_binary())?;
                let rr = write_file(
                    &work.join(format!("{name}.r{r}.right.aig")),
                    &pr.to_binary(),
                )?;
                jobs.push(job(Kind::Reencoded, None, &l, &rr, &pl, &pr));
            }
            let k = MAX_CONDITION.min(left.inputs / 2);
            for m in 0..MUTANTS {
                let mutant = near_miss(&left, &right, k, (m, MUTANTS), &mut rng, 256)
                    .ok_or_else(|| format!("{name}: no witnessed mutant"))?;
                let mr = write_file(
                    &work.join(format!("{name}.m{m}.right.aig")),
                    &mutant.circuit.to_binary(),
                )?;
                jobs.push(job(
                    Kind::Mutant,
                    Some(miters),
                    &lp,
                    &mr,
                    &left,
                    &mutant.circuit,
                ));
                miters += 1;
            }
        }
        lists[client] = jobs;
    }
    Ok(lists)
}

/// A seeded order of `jobs` in which each pair's fresh job precedes its
/// repeats and mutants: shuffle, then move every fresh job to the first
/// slot its pair occupies.
fn job_order(jobs: &[Job], rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    rng.shuffle(&mut order);
    for i in 0..order.len() {
        if jobs[order[i]].kind == Kind::Fresh {
            let family = jobs[order[i]].family;
            let first = (0..i)
                .find(|&j| jobs[order[j]].family == family)
                .unwrap_or(i);
            order.swap(first, i);
        }
    }
    order
}

/// Judges one result line against the checker.
fn judge(job: &Job, result: &Result<Object, String>) -> Result<(), String> {
    let o = result.as_ref().map_err(Clone::clone)?;
    let name = &job.right_path;
    match o.str("verdict") {
        Some("equivalent") if job.equivalent => Ok(()),
        Some("equivalent") => Err(format!("{name}: equivalent, but the witness differs")),
        Some("not-equivalent") => {
            let bits = o.str("cex").ok_or(format!("{name}: no counterexample"))?;
            let inputs: Vec<bool> = bits.chars().map(|c| c == '1').collect();
            if inputs.len() != job.left.inputs {
                return Err(format!(
                    "{name}: counterexample has {} inputs",
                    inputs.len()
                ));
            }
            if outputs_differ(&job.left, &job.right, &inputs) {
                Ok(())
            } else {
                Err(format!("{name}: counterexample does not replay"))
            }
        }
        other => Err(format!("{name}: verdict {other:?}")),
    }
}

/// A client connection with a bounded wait for every line.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends one request line and returns the first reply line whose
    /// `event` is one of `events` and whose `id` is `id`.
    fn request(&mut self, line: &str, id: u64, events: &[&str]) -> Result<Object, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let deadline = Instant::now() + RESPONSE_WAIT;
        let mut buf = String::new();
        loop {
            match self.reader.read_line(&mut buf) {
                Ok(0) => return Err("connection closed before the reply".into()),
                Ok(_) if buf.ends_with('\n') => {
                    let o =
                        json::parse(buf.trim()).map_err(|e| format!("bad reply {buf:?}: {e}"))?;
                    buf.clear();
                    let event = o.str("event").unwrap_or("");
                    if event == "error" || event == "rejected" {
                        return Err(format!("server answered {event}"));
                    }
                    if o.num("id") == Some(id as f64) && events.contains(&event) {
                        return Ok(o);
                    }
                }
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
            if Instant::now() > deadline {
                return Err(format!("no reply within {} s", RESPONSE_WAIT.as_secs()));
            }
        }
    }
}

/// Plays one client's jobs in `order`; after a lost reply the rest of
/// the list counts as lost too. Outcomes are indexed like `jobs`.
fn play(client: &mut Client, jobs: &[Job], order: &[usize], first_id: u64) -> Vec<Outcome> {
    let mut out: Vec<Option<Outcome>> = (0..jobs.len()).map(|_| None).collect();
    let mut broken: Option<String> = None;
    for (n, &i) in order.iter().enumerate() {
        let job = &jobs[i];
        if let Some(e) = &broken {
            out[i] = Some(Outcome {
                kind: job.kind,
                miter: job.miter,
                rtt_s: 0.0,
                result: Err(format!("not sent: {e}")),
            });
            continue;
        }
        let id = first_id + n as u64;
        let line = format!(
            "{{\"op\":\"submit\",\"id\":{id},\"left\":\"{}\",\"right\":\"{}\"}}",
            job.left_path, job.right_path
        );
        let mut span = parsweep_trace::span("bench", spans::REQUEST_SPAN);
        let t = Instant::now();
        let result = client.request(&line, id, &["result"]);
        let rtt_s = t.elapsed().as_secs_f64();
        if let Ok(o) = &result {
            span.arg_u64("job", o.num("job").unwrap_or(0.0) as u64);
        }
        drop(span);
        if let Err(e) = &result {
            broken = Some(e.clone());
        }
        out[i] = Some(Outcome {
            kind: job.kind,
            miter: job.miter,
            rtt_s,
            result,
        });
    }
    out.into_iter()
        .map(|o| o.expect("every job is played or marked lost"))
        .collect()
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    outcomes: [Vec<Outcome>; 2],
    stats: Result<Object, String>,
}

fn play_round(lists: &[Vec<Job>; 2], rng: &mut Rng) -> Result<Round, String> {
    let orders = [job_order(&lists[0], rng), job_order(&lists[1], rng)];
    let t = Instant::now();
    let mut cfg = NetConfig::default();
    cfg.svc.sat_fallback = true;
    let mut server = NetServer::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let mut clients = [Client::connect(addr)?, Client::connect(addr)?];
    let setup_s = t.elapsed().as_secs_f64();

    let barrier = Barrier::new(3);
    let cpu0 = sys::cpu_seconds();
    let (wall_s, outcomes) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lists.iter().zip(&orders))
            .enumerate()
            .map(|(c, (client, (jobs, order)))| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    play(client, jobs, order, (c as u64 + 1) << 32)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let outcomes: Vec<Vec<Outcome>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (start.elapsed().as_secs_f64(), outcomes)
    });
    let cpu_s = sys::cpu_seconds() - cpu0;
    let stats = clients[0].request("{\"op\":\"stats\",\"id\":0}", 0, &["stats"]);
    drop(clients);
    server.stop();
    let [a, b]: [Vec<Outcome>; 2] = outcomes.try_into().map_err(|_| "two clients")?;
    Ok(Round {
        setup_s,
        wall_s,
        cpu_s,
        outcomes: [a, b],
        stats,
    })
}

/// Child processes whose highest peak is `peak_rss_mb`. One round's peak
/// depends on whether big jobs of the two clients overlap (40–110 MB on
/// the same jobs), so a single round, or the median of a few, does not
/// repeat; the highest of nine does.
const RSS_PROBES: usize = 9;

/// Peak memory of the workload: the highest peak among child processes
/// that each play one round (rounds 1 to `RSS_PROBES`, so they see
/// different mutants). The children's judged operations are added to
/// `report`.
///
/// The run's own peak is not reported: every round starts a new server,
/// whose fresh threads leave freed memory behind in the allocator's
/// per-thread arenas, so the process's peak grows with the number of
/// rounds played and would read higher the faster the program runs.
fn probe_peak_rss(opts: &Options, report: &mut Report) -> Result<f64, String> {
    let mut peak: f64 = 0.0;
    for round in 1..=RSS_PROBES {
        peak = peak.max(probe_once(opts, round, report)?);
    }
    Ok(peak)
}

fn probe_once(opts: &Options, round: usize, report: &mut Report) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (seed, round) = (opts.seed.to_string(), round.to_string());
    let out = std::process::Command::new(&exe)
        .args([
            "--workload",
            "svc_mixed",
            "--seconds",
            "0.001",
            "--trace",
            "0",
        ])
        .args(["--seed", &seed, "--rss-probe", &round])
        .arg("--inputs")
        .arg(&opts.inputs)
        .arg("--work")
        .arg(&opts.work)
        .output()
        .map_err(|e| format!("memory probe: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    for line in stderr.lines().filter(|l| l.contains("failed:")) {
        eprintln!("{line} (memory probe, round {round})");
    }
    if !out.status.success() {
        return Err(format!(
            "memory probe of round {round} exited with {}",
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = json::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("memory probe of round {round}: {e}"))?;
    let field = |key: &str| {
        line.num(key)
            .ok_or_else(|| format!("memory probe of round {round}: no {key}"))
    };
    report.attempted += field("attempted")? as u64;
    report.failed += field("failed")? as u64;
    field("peak_rss_mb")
}

/// Runs `svc_mixed`.
pub fn run(opts: &Options) -> Result<Report, String> {
    let work: PathBuf = opts.work.join(format!("svc-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(opts, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(opts: &Options, work: &Path) -> Result<Report, String> {
    let mut lists = build_jobs(opts, work, 0)?;
    let miters = lists.iter().flatten().filter(|j| j.miter.is_some()).count();
    let mut report = Report::default();
    let judge_round = |report: &mut Report, lists: &[Vec<Job>; 2], round: &Round| {
        for (jobs, outcomes) in lists.iter().zip(&round.outcomes) {
            for (job, o) in jobs.iter().zip(outcomes) {
                report.judge(judge(job, &o.result));
            }
        }
        report.judge(
            round
                .stats
                .as_ref()
                .map(|_| ())
                .map_err(|e| format!("stats: {e}")),
        );
    };
    // Each round plays its jobs in its own seeded order, so a run
    // averages over orders instead of resting on one.
    let mut rng = Rng::stream(opts.seed, "order");
    let mut setups = Vec::new();
    // Warm-up round: judged, not measured. A memory probe skips it.
    if opts.rss_probe.is_none() {
        let warm = play_round(&lists, &mut rng)?;
        judge_round(&mut report, &lists, &warm);
        setups.push(warm.setup_s);
    }

    let collector = opts.trace.then(Collector::start);
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let (first_round, min_rounds) = match opts.rss_probe {
        Some(round) => (round, 1),
        None => (1, 3),
    };
    until_elapsed(opts.seconds, min_rounds, || {
        lists = build_jobs(opts, work, first_round + rounds.len())?;
        let round = play_round(&lists, &mut rng)?;
        judge_round(&mut report, &lists, &round);
        setups.push(round.setup_s);
        rounds.push(round);
        if let Some(c) = &collector {
            traced.push(c.take_round());
        }
        Ok(())
    })?;
    drop(collector);

    let mut rtt_ms = Vec::new();
    let mut service_ms = Vec::new();
    let mut queue_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut per_miter: Vec<Vec<f64>> = vec![Vec::new(); miters];
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    for round in &rounds {
        let mut l: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut hits, mut misses) = (0.0, 0.0);
        for o in round.outcomes.iter().flatten() {
            let Ok(r) = &o.result else { continue };
            rtt_ms.push(o.rtt_s * 1000.0);
            if let Some(m) = o.miter {
                per_miter[m].push(o.rtt_s);
            }
            let total = r.num("total_ms").unwrap_or(0.0);
            service_ms.push(total);
            queue_ms.push(r.num("queue_wait_ms").unwrap_or(0.0));
            overhead_ms.push(o.rtt_s * 1000.0 - total);
            if r.bool("memoized") == Some(true) {
                *l.entry("svc.memo_hits").or_default() += 1.0;
            }
            hits += r.num("cache_hits").unwrap_or(0.0);
            misses += r.num("cache_misses").unwrap_or(0.0);
            *l.entry("svc.shards").or_default() += r.num("shards").unwrap_or(0.0);
        }
        l.entry("svc.memo_hits").or_default();
        l.insert("svc.cache_hits", hits);
        let probes = hits + misses;
        l.insert(
            "svc.cache_hit_ratio",
            if probes > 0.0 { hits / probes } else { 0.0 },
        );
        if let Ok(s) = &round.stats {
            l.insert(
                "svc.cache_semantic_hits",
                s.num("cache_semantic_hits").unwrap_or(0.0),
            );
            l.insert(
                "svc.worker_utilization",
                s.num("worker_utilization").unwrap_or(0.0),
            );
        }
        layers.push(l);
    }

    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = rounds.iter().map(|r| r.cpu_s).collect();
    report.set("setup_s", median(&setups), "s");
    report.set("wall_s", median(&walls), "s");
    report.set("cpu_s", median(&cpus), "s");
    let peak_rss_mb = if opts.rss_probe.is_some() {
        sys::peak_rss_mb()
    } else {
        probe_peak_rss(opts, &mut report)?
    };
    report.set("peak_rss_mb", peak_rss_mb, "MB");
    let miter_medians: Vec<f64> = per_miter.iter().map(|t| median(t)).collect();
    report.set("verdict_s.geomean", geomean(&miter_medians), "s");
    report.set("job_ms.p50", median(&rtt_ms), "ms");
    report.set("job_ms.p90", quantile(&rtt_ms, 0.9), "ms");
    eprintln!(
        "perfbench: round walls {}",
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for kind in [Kind::Memo, Kind::Reencoded, Kind::Fresh, Kind::Mutant] {
        let t: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.outcomes.iter().flatten())
            .filter(|o| o.kind == kind)
            .map(|o| o.rtt_s * 1000.0)
            .collect();
        eprintln!(
            "perfbench: {kind:?} jobs {} | ms p10 {:.3} p50 {:.3} p90 {:.3}",
            t.len(),
            quantile(&t, 0.1),
            median(&t),
            quantile(&t, 0.9)
        );
    }
    report.set("svc.service_ms.p50", median(&service_ms), "ms");
    report.set("svc.queue_wait_ms.p90", quantile(&queue_ms, 0.9), "ms");
    report.set("net.overhead_ms.p50", median(&overhead_ms), "ms");
    set_medians(&mut report, &layers, |name| unit_in(&LAYER_METRICS, name));
    set_medians(&mut report, &traced, |_| "s");
    // The service does not return its `CombinedResult`s.
    report.zero_fill(&engine::LAYER_METRICS);
    Ok(report)
}
