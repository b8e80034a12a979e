//! Self times per layer from the program's trace spans.
//!
//! A drain thread empties the program's span collector every few
//! milliseconds, so a long traced run never holds more than a moment's
//! events. Each span's self time is its duration minus the time its
//! child spans on the same thread cover.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use parsweep_trace::{ArgValue, Phase, TraceEvent};

/// The benchmark's own span around each engine call.
pub const CHECK_SPAN: &str = "bench.check";
/// The benchmark's own span around each service request.
pub const REQUEST_SPAN: &str = "bench.request";

/// Self-time metrics and the span names they sum.
const GROUPS: [(&str, &[&str]); 10] = [
    ("sim.exhaustive_self_s", &["sim.exhaustive."]),
    ("sim.partial_self_s", &["sim.partial.", "sim.resim."]),
    ("cut.kernel_self_s", &["cut.kernel."]),
    ("par.replay_self_s", &["graph.replay", "stream.epoch"]),
    ("core.round_l_self_s", &["engine.round.L"]),
    ("core.round_g_self_s", &["engine.round.G"]),
    ("sat.fallback_self_s", &["engine.sat_fallback"]),
    ("svc.shard_self_s", &["job.shard", "job.fused_dispatch"]),
    ("svc.cache_probe_self_s", &["job.cache_probe"]),
    ("svc.semantic_key_self_s", &["job.semantic_key"]),
];

/// Names of every metric [`Collector::take_round`] reports.
pub fn metric_names() -> impl Iterator<Item = &'static str> {
    GROUPS
        .iter()
        .map(|g| g.0)
        .chain(std::iter::once("trace.unattributed_s"))
}

fn group_of(name: &str) -> Option<&'static str> {
    GROUPS
        .iter()
        .find(|(_, prefixes)| {
            prefixes.iter().any(|p| {
                if p.ends_with('.') {
                    name.starts_with(p)
                } else {
                    name == *p
                }
            })
        })
        .map(|g| g.0)
}

struct Open {
    name: String,
    start: u64,
    child: u64,
}

#[derive(Default)]
struct Agg {
    stacks: HashMap<u64, Vec<Open>>,
    /// Metric → self microseconds since the last `take_round`.
    self_us: BTreeMap<&'static str, u64>,
    /// Engine calls: time not covered by program spans on the same thread.
    check_unattributed_us: u64,
    /// Service requests: `(job, start, end)`.
    requests: Vec<(u64, u64, u64)>,
    /// Service shard spans per job: `(start, end)`.
    shards: HashMap<u64, Vec<(u64, u64)>>,
}

impl Agg {
    fn absorb(&mut self, events: Vec<TraceEvent>) {
        for e in events {
            match e.ph {
                Phase::B => self.stacks.entry(e.tid).or_default().push(Open {
                    name: e.name,
                    start: e.ts_us,
                    child: 0,
                }),
                Phase::E => self.close(e),
                Phase::I | Phase::M => {}
            }
        }
    }

    fn close(&mut self, e: TraceEvent) {
        let Some(stack) = self.stacks.get_mut(&e.tid) else {
            return;
        };
        let Some(open) = stack.pop() else {
            return;
        };
        let dur = e.ts_us.saturating_sub(open.start);
        if let Some(parent) = stack.last_mut() {
            parent.child += dur;
        }
        if stack.is_empty() {
            self.stacks.remove(&e.tid);
        }
        let self_us = dur.saturating_sub(open.child);
        let job = e.args.iter().find_map(|(k, v)| match (k, v) {
            (&"job", ArgValue::U64(j)) => Some(*j),
            _ => None,
        });
        match open.name.as_str() {
            CHECK_SPAN => self.check_unattributed_us += self_us,
            REQUEST_SPAN => {
                if let Some(job) = job {
                    self.requests.push((job, open.start, e.ts_us));
                }
            }
            name => {
                if let Some(group) = group_of(name) {
                    *self.self_us.entry(group).or_default() += self_us;
                }
                if name == "job.shard" || name == "job.fused_dispatch" {
                    if let Some(job) = job {
                        self.shards
                            .entry(job)
                            .or_default()
                            .push((open.start, e.ts_us));
                    }
                }
            }
        }
    }

    /// Request time that no shard span of the same job covers.
    fn request_unattributed_us(&mut self) -> u64 {
        let mut total = 0;
        for (job, start, end) in self.requests.drain(..) {
            let mut spans: Vec<(u64, u64)> = self
                .shards
                .remove(&job)
                .unwrap_or_default()
                .into_iter()
                .map(|(s, e)| (s.max(start), e.min(end)))
                .filter(|(s, e)| s < e)
                .collect();
            spans.sort_unstable();
            let (mut covered, mut reach) = (0, start);
            for (s, e) in spans {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            total += (end - start).saturating_sub(covered);
        }
        self.shards.clear();
        total
    }
}

/// Records the program's spans for the life of the value.
pub struct Collector {
    agg: Arc<Mutex<Agg>>,
    stop: Arc<AtomicBool>,
    drain: Option<JoinHandle<()>>,
}

impl Collector {
    /// Switches span recording on and starts the drain thread.
    pub fn start() -> Collector {
        parsweep_trace::take_events();
        parsweep_trace::enable();
        let agg = Arc::new(Mutex::new(Agg::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let drain = {
            let (agg, stop) = (Arc::clone(&agg), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(10));
                    let events = parsweep_trace::take_events();
                    agg.lock().expect("span aggregator lock").absorb(events);
                }
            })
        };
        Collector {
            agg,
            stop,
            drain: Some(drain),
        }
    }

    /// Self seconds per metric since the previous call. Call between
    /// rounds, when no benchmark span is open.
    pub fn take_round(&self) -> BTreeMap<&'static str, f64> {
        let mut agg = self.agg.lock().expect("span aggregator lock");
        agg.absorb(parsweep_trace::take_events());
        let unattributed = agg.check_unattributed_us + agg.request_unattributed_us();
        agg.check_unattributed_us = 0;
        let mut out: BTreeMap<&'static str, f64> = metric_names().map(|m| (m, 0.0)).collect();
        for (metric, us) in std::mem::take(&mut agg.self_us) {
            out.insert(metric, us as f64 * 1e-6);
        }
        out.insert("trace.unattributed_s", unattributed as f64 * 1e-6);
        out
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        parsweep_trace::disable();
        parsweep_trace::take_events();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, ph: Phase, ts: u64, tid: u64, job: Option<u64>) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: "test",
            ph,
            ts_us: ts,
            tid,
            args: job
                .map(|j| vec![("job", ArgValue::U64(j))])
                .unwrap_or_default(),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut a = Agg::default();
        a.absorb(vec![
            ev(CHECK_SPAN, Phase::B, 0, 1, None),
            ev("engine.round.L", Phase::B, 10, 1, None),
            ev("cut.kernel.level", Phase::B, 20, 1, None),
            ev("cut.kernel.level", Phase::E, 50, 1, None),
            ev("sim.exhaustive.level", Phase::B, 15, 2, None),
            ev("sim.exhaustive.level", Phase::E, 25, 2, None),
            ev("engine.round.L", Phase::E, 90, 1, None),
            ev(CHECK_SPAN, Phase::E, 100, 1, None),
        ]);
        assert_eq!(a.self_us["core.round_l_self_s"], 50);
        assert_eq!(a.self_us["cut.kernel_self_s"], 30);
        assert_eq!(a.self_us["sim.exhaustive_self_s"], 10);
        assert_eq!(a.check_unattributed_us, 20);
        assert!(a.stacks.is_empty());
    }

    #[test]
    fn request_time_outside_shards_is_unattributed() {
        let mut a = Agg::default();
        a.absorb(vec![
            ev(REQUEST_SPAN, Phase::B, 0, 7, None),
            ev("job.shard", Phase::B, 10, 3, None),
            ev("job.cache_probe", Phase::B, 12, 3, None),
            ev("job.cache_probe", Phase::E, 14, 3, None),
            ev("job.shard", Phase::E, 40, 3, Some(5)),
            ev("job.shard", Phase::B, 30, 4, None),
            ev("job.shard", Phase::E, 60, 4, Some(5)),
            ev(REQUEST_SPAN, Phase::E, 100, 7, Some(5)),
        ]);
        assert_eq!(a.self_us["svc.cache_probe_self_s"], 2);
        assert_eq!(a.self_us["svc.shard_self_s"], 28 + 30);
        // Shards cover 10..60 of the request's 0..100.
        assert_eq!(a.request_unattributed_us(), 50);
    }
}
