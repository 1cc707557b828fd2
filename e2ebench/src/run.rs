//! One repetition of a workload: set-up, the measured phase (open-loop
//! publishing on the epoch schedule, virtual time advanced in fixed poll
//! steps), latency attribution, and the reference check.

use crate::bed::Bed;
use crate::host::ScaledClock;
use crate::trace::{self, Layer, Spans, Tracer};
use crate::workloads::{Kind, Workload};
use pier_core::prelude::*;
use pier_core::PierPayload;
use pier_dht::SoftStateStore;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Virtual-time resolution of the latency measurement.
pub const POLL_STEP_US: u64 = 1_000;

/// How virtual time advances during the measured phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stepping {
    /// Fixed `POLL_STEP_US` steps, polling the origins' results after each.
    Poll,
    /// One step to each publishing instant and epoch boundary, no polling.
    PerEpoch,
}

/// Everything a repetition counts; two runs of the same program on the
/// same seed must agree on all of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Simulator events processed in the measured phase.
    pub events: u64,
    /// Messages sent, delivered and dropped in the measured phase.
    pub msgs: (u64, u64, u64),
    /// Simulator bytes delivered in the measured phase.
    pub bytes_delivered: u64,
    /// Network-wide engine counters at the end of the run.
    pub engine: String,
    /// Hash of every final (query, epoch) answer.
    pub answers: u64,
}

/// What one repetition measured.
pub struct Rep {
    /// Boot + warm-up + table creation, wall seconds scaled to the
    /// reference host.
    pub setup_s: f64,
    /// Wall seconds of the measured phase (less any replay capture and
    /// the host probes), as measured.
    pub wall_s: f64,
    /// `wall_s` scaled to the reference host.
    pub scaled_s: f64,
    /// Virtual seconds of the measured phase.
    pub virtual_s: f64,
    /// Epoch periods in the measured phase.
    pub epochs: u64,
    /// Deterministic counts.
    pub counts: Counts,
    /// Epoch boundary → final answer at the origin, virtual ms, per
    /// answered (query, epoch) (poll stepping only).
    pub latencies_ms: Vec<f64>,
    /// Submit → first row at the origin, virtual ms, per query.
    pub first_result_ms: Vec<f64>,
    /// Every final answer was seen by the poller at its last change.
    pub attribution_complete: bool,
    /// (query, epoch) answers checked, and how many failed.
    pub checked: Option<(u64, u64)>,
    /// Every failed answer: (query, epoch, why, inside the churn period).
    pub failures: Vec<(usize, u64, &'static str, bool)>,
    /// Per-layer spans of a traced run.
    pub spans: Option<Spans>,
    /// Routed operations delivered, and their total hops.
    pub routes: (u64, u64),
    /// Engine counters (measured-phase totals).
    pub engine: pier_core::EngineStats,
}

impl Rep {
    /// Virtual seconds simulated per wall second on the reference host.
    pub fn sim_rate(&self) -> f64 {
        self.virtual_s / self.scaled_s
    }

    /// Virtual seconds simulated per wall second, as measured.
    pub fn raw_sim_rate(&self) -> f64 {
        self.virtual_s / self.wall_s
    }

    /// Simulator KB delivered per epoch.
    pub fn wire_kb_per_epoch(&self) -> f64 {
        self.counts.bytes_delivered as f64 / 1024.0 / self.epochs as f64
    }
}

/// Replay inputs captured at the last publishing epoch's scan.
pub struct Capture {
    /// Every node's soft-state store.
    pub stores: Vec<SoftStateStore<PierPayload>>,
    /// Scan instant and window start.
    pub now: SimTime,
    /// Window start.
    pub since: SimTime,
}

/// What the poller compares to notice an answer changing: row count,
/// contributor count and the newest row (rows only ever arrive appended).
type Fingerprint = (usize, u64, Option<Tuple>);

/// The fingerprint of an epoch's answer, `None` while nothing arrived.
fn fingerprint(res: &pier_core::QueryResults, epoch: u64) -> Option<Fingerprint> {
    let rows = res.raw_rows(epoch);
    let c = res.contributors(epoch);
    (!rows.is_empty() || c > 0).then(|| (rows.len(), c, rows.last().cloned()))
}

/// Record an epoch's answer fingerprint as seen at `now`; the time kept is
/// that of its last change, which the epoch's latency runs to.
fn note(
    snaps: &mut BTreeMap<u64, (Fingerprint, SimTime)>,
    epoch: u64,
    fp: Fingerprint,
    now: SimTime,
) {
    match snaps.get_mut(&epoch) {
        Some(s) if s.0 == fp => {}
        Some(s) => *s = (fp, now),
        None => {
            snaps.insert(epoch, (fp, now));
        }
    }
}

/// Virtual ms from epoch `epoch`'s boundary to `at`.
fn latency_ms(at: SimTime, epoch: u64, period_us: u64) -> f64 {
    (at.as_micros() - epoch * period_us) as f64 / 1_000.0
}

/// Per-query result tracking for latency attribution.
struct Tracker {
    ids: Vec<(NodeAddr, QueryId)>,
    /// Per query: epoch → (answer fingerprint, time of last change).
    snaps: Vec<BTreeMap<u64, (Fingerprint, SimTime)>>,
    first: Vec<Option<SimTime>>,
    epochs: (u64, u64),
    period_us: u64,
    horizon_us: u64,
}

impl Tracker {
    fn poll(&mut self, bed: &Bed) {
        let now = bed.now().as_micros();
        let lo = self.epochs.0.max(now.saturating_sub(self.horizon_us) / self.period_us);
        let hi = self.epochs.1.min(now / self.period_us);
        for (q, &(origin, id)) in self.ids.iter().enumerate() {
            let Some(res) = bed.results(origin, id) else { continue };
            for e in lo..=hi {
                if let Some(fp) = fingerprint(res, e) {
                    note(&mut self.snaps[q], e, fp, bed.now());
                }
            }
            if self.first[q].is_none() && res.epochs().iter().any(|&e| !res.raw_rows(e).is_empty())
            {
                self.first[q] = Some(bed.now());
            }
        }
    }
}

/// Advance to `target`, in poll steps or in one step, ticking `clock`
/// after each.
fn advance(bed: &mut Bed, target: SimTime, tracker: Option<&mut Tracker>, clock: &mut ScaledClock) {
    let Some(tracker) = tracker else {
        bed.run_until(target);
        clock.tick();
        return;
    };
    while bed.now() < target {
        let step = SimTime::from_micros((bed.now().as_micros() / POLL_STEP_US + 1) * POLL_STEP_US);
        bed.run_until(step.min(target));
        let tracer = bed.tracer().cloned();
        trace::enter(&tracer, Layer::Poll);
        tracker.poll(bed);
        trace::exit(&tracer);
        clock.tick();
    }
}

/// The first epoch boundary at or after `t`.
fn epoch_at_or_after(t: SimTime, period_us: u64) -> u64 {
    t.as_micros().div_ceil(period_us)
}

/// Boot, warm up and create the tables; returns the deployment and the
/// set-up's wall seconds scaled to the reference host.
fn setup(wl: &Workload, seed: u64, tracer: Option<Tracer>) -> (Bed, f64) {
    let shape = &wl.shape;
    let mut clock = ScaledClock::start();
    let mut bed =
        Bed::boot(shape.nodes, seed, shape.pier.clone(), shape.warmup, tracer, &mut clock);
    wl.create_tables(&mut bed);
    clock.pause();
    (bed, clock.scaled_s())
}

/// Time one set-up alone (boot, warm-up, tables), for the set-up median.
pub fn setup_only(kind: Kind, seed: u64) -> f64 {
    setup(&Workload::new(kind, seed), seed, None).1
}

/// Run one repetition.  `check` runs the reference check after the timed
/// phase; `capture` keeps the replay inputs.
pub fn run_rep(
    kind: Kind,
    seed: u64,
    stepping: Stepping,
    traced: bool,
    check: bool,
    capture: bool,
) -> (Rep, Workload, Option<Capture>) {
    let tracer: Option<Tracer> = traced.then(|| Rc::new(RefCell::new(Spans::default())));
    let mut wl = Workload::new(kind, seed);
    let shape = wl.shape.clone();
    let p = shape.period.as_micros();

    let (mut bed, setup_s) = setup(&wl, seed, tracer.clone());

    let t0 = bed.now();
    let e0 = epoch_at_or_after(t0, p);
    let last_publish = e0 + shape.epochs - 1;
    let end_epoch = last_publish + 3;
    let m = bed.metrics();
    let base = (
        m.messages_sent(),
        m.messages_delivered(),
        m.messages_dropped_loss() + m.messages_dropped_dead(),
        m.bytes_delivered(),
    );
    let engine_base = bed.engine_totals();
    let routes_base = bed.route_deliveries();

    if let Some(t) = &tracer {
        t.borrow_mut().active = true;
    }
    let mut clock = ScaledClock::start();
    let ids: Vec<(NodeAddr, QueryId)> = wl
        .queries
        .iter()
        .map(|(origin, sql)| {
            let addr = bed.nodes()[*origin];
            (addr, bed.submit_sql(addr, sql))
        })
        .collect();
    wl.schedule_churn(&mut bed, t0);
    // Answers are checked for every epoch whose window holds published rows.
    let checked_epochs = (e0 + 1, last_publish + 1);
    let mut tracker = Tracker {
        ids: ids.clone(),
        snaps: vec![BTreeMap::new(); ids.len()],
        first: vec![None; ids.len()],
        epochs: checked_epochs,
        period_us: p,
        horizon_us: 3 * p + shape.window.as_micros() + 10_000_000,
    };
    let mut captured = None;
    for e in e0..end_epoch {
        let poll = (stepping == Stepping::Poll).then_some(&mut tracker);
        if e <= last_publish {
            advance(&mut bed, SimTime::from_micros(e * p + p / 2), poll, &mut clock);
            wl.publish(&mut bed);
        } else if e == last_publish + 1 && capture {
            clock.pause();
            let now = bed.now();
            let since = SimTime::from_micros(now.as_micros() - shape.window.as_micros());
            let stores = bed
                .nodes()
                .iter()
                .filter_map(|&a| bed.pier(a).map(|n| n.dht.store().clone()))
                .collect();
            captured = Some(Capture { stores, now, since });
            clock.resume();
        }
        let poll = (stepping == Stepping::Poll).then_some(&mut tracker);
        advance(&mut bed, SimTime::from_micros((e + 1) * p), poll, &mut clock);
    }
    clock.pause();

    // Final answers, latency attribution and the reference check all run
    // after the timed phase.
    let mut hasher = DefaultHasher::new();
    let mut latencies_ms = Vec::new();
    let mut attribution_complete = true;
    let mut attempted = 0;
    let mut failures = Vec::new();
    for e in checked_epochs.0..=checked_epochs.1 {
        let mut answers = Vec::new();
        for (q, &(origin, id)) in ids.iter().enumerate() {
            let res = bed.results(origin, id);
            let fp = res.and_then(|r| fingerprint(r, e));
            let answer = fp.as_ref().map(|_| res.map(|r| r.rows(e)).unwrap_or_default());
            hash_answer(&mut hasher, q, e, fp.as_ref().map_or(0, |f| f.1), answer.as_deref());
            if stepping == Stepping::Poll && fp.is_some() {
                match tracker.snaps[q].get(&e) {
                    Some((seen, at)) if Some(seen) == fp.as_ref() => {
                        latencies_ms.push(latency_ms(*at, e, p))
                    }
                    _ => attribution_complete = false,
                }
            }
            answers.push(answer);
        }
        if check {
            attempted += answers.len() as u64;
            let churn = wl.in_churn_period(e);
            failures
                .extend(wl.failures(e, &answers).into_iter().map(|(q, why)| (q, e, why, churn)));
        }
    }
    let submitted = t0.as_micros();
    let first_result_ms = tracker
        .first
        .iter()
        .flatten()
        .map(|t| (t.as_micros() - submitted) as f64 / 1_000.0)
        .collect();

    let m = bed.metrics();
    let mut engine = bed.engine_totals();
    subtract_engine(&mut engine, &engine_base);
    let routes = bed.route_deliveries();
    let counts = Counts {
        events: bed.events,
        msgs: (
            m.messages_sent() - base.0,
            m.messages_delivered() - base.1,
            m.messages_dropped_loss() + m.messages_dropped_dead() - base.2,
        ),
        bytes_delivered: m.bytes_delivered() - base.3,
        engine: format!("{engine:?}"),
        answers: hasher.finish(),
    };
    let rep = Rep {
        setup_s,
        wall_s: clock.wall_s(),
        scaled_s: clock.scaled_s(),
        virtual_s: (bed.now().as_micros() - t0.as_micros()) as f64 / 1e6,
        epochs: end_epoch - e0,
        counts,
        latencies_ms,
        first_result_ms,
        attribution_complete,
        checked: check.then_some((attempted, failures.len() as u64)),
        failures,
        spans: tracer.map(|t| t.borrow().clone()),
        routes: (routes.0.saturating_sub(routes_base.0), routes.1.saturating_sub(routes_base.1)),
        engine,
    };
    (rep, wl, captured)
}

/// Hash an answer independently of row order and of float rounding noise
/// (group order and summation order follow hash-map iteration).
fn hash_answer(
    h: &mut DefaultHasher,
    q: usize,
    epoch: u64,
    contributors: u64,
    rows: Option<&[Tuple]>,
) {
    (q, epoch, contributors, rows.is_some()).hash(h);
    let mut lines: Vec<String> = rows
        .unwrap_or_default()
        .iter()
        .map(|t| {
            let vals: Vec<String> = t
                .values()
                .iter()
                .map(|v| match v {
                    Value::Float(f) => format!("{f:.9e}"),
                    other => format!("{other}"),
                })
                .collect();
            vals.join("|")
        })
        .collect();
    lines.sort();
    lines.hash(h);
}

/// Measured-phase engine counters: end totals minus set-up totals (nodes
/// restarted by churn start from zero, hence the saturation).
fn subtract_engine(end: &mut pier_core::EngineStats, base: &pier_core::EngineStats) {
    macro_rules! sub {
        ($($f:ident),*) => { $( end.$f = end.$f.saturating_sub(base.$f); )* };
    }
    sub!(
        tuples_published,
        tuples_scanned,
        results_sent,
        partials_sent,
        partials_merged,
        join_tuples_sent,
        join_matches,
        messages_sent,
        bytes_shipped,
        bloom_tested,
        bloom_passed,
        piggybacked_payloads,
        stats_gossip_sent
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_epoch_boundary_to_the_last_change() {
        let at = |ms: u64| SimTime::from_micros(ms * 1_000);
        let row = |v: i64| Some(Tuple::new(vec![Value::Int(v)]));
        let period = 5_000_000;
        let mut snaps = BTreeMap::new();
        // Epoch 3 starts at 15 s: a first row arrives at 15.8 s, a second
        // at 16.2 s, then polls see no change.
        note(&mut snaps, 3, (1, 0, row(1)), at(15_800));
        note(&mut snaps, 3, (2, 0, row(2)), at(16_200));
        note(&mut snaps, 3, (2, 0, row(2)), at(17_000));
        assert_eq!(latency_ms(snaps[&3].1, 3, period), 1_200.0);
        // A later contributor count is part of the answer: it moves the
        // final answer's time.
        note(&mut snaps, 3, (2, 140, row(2)), at(19_100));
        assert_eq!(latency_ms(snaps[&3].1, 3, period), 4_100.0);
        // Other epochs are tracked apart.
        note(&mut snaps, 4, (1, 0, row(9)), at(20_050));
        assert_eq!(latency_ms(snaps[&4].1, 4, period), 50.0);
        assert_eq!(latency_ms(snaps[&3].1, 3, period), 4_100.0);
    }
}
