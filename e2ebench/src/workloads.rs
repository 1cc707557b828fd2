//! The three workloads: deployment shape, query mix, the open-loop row
//! generator (which logs every row it publishes), and the reference check
//! of each (query, epoch) answer against `MemoryDb`.

use crate::bed::Bed;
use pier_apps::netmon::{netstats_table, NetworkMonitor};
use pier_apps::snort::intrusions_table;
use pier_apps::topology::links_table;
use pier_core::prelude::*;
use pier_core::{same_rows, Catalog, MemoryDb, Planner};
use pier_simnet::{ChurnSchedule, DetRng};

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Figure 1: continuous network-wide SUM under churn.
    Fig1Sum,
    /// A continuous 3-way join over DHT-published rows.
    Join3Stream,
    /// Many concurrent filtered GROUP BY dashboards over local rows.
    Dashboards,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::Fig1Sum, Kind::Join3Stream, Kind::Dashboards];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig1Sum => "fig1_sum",
            Kind::Join3Stream => "join3_stream",
            Kind::Dashboards => "dashboards",
        }
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Kind::Fig1Sum => {
                "200-node continuous SUM under churn: overlay upkeep and event dispatch dominate; \
                 bypasses kernel, join and encoding work"
            }
            Kind::Join3Stream => {
                "64-node continuous 3-way join over DHT-routed rows: rehash, build/probe, \
                 encoding and result-path work"
            }
            Kind::Dashboards => {
                "16 nodes, 16 concurrent filtered GROUP BY dashboards over a TTL store 10x the \
                 scanned window: scan, pivot, kernel and fold work"
            }
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Deployment and run shape.
    pub fn shape(self) -> Shape {
        match self {
            Kind::Fig1Sum => Shape {
                nodes: 200,
                pier: pier_bench::experiment_config(),
                warmup: Duration::from_secs(120),
                period: Duration::from_secs(5),
                window: Duration::from_secs(10),
                epochs: 36,
            },
            Kind::Join3Stream => Shape {
                nodes: 64,
                pier: pier_bench::experiment_config(),
                warmup: Duration::from_secs(40),
                period: Duration::from_secs(5),
                window: Duration::from_secs(5),
                epochs: 40,
            },
            Kind::Dashboards => Shape {
                nodes: 16,
                pier: PierConfig::fast_test(),
                warmup: Duration::from_secs(30),
                period: Duration::from_secs(2),
                window: Duration::from_secs(2),
                epochs: 12,
            },
        }
    }
}

/// Deployment and run shape of a workload.
#[derive(Clone, Debug)]
pub struct Shape {
    /// PIER nodes.
    pub nodes: usize,
    /// Engine configuration.
    pub pier: PierConfig,
    /// Overlay warm-up before the measured phase.
    pub warmup: Duration,
    /// Epoch period of every query (also the publishing period).
    pub period: Duration,
    /// Trailing window every query scans.
    pub window: Duration,
    /// Epochs the generator publishes in.
    pub epochs: u64,
}

/// `netstats` readings per host per epoch in `join3_stream`.
const JOIN_READINGS: usize = 64;
/// One host in this many files intrusion reports in `join3_stream`.
const JOIN_INTRUSION_EVERY: usize = 4;
/// Rows each node stores per epoch in `dashboards`.
const DASH_ROWS: usize = 1_000;
/// Concurrent dashboard queries.
const DASH_QUERIES: usize = 16;

const JOIN_SQL: &str = "SELECT i.host, i.rule_id, l.dst, n.out_rate FROM netstats n \
     JOIN links l ON n.host = l.src JOIN intrusions i ON l.dst = i.host \
     WHERE n.out_rate > 1 CONTINUOUS EVERY 5 SECONDS WINDOW 5 SECONDS";

/// The `dashboards` table: local per-node readings with a 20 s TTL.
fn readings_table() -> TableDef {
    TableDef::new(
        "readings",
        Schema::of(&[
            ("host", DataType::Str),
            ("node", DataType::Int),
            ("pkts", DataType::Int),
            ("rate", DataType::Float),
            ("err", DataType::Float),
        ]),
        "host",
        Duration::from_secs(20),
    )
}

/// The filter mix of the concurrent dashboards: alerting panels that keep
/// a few percent of rows and dashboard panels that keep most, with the
/// aggregated columns rotated per query.
fn dashboard_sql(i: usize) -> String {
    let filter = match i % 4 {
        0 => format!("pkts > {}", 880 + (i * 13) % 100),
        1 => format!("rate < {:.1}", 45.0 - (i % 10) as f64),
        _ => format!("err >= {:.1}", (i as f64 * 0.7) % 3.0),
    };
    let cols = ["pkts", "rate", "err"];
    format!(
        "SELECT node, COUNT(*) AS n, SUM({}) AS total, AVG({}) AS mean FROM readings \
         WHERE {filter} GROUP BY node CONTINUOUS EVERY 2 SECONDS WINDOW 2 SECONDS",
        cols[i % 3],
        cols[(i + 1) % 3]
    )
}

/// One logged publication.
pub struct Logged {
    /// Publication instant.
    pub at: SimTime,
    /// Publishing node.
    pub node: NodeAddr,
    /// Table.
    pub table: &'static str,
    /// The row.
    pub row: Tuple,
}

/// A running workload: its queries plus the open-loop generator.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Deployment shape.
    pub shape: Shape,
    /// `(origin index, SQL)` of every query.
    pub queries: Vec<(usize, String)>,
    /// Every row the generator published, in order.
    pub log: Vec<Logged>,
    /// Churn: `(victims, fail_at, recover_at)`.
    pub churn: Option<(Vec<NodeAddr>, SimTime, SimTime)>,
    monitor: Option<NetworkMonitor>,
    rng: DetRng,
}

impl Workload {
    /// A workload seeded with `seed`.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let shape = kind.shape();
        // Where the Figure-1 client and the dashboards connect is part of
        // the seeded input (Figure 1's answers are timer-bound, so its
        // latency would otherwise barely depend on the seed); the Figure-1
        // origin stays among the nodes churn never takes down (0..100).
        // The join's client sits at node 1.
        let at = (seed as usize).wrapping_mul(37);
        let queries = match kind {
            Kind::Fig1Sum => vec![(at % 100, NetworkMonitor::figure1_sql(5, 10))],
            Kind::Join3Stream => vec![(1, JOIN_SQL.to_string())],
            Kind::Dashboards => {
                (0..DASH_QUERIES).map(|i| ((i + at) % shape.nodes, dashboard_sql(i))).collect()
            }
        };
        let monitor = (kind == Kind::Fig1Sum).then(|| NetworkMonitor::new(shape.nodes, seed));
        Workload {
            kind,
            shape,
            queries,
            log: Vec::new(),
            churn: None,
            monitor,
            rng: DetRng::new(seed).stream(0xE2E),
        }
    }

    /// Every table the workload uses.
    pub fn tables(&self) -> Vec<TableDef> {
        match self.kind {
            Kind::Fig1Sum => vec![netstats_table()],
            Kind::Join3Stream => vec![netstats_table(), links_table(), intrusions_table()],
            Kind::Dashboards => vec![readings_table()],
        }
    }

    /// Create the tables.  The join is planned from the SQL alone, as a
    /// client would submit it: with no cardinality hints the planner picks
    /// symmetric rehash for both stages, so every row is rehashed, built
    /// and probed.
    pub fn create_tables(&self, bed: &mut Bed) {
        for def in self.tables() {
            bed.create_table(def);
        }
    }

    /// Schedule the workload's churn, relative to the start `t0` of the
    /// measured phase: 60 nodes fail a third of the way through the
    /// publishing epochs and recover two thirds of the way through.
    pub fn schedule_churn(&mut self, bed: &mut Bed, t0: SimTime) {
        if self.kind != Kind::Fig1Sum {
            return;
        }
        let run_secs = self.shape.epochs * self.shape.period.as_secs();
        let victims: Vec<NodeAddr> = (0..60).map(|i| NodeAddr(100 + i)).collect();
        let fail_at = t0 + Duration::from_secs(run_secs / 3);
        let recover_at = t0 + Duration::from_secs(run_secs * 2 / 3);
        bed.apply_churn(&ChurnSchedule::mass_failure(&victims, fail_at, Some(recover_at)));
        self.churn = Some((victims, fail_at, recover_at));
    }

    /// Publish one epoch's rows from every alive node (open loop: the
    /// schedule does not wait for the engine).
    pub fn publish(&mut self, bed: &mut Bed) {
        let now = bed.now();
        let nodes: Vec<NodeAddr> = bed.nodes().to_vec();
        for (i, &addr) in nodes.iter().enumerate() {
            if !bed.is_alive(addr) {
                continue;
            }
            match self.kind {
                Kind::Fig1Sum => {
                    let row = self.monitor.as_mut().expect("fig1 has a monitor").sample(i);
                    self.log_rows(now, addr, "netstats", std::slice::from_ref(&row));
                    bed.publish_local(addr, "netstats", vec![row]);
                }
                Kind::Join3Stream => {
                    let n = nodes.len();
                    let host = |j: usize| Value::str(format!("host-{}", j % n));
                    let readings: Vec<Tuple> = (0..JOIN_READINGS)
                        .map(|_| {
                            Tuple::new(vec![
                                host(i),
                                Value::Float(self.rng.range_u64(5, 200) as f64 / 10.0),
                                Value::Float(self.rng.range_u64(5, 200) as f64 / 10.0),
                            ])
                        })
                        .collect();
                    let links = vec![
                        Tuple::new(vec![host(i), host(i + 1), Value::str("successor")]),
                        Tuple::new(vec![host(i), host(i + 5), Value::str("finger")]),
                    ];
                    self.log_rows(now, addr, "netstats", &readings);
                    self.log_rows(now, addr, "links", &links);
                    bed.publish_batch(addr, "netstats", readings);
                    bed.publish_batch(addr, "links", links);
                    if i % JOIN_INTRUSION_EVERY == 0 {
                        let reports: Vec<Tuple> = (0..2i64)
                            .map(|r| {
                                Tuple::new(vec![
                                    host(i),
                                    Value::Int(1400 + r),
                                    Value::str(format!("rule-{r}")),
                                    Value::Int(self.rng.range_u64(1, 9) as i64),
                                ])
                            })
                            .collect();
                        self.log_rows(now, addr, "intrusions", &reports);
                        bed.publish_batch(addr, "intrusions", reports);
                    }
                }
                Kind::Dashboards => {
                    let host = Value::str(format!("host-{i}"));
                    let rows: Vec<Tuple> = (0..DASH_ROWS)
                        .map(|_| {
                            let rng = &mut self.rng;
                            Tuple::new(vec![
                                host.clone(),
                                Value::Int(rng.range_u64(0, 48) as i64),
                                if rng.chance(0.04) {
                                    Value::Null
                                } else {
                                    Value::Int(rng.range_u64(0, 1_000) as i64)
                                },
                                if rng.chance(0.04) {
                                    Value::Null
                                } else {
                                    Value::Float(rng.range_u64(0, 5_000) as f64 / 100.0)
                                },
                                Value::Float(rng.range_u64(0, 100) as f64 / 10.0),
                            ])
                        })
                        .collect();
                    self.log_rows(now, addr, "readings", &rows);
                    bed.publish_local(addr, "readings", rows);
                }
            }
        }
    }

    fn log_rows(&mut self, at: SimTime, node: NodeAddr, table: &'static str, rows: &[Tuple]) {
        self.log.extend(rows.iter().map(|row| Logged { at, node, table, row: row.clone() }));
    }

    /// The window an epoch's scan covers: epoch `e` evaluates just after
    /// its boundary `e·period` and reads rows stored in the trailing window.
    fn scan_window(&self, epoch: u64) -> (SimTime, SimTime) {
        let scan_at = self.shape.period.as_micros() * epoch + 1_000;
        let from = scan_at.saturating_sub(self.shape.window.as_micros());
        (SimTime::from_micros(from), SimTime::from_micros(scan_at))
    }

    /// The logged rows inside `[from, to]` (the log is in time order).
    fn logged_between(&self, from: SimTime, to: SimTime) -> &[Logged] {
        let lo = self.log.partition_point(|l| l.at < from);
        let hi = self.log.partition_point(|l| l.at <= to);
        &self.log[lo..hi]
    }

    /// Whether a node holding rows of the epoch's window failed before the
    /// epoch's answer was due (the end of the next period): only then may
    /// the answer be a strict subset of the reference.
    fn degraded(&self, epoch: u64) -> bool {
        let Some((victims, fail_at, _)) = &self.churn else { return false };
        let (from, to) = self.scan_window(epoch);
        let due = SimTime::from_micros(to.as_micros() + self.shape.period.as_micros());
        *fail_at >= from
            && *fail_at <= due
            && self.logged_between(from, to).iter().any(|l| victims.contains(&l.node))
    }

    /// Whether an epoch falls in the churn period: its window or its
    /// answer overlaps the time from the failure until two periods after
    /// the recovery (the overlay's repair time).
    pub fn in_churn_period(&self, epoch: u64) -> bool {
        let Some((_, fail_at, recover_at)) = &self.churn else { return false };
        let (from, to) = self.scan_window(epoch);
        let p = self.shape.period.as_micros();
        to.as_micros() + p >= fail_at.as_micros()
            && from.as_micros() <= recover_at.as_micros() + 2 * p
    }

    /// Check every query's final answer for `epoch` (`None`: no answer
    /// reached the origin) against `MemoryDb` over the rows the generator
    /// logged inside the epoch's scan window.  An answer passes if it
    /// equals the reference, or — only in an epoch degraded by churn — is
    /// a subset of it with nothing over-counted.  Returns each failing
    /// query with why it failed.
    pub fn failures(
        &self,
        epoch: u64,
        answers: &[Option<Vec<Tuple>>],
    ) -> Vec<(usize, &'static str)> {
        let (from, to) = self.scan_window(epoch);
        let rows = self.logged_between(from, to);
        let mut catalog = Catalog::new();
        let mut db = MemoryDb::new();
        for def in self.tables() {
            let table: Vec<Tuple> =
                rows.iter().filter(|l| l.table == def.name).map(|l| l.row.clone()).collect();
            db.insert(&def.name, table);
            catalog.register(def);
        }
        let degraded = self.degraded(epoch);
        let planner = Planner::new(&catalog);
        let mut failed = Vec::new();
        for (q, (answer, (_, sql))) in answers.iter().zip(&self.queries).enumerate() {
            let Some(answer) = answer else {
                failed.push((q, "missing"));
                continue;
            };
            let stmt = pier_core::sql::parse_select(sql).expect("workload SQL parses");
            let planned = planner.plan_select(&stmt).expect("workload SQL plans");
            let reference = db.execute(&planned.logical);
            if !(rows_match(answer, &reference) || (degraded && dominated(answer, &reference))) {
                failed.push((q, "wrong"));
            }
        }
        failed
    }
}

fn float_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0) || (a.is_nan() && b.is_nan())
}

fn values_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => float_close(*x, *y),
        _ => a == b,
    }
}

/// Sort key that ignores float rounding noise.
fn sort_key(t: &Tuple) -> String {
    let parts: Vec<String> = t
        .values()
        .iter()
        .map(|v| match v {
            Value::Float(f) => format!("{f:.6e}"),
            other => format!("{other}"),
        })
        .collect();
    parts.join("|")
}

/// Multiset equality of two answers, tolerating float rounding from a
/// different summation order.
pub fn rows_match(a: &[Tuple], b: &[Tuple]) -> bool {
    if same_rows(a, b) {
        return true;
    }
    if a.len() != b.len() {
        return false;
    }
    let mut a: Vec<&Tuple> = a.iter().collect();
    let mut b: Vec<&Tuple> = b.iter().collect();
    a.sort_by_key(|t| sort_key(t));
    b.sort_by_key(|t| sort_key(t));
    a.iter().zip(&b).all(|(x, y)| {
        x.arity() == y.arity() && x.values().iter().zip(y.values()).all(|(u, v)| values_close(u, v))
    })
}

/// Best-effort answer of the churned single-row aggregate: no numeric
/// column larger than the reference's (its positive inputs only shrink when
/// contributors go missing).
pub fn dominated(answer: &[Tuple], reference: &[Tuple]) -> bool {
    let ([a], [r]) = (answer, reference) else { return false };
    a.arity() == r.arity()
        && a.values().iter().zip(r.values()).all(|(x, y)| match (x.as_f64(), y.as_f64()) {
            (Some(x), Some(y)) => x <= y || float_close(x, y),
            (None, _) => true,
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f64]) -> Tuple {
        Tuple::new(v.iter().map(|&x| Value::Float(x)).collect())
    }

    #[test]
    fn rows_match_tolerates_summation_order() {
        let a = vec![t(&[0.1 + 0.2])];
        let b = vec![t(&[0.3])];
        assert!(rows_match(&a, &b));
        assert!(!rows_match(&a, &[t(&[0.31])]));
    }

    #[test]
    fn over_counted_sum_is_not_dominated() {
        assert!(dominated(&[t(&[19_200.0])], &[t(&[25_700.0])]));
        assert!(!dominated(&[t(&[30_781.0])], &[t(&[19_200.0])]));
        assert!(!dominated(&[], &[t(&[19_200.0])]));
    }

    #[test]
    fn every_dashboard_query_plans() {
        let mut catalog = Catalog::new();
        catalog.register(readings_table());
        for i in 0..DASH_QUERIES {
            let stmt = pier_core::sql::parse_select(&dashboard_sql(i)).expect("parses");
            assert!(Planner::new(&catalog).plan_select(&stmt).is_ok(), "{}", dashboard_sql(i));
        }
    }
}
