//! The benchmark's own deployment harness: the same wiring as
//! `PierTestbed`, but over [`Probe`] nodes so a run can be traced from
//! outside, with a span around every call the benchmark makes into it.

use crate::host::ScaledClock;
use crate::trace::{self, Layer, Probe, Tracer};
use pier_core::prelude::*;
use pier_core::{EngineStats, QueryResults};
use pier_simnet::{ChurnSchedule, LatencyModel, Metrics, SimConfig, Simulation};

/// Seed of the fixed planetary coordinate map (the testbed default seed).
const GEOGRAPHY_SEED: u64 = 0x9132_2004;

/// A booted deployment of `Probe`-wrapped PIER nodes.
pub struct Bed {
    sim: Simulation<Probe>,
    nodes: Vec<NodeAddr>,
    defs: Vec<TableDef>,
    tracer: Option<Tracer>,
    /// Simulator events processed by `run_until` since boot finished.
    pub events: u64,
}

impl Bed {
    /// Boot `nodes` nodes and run the overlay for `warmup` of virtual time,
    /// in one-second steps that tick `clock`.  The deployment's geography is fixed — one planetary coordinate map
    /// per deployment size, like a fixed testbed — while `seed` drives the
    /// per-message latency jitter and every node's randomness.
    pub fn boot(
        nodes: usize,
        seed: u64,
        pier: PierConfig,
        warmup: Duration,
        tracer: Option<Tracer>,
        clock: &mut ScaledClock,
    ) -> Bed {
        let mut geography = pier_simnet::DetRng::new(GEOGRAPHY_SEED);
        let latency = LatencyModel::planetary(nodes.max(1), &mut geography);
        let node_tracer = tracer.clone();
        let mut sim = Simulation::new(
            SimConfig { seed, latency, ..Default::default() },
            move |addr: NodeAddr| {
                let bootstrap = if addr.0 == 0 { None } else { Some(NodeAddr(0)) };
                Probe::new(PierNode::new(addr, pier.clone(), bootstrap), node_tracer.clone())
            },
        );
        let nodes = sim.add_nodes(nodes);
        let warm = sim.now() + warmup;
        while sim.now() < warm {
            sim.run_until(warm.min(sim.now() + Duration::from_secs(1)));
            clock.tick();
        }
        Bed { sim, nodes, defs: Vec::new(), tracer, events: 0 }
    }

    /// Node addresses in creation order.
    pub fn nodes(&self) -> &[NodeAddr] {
        &self.nodes
    }

    /// Whether a node is up.
    pub fn is_alive(&self, addr: NodeAddr) -> bool {
        self.sim.is_alive(addr)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Simulator counters.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// The tracer of a traced run.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// One node's engine (dead nodes stay inspectable).
    pub fn pier(&self, addr: NodeAddr) -> Option<&PierNode> {
        self.sim.node(addr).map(|p| &p.pier)
    }

    /// Field-wise sum of every node's engine counters.
    pub fn engine_totals(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for i in 0..self.sim.num_nodes() {
            if let Some(n) = self.pier(NodeAddr(i as u32)) {
                total.merge(&n.stats());
            }
        }
        total
    }

    /// Sum of every node's (deliveries, delivery hops) of routed operations.
    pub fn route_deliveries(&self) -> (u64, u64) {
        (0..self.sim.num_nodes())
            .filter_map(|i| self.pier(NodeAddr(i as u32)))
            .map(|n| n.dht.stats())
            .fold((0, 0), |(d, h), s| (d + s.deliveries, h + s.delivery_hops))
    }

    /// Register a table on every node, remembering it for nodes that
    /// restart after churn.
    pub fn create_table(&mut self, def: TableDef) {
        for addr in self.sim.alive_nodes() {
            if let Some(p) = self.sim.node_mut(addr) {
                p.pier.create_table(def.clone());
            }
        }
        self.defs.push(def);
    }

    /// Re-provision the table definitions on a node that lost them by
    /// restarting.
    fn ensure_tables(&mut self, addr: NodeAddr) {
        let Some(p) = self.sim.node_mut(addr) else { return };
        for def in &self.defs {
            if p.pier.catalog().get(&def.name).is_none() {
                p.pier.create_table(def.clone());
            }
        }
    }

    /// Store rows at a node as data about that node.
    pub fn publish_local(&mut self, at: NodeAddr, table: &str, rows: Vec<Tuple>) {
        self.ensure_tables(at);
        trace::enter(&self.tracer, Layer::Publish);
        let now = self.sim.now();
        if let Some(p) = self.sim.node_mut(at) {
            for row in rows {
                p.pier.publish_local(now, table, row).expect("table is registered");
            }
        }
        trace::exit(&self.tracer);
    }

    /// Publish rows of one table from a node, routed through the DHT.
    pub fn publish_batch(&mut self, from: NodeAddr, table: &str, rows: Vec<Tuple>) {
        self.ensure_tables(from);
        trace::enter(&self.tracer, Layer::Publish);
        self.sim.invoke(from, |p, ctx| {
            p.pier.publish_batch(ctx, table, rows).expect("table is registered")
        });
        trace::exit(&self.tracer);
    }

    /// Submit SQL from a node.
    pub fn submit_sql(&mut self, from: NodeAddr, sql: &str) -> QueryId {
        self.ensure_tables(from);
        trace::enter(&self.tracer, Layer::Submit);
        let id = self
            .sim
            .invoke(from, |p, ctx| p.pier.submit_sql(ctx, sql))
            .expect("origin is alive")
            .unwrap_or_else(|e| panic!("workload SQL must plan: {e}: {sql}"));
        trace::exit(&self.tracer);
        id
    }

    /// Schedule crashes and restarts.
    pub fn apply_churn(&mut self, schedule: &ChurnSchedule) {
        self.sim.apply_churn(schedule);
    }

    /// Advance virtual time to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        trace::enter(&self.tracer, Layer::Step);
        self.events += self.sim.run_until(t);
        trace::exit(&self.tracer);
    }

    /// The result state a query's origin holds.
    pub fn results(&self, origin: NodeAddr, id: QueryId) -> Option<&QueryResults> {
        self.pier(origin).and_then(|n| n.results(id))
    }
}
