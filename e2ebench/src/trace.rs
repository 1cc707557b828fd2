//! Outside-in tracing: spans around the benchmark's calls into the testbed
//! and a wrapper node that times every handler `PierNode` runs, classified
//! by DHT message variant and `PierPayload` plane.
//!
//! Nothing here reaches into the engine: the wrapper forwards
//! `on_start`/`on_message`/`on_timer`/`on_stop` unchanged, so a traced run
//! executes exactly the same program as an untraced one (the benchmark
//! checks this by comparing their counts).

use pier_core::engine::PierMsg;
use pier_core::{PierNode, PierPayload};
use pier_dht::{timers, DhtMsg, RouteBody};
use pier_simnet::{Context, Node, NodeAddr};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A traced layer.  Benchmark-call spans (`Step`, `Publish`, `Submit`, `Poll`)
/// enclose the handler spans the simulator dispatches inside them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One `run_until` step of the simulator; its self time is the
    /// simulator's own dispatch work.
    Step,
    /// A benchmark publish call (`publish_local` / `publish_batch`).
    Publish,
    /// A benchmark query submission.
    Submit,
    /// The benchmark's own result polling.
    Poll,
    /// Node boot and shutdown (`on_start`/`on_stop`, churn).
    Lifecycle,
    /// Overlay upkeep frames: stabilization, finger repair, liveness.
    DhtMaint,
    /// DHT-owned timers (stabilize, fix-fingers, ping, sweep, join retry).
    DhtTimer,
    /// DHT storage frames other than published tuples: gets, replies,
    /// replication, handoff.
    DhtStore,
    /// Frames carrying published tuples to the node that stores them.
    EnginePublish,
    /// Aggregation plane: partials, epoch summaries, window retractions.
    EngineAgg,
    /// Join plane: rehashed tuples and Bloom summaries.
    EngineJoin,
    /// Result plane: rows streaming to the query origin.
    EngineResult,
    /// Control plane: plan dissemination, stop, traces, statistics gossip,
    /// recursive expansion.
    EngineControl,
    /// Engine-owned timers (epochs, hold-downs, root finalize, flushes).
    EngineTimer,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 14] = [
        Layer::Step,
        Layer::Publish,
        Layer::Submit,
        Layer::Poll,
        Layer::Lifecycle,
        Layer::DhtMaint,
        Layer::DhtTimer,
        Layer::DhtStore,
        Layer::EnginePublish,
        Layer::EngineAgg,
        Layer::EngineJoin,
        Layer::EngineResult,
        Layer::EngineControl,
        Layer::EngineTimer,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// Span accounting: total time, self time (total minus the time of child
/// spans) and span count per layer.  Spans are kept as aggregates in memory
/// and read out when the run ends.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// Handler spans are recorded only while active (the measured phase).
    pub active: bool,
    origin: Option<Instant>,
    open: Vec<(Layer, Duration, Duration)>,
    total: [Duration; Layer::ALL.len()],
    own: [Duration; Layer::ALL.len()],
    count: [u64; Layer::ALL.len()],
    frames: [u64; Layer::ALL.len()],
    routed: u64,
}

impl Spans {
    fn now(&mut self) -> Duration {
        self.origin.get_or_insert_with(Instant::now).elapsed()
    }

    /// Open a span of `layer` now.
    pub fn enter(&mut self, layer: Layer) {
        let t = self.now();
        self.enter_at(layer, t);
    }

    /// Close the innermost open span now.
    pub fn exit(&mut self) {
        let t = self.now();
        self.exit_at(t);
    }

    /// Open a span at time `t` (measured from any fixed origin).
    pub fn enter_at(&mut self, layer: Layer, t: Duration) {
        self.open.push((layer, t, Duration::ZERO));
    }

    /// Close the innermost open span at time `t`: its whole duration counts
    /// as child time of the enclosing span, and its self time is its
    /// duration minus its own children's.
    pub fn exit_at(&mut self, t: Duration) {
        let (layer, start, children) = self.open.pop().expect("exit without a matching enter");
        let spent = t.saturating_sub(start);
        let i = layer.index();
        self.total[i] += spent;
        self.own[i] += spent.saturating_sub(children);
        self.count[i] += 1;
        if let Some(parent) = self.open.last_mut() {
            parent.2 += spent;
        }
    }

    /// Self time of `layer`, seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.own[layer.index()].as_secs_f64()
    }

    /// Total (inclusive) time of `layer`, seconds.
    pub fn total_s(&self, layer: Layer) -> f64 {
        self.total[layer.index()].as_secs_f64()
    }

    /// Number of closed spans of `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer.index()]
    }

    /// Number of delivered frames classified into `layer`.
    pub fn frames(&self, layer: Layer) -> u64 {
        self.frames[layer.index()]
    }

    /// Number of delivered routed frames (`Route` / `RouteBatch`).
    pub fn routed_frames(&self) -> u64 {
        self.routed
    }
}

/// The shared tracer of one traced run.
pub type Tracer = Rc<RefCell<Spans>>;

/// Open a span on `tracer` (no-op for an untraced run).
pub fn enter(tracer: &Option<Tracer>, layer: Layer) {
    if let Some(t) = tracer {
        t.borrow_mut().enter(layer);
    }
}

/// Close the innermost span on `tracer` (no-op for an untraced run).
pub fn exit(tracer: &Option<Tracer>) {
    if let Some(t) = tracer {
        t.borrow_mut().exit();
    }
}

/// The plane a payload belongs to.
fn payload_layer(p: &PierPayload) -> Layer {
    match p {
        PierPayload::Tuple(_) | PierPayload::TupleBatch(_) => Layer::EnginePublish,
        PierPayload::Partial { .. }
        | PierPayload::EpochDone { .. }
        | PierPayload::WindowRetract { .. } => Layer::EngineAgg,
        PierPayload::JoinTuple { .. }
        | PierPayload::JoinBatch { .. }
        | PierPayload::Bloom { .. } => Layer::EngineJoin,
        PierPayload::Result(_) | PierPayload::ResultBatch { .. } => Layer::EngineResult,
        PierPayload::Query(_)
        | PierPayload::StopQuery(_)
        | PierPayload::Expand { .. }
        | PierPayload::TraceRequest { .. }
        | PierPayload::TraceReport { .. }
        | PierPayload::StatsGossip { .. } => Layer::EngineControl,
    }
}

fn route_layer(body: &RouteBody<PierPayload>) -> Layer {
    match body {
        RouteBody::FindSuccessor { .. } => Layer::DhtMaint,
        RouteBody::Put { item, .. } => match payload_layer(&item.value) {
            Layer::EnginePublish => Layer::EnginePublish,
            _ => Layer::DhtStore,
        },
        RouteBody::Get { .. } => Layer::DhtStore,
        RouteBody::AppSend { payload, .. } => payload_layer(payload),
    }
}

/// Classify one delivered frame by DHT variant and, for frames carrying
/// application payloads, by the plane of the (first) payload.
pub fn classify(msg: &PierMsg) -> Layer {
    match msg {
        DhtMsg::Route { body, .. } => route_layer(body),
        DhtMsg::RouteBatch { routes } => {
            routes.first().map(|r| route_layer(&r.body)).unwrap_or(Layer::DhtMaint)
        }
        DhtMsg::FoundSuccessor { .. }
        | DhtMsg::GetNeighbors
        | DhtMsg::Neighbors { .. }
        | DhtMsg::Notify { .. }
        | DhtMsg::Ping { .. }
        | DhtMsg::Pong { .. } => Layer::DhtMaint,
        DhtMsg::Replicate { .. } | DhtMsg::Handoff { .. } | DhtMsg::GetReply { .. } => {
            Layer::DhtStore
        }
        DhtMsg::Direct { payload } | DhtMsg::Broadcast { payload, .. } => payload_layer(payload),
        DhtMsg::DirectBatch { payloads } => {
            payloads.first().map(payload_layer).unwrap_or(Layer::EngineControl)
        }
    }
}

/// A benchmark-side node that hosts one `PierNode` and, when traced, times
/// each handler call under the class of what it handles.
pub struct Probe {
    /// The wrapped engine.
    pub pier: PierNode,
    tracer: Option<Tracer>,
}

impl Probe {
    /// Wrap `pier`; `tracer` is `None` for an untraced run.
    pub fn new(pier: PierNode, tracer: Option<Tracer>) -> Self {
        Probe { pier, tracer }
    }

    /// The tracer, while it is recording.
    fn recording(&self) -> Option<Tracer> {
        self.tracer.as_ref().filter(|t| t.borrow().active).cloned()
    }

    fn timed(&mut self, layer: Layer, f: impl FnOnce(&mut PierNode)) {
        match self.recording() {
            None => f(&mut self.pier),
            Some(t) => {
                t.borrow_mut().enter(layer);
                f(&mut self.pier);
                t.borrow_mut().exit();
            }
        }
    }
}

impl Node for Probe {
    type Msg = PierMsg;

    fn on_start(&mut self, ctx: &mut Context<PierMsg>) {
        self.timed(Layer::Lifecycle, |p| p.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<PierMsg>, from: NodeAddr, msg: PierMsg) {
        let Some(t) = self.recording() else {
            self.pier.on_message(ctx, from, msg);
            return;
        };
        let layer = classify(&msg);
        {
            let mut spans = t.borrow_mut();
            spans.frames[layer.index()] += 1;
            spans.routed += matches!(msg, DhtMsg::Route { .. } | DhtMsg::RouteBatch { .. }) as u64;
        }
        self.timed(layer, |p| p.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<PierMsg>, token: u64) {
        let layer = if (timers::TOKEN_BASE..timers::TOKEN_LIMIT).contains(&token) {
            Layer::DhtTimer
        } else {
            Layer::EngineTimer
        };
        self.timed(layer, |p| p.on_timer(ctx, token));
    }

    fn on_stop(&mut self, ctx: &mut Context<PierMsg>) {
        self.timed(Layer::Lifecycle, |p| p.on_stop(ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // Step [0, 100) encloses two handlers [10, 30) and [40, 90); the
        // second encloses a nested span [50, 60).
        let mut s = Spans::default();
        s.enter_at(Layer::Step, ms(0));
        s.enter_at(Layer::DhtMaint, ms(10));
        s.exit_at(ms(30));
        s.enter_at(Layer::EngineAgg, ms(40));
        s.enter_at(Layer::Lifecycle, ms(50));
        s.exit_at(ms(60));
        s.exit_at(ms(90));
        s.exit_at(ms(100));

        assert!((s.total_s(Layer::Step) - 0.100).abs() < 1e-9);
        assert!((s.self_s(Layer::Step) - 0.030).abs() < 1e-9);
        assert!((s.self_s(Layer::DhtMaint) - 0.020).abs() < 1e-9);
        assert!((s.total_s(Layer::EngineAgg) - 0.050).abs() < 1e-9);
        assert!((s.self_s(Layer::EngineAgg) - 0.040).abs() < 1e-9);
        assert!((s.self_s(Layer::Lifecycle) - 0.010).abs() < 1e-9);
        // Self times partition the outermost span exactly.
        let sum: f64 = Layer::ALL.iter().map(|&l| s.self_s(l)).sum();
        assert!((sum - 0.100).abs() < 1e-9);
        assert_eq!(s.count(Layer::Step), 1);
    }

    #[test]
    fn sibling_top_level_spans_accumulate() {
        let mut s = Spans::default();
        s.enter_at(Layer::Poll, ms(0));
        s.exit_at(ms(5));
        s.enter_at(Layer::Poll, ms(10));
        s.exit_at(ms(12));
        assert!((s.self_s(Layer::Poll) - 0.007).abs() < 1e-9);
        assert_eq!(s.count(Layer::Poll), 2);
    }

    #[test]
    fn frames_classify_by_variant_and_plane() {
        use pier_core::QueryId;
        let ping: PierMsg = DhtMsg::Ping { nonce: 1 };
        assert_eq!(classify(&ping), Layer::DhtMaint);
        let stop: PierMsg = DhtMsg::Direct { payload: PierPayload::StopQuery(QueryId(7)) };
        assert_eq!(classify(&stop), Layer::EngineControl);
        let done: PierMsg = DhtMsg::DirectBatch {
            payloads: vec![PierPayload::EpochDone { query: QueryId(7), epoch: 3, contributors: 2 }],
        };
        assert_eq!(classify(&done), Layer::EngineAgg);
    }
}
