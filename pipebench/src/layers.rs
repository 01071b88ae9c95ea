//! Per-node-kind attribution for the traced run.
//!
//! [`instrument`] replaces every node of a built scenario with a timing
//! decorator and every link's qdisc with a timing qdisc. The decorators
//! delegate `as_any`/`as_any_mut`/`as_any_qdisc`, so the downcasts
//! `BuiltScenario::finish` and the topology harnesses do still reach the
//! real node, and they change no event: a traced point's
//! `events_fingerprint` equals the untraced one.
//!
//! Node handlers never nest (the simulator defers every effect), so a
//! node kind's self time is the sum of its handler durations. The one
//! nesting is the qdisc inside its link: the link's self time excludes
//! the time its qdisc's `enqueue`/`dequeue`/`on_capacity` took.

use experiments::engine::BuiltScenario;
use netsim::event::EventKind;
use netsim::fault::ImpairmentWire;
use netsim::flow::{Sender, Sink};
use netsim::linkqueue::LinkQueue;
use netsim::node::{Context, Node};
use netsim::packet::{NodeId, Packet};
use netsim::queue::{Qdisc, QdiscStats};
use netsim::rate::Rate;
use netsim::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use wifi_mac::WifiAp;

/// The node kinds the traced run attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `netsim::flow::Sender`: congestion control, app drivers, timers.
    Sender,
    /// `netsim::flow::Sink`: delivery accounting and ACK generation.
    Sink,
    /// `netsim::linkqueue::LinkQueue`, excluding its qdisc.
    LinkQueue,
    /// `netsim::fault::ImpairmentWire`.
    Impair,
    /// `wifi_mac::WifiAp`, including its qdisc.
    WifiAp,
    /// Any other node (only fault-injection nodes today).
    Other,
}

impl Kind {
    const COUNT: usize = 6;

    fn of(node: &dyn Node) -> Kind {
        let any = node.as_any();
        if any.is::<Sender>() {
            Kind::Sender
        } else if any.is::<Sink>() {
            Kind::Sink
        } else if any.is::<LinkQueue>() {
            Kind::LinkQueue
        } else if any.is::<ImpairmentWire>() {
            Kind::Impair
        } else if any.is::<WifiAp>() {
            Kind::WifiAp
        } else {
            Kind::Other
        }
    }
}

/// Wall time and dispatch counts accumulated by the decorators of one
/// scenario (or summed over many).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// Handler wall ns per [`Kind`], the link's including its qdisc.
    pub node_ns: [u64; Kind::COUNT],
    /// Events dispatched per [`Kind`].
    pub events: [u64; Kind::COUNT],
    /// Events that arrived through `handle_batch`.
    pub batch_events: u64,
    /// Wall ns inside qdisc `enqueue`/`dequeue`/`on_capacity`.
    pub qdisc_ns: u64,
}

impl LayerTimes {
    /// Self seconds of one node kind (the link net of its qdisc).
    pub fn self_s(&self, kind: Kind) -> f64 {
        let ns = self.node_ns[kind as usize];
        let ns = if kind == Kind::LinkQueue {
            ns.saturating_sub(self.qdisc_ns)
        } else {
            ns
        };
        ns as f64 * 1e-9
    }

    /// Seconds inside the qdiscs of every link.
    pub fn qdisc_s(&self) -> f64 {
        self.qdisc_ns as f64 * 1e-9
    }

    /// Seconds inside any node handler, qdiscs included.
    pub fn all_nodes_s(&self) -> f64 {
        self.node_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Events dispatched to nodes of `kind`.
    pub fn events(&self, kind: Kind) -> u64 {
        self.events[kind as usize]
    }

    /// Events dispatched to any node.
    pub fn all_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Add another scenario's totals.
    pub fn add(&mut self, other: &LayerTimes) {
        for k in 0..Kind::COUNT {
            self.node_ns[k] += other.node_ns[k];
            self.events[k] += other.events[k];
        }
        self.batch_events += other.batch_events;
        self.qdisc_ns += other.qdisc_ns;
    }
}

/// The shared accumulator the decorators of one scenario write into.
#[derive(Default)]
struct Clocks {
    node_ns: [Cell<u64>; Kind::COUNT],
    events: [Cell<u64>; Kind::COUNT],
    batch_events: Cell<u64>,
    qdisc_ns: Cell<u64>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// Handle to one instrumented scenario's clocks.
pub struct Probe(Rc<Clocks>);

impl Probe {
    /// The totals accumulated so far.
    pub fn times(&self) -> LayerTimes {
        let c = &self.0;
        LayerTimes {
            node_ns: std::array::from_fn(|k| c.node_ns[k].get()),
            events: std::array::from_fn(|k| c.events[k].get()),
            batch_events: c.batch_events.get(),
            qdisc_ns: c.qdisc_ns.get(),
        }
    }
}

/// A busy-wait added inside one kind's decorator on every event it
/// dispatches: the attribution self-test's known slowdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slowdown {
    /// The kind whose decorator waits.
    pub kind: Kind,
    /// Busy-wait per dispatched event.
    pub per_event: Duration,
}

/// Wrap every node of `built` in a timing decorator (and every link's
/// qdisc in a timing qdisc). Call between `ScenarioEngine::build` and
/// `BuiltScenario::run_to_end`.
pub fn instrument(built: &mut BuiltScenario, slowdown: Option<Slowdown>) -> Probe {
    let clocks = Rc::new(Clocks::default());
    // Node ids are dense; the highest id the engine reports is a sender
    // whose sink sits right after it. Keep going while slots are filled
    // so nodes added after the flows are wrapped too.
    let known_max = built
        .hops
        .iter()
        .map(|(_, id)| id.0)
        .chain(built.sender_ids.iter().map(|id| id.0 + 1))
        .max()
        .unwrap_or(0);
    let mut id = 0u32;
    loop {
        let Some(slot) = built.sim.node_mut(NodeId(id)) else {
            if id > known_max {
                break;
            }
            id += 1;
            continue;
        };
        let kind = Kind::of(slot.as_ref());
        if let Some(lq) = slot.as_any_mut().downcast_mut::<LinkQueue>() {
            let q = lq.qdisc_boxed_mut();
            let inner = std::mem::replace(q, Box::new(netsim::queue::DropTail::new(1)));
            *q = Box::new(TimedQdisc {
                inner,
                clocks: clocks.clone(),
            });
        }
        let inner = std::mem::replace(slot, Box::new(Placeholder));
        *slot = Box::new(TimedNode {
            inner,
            kind,
            clocks: clocks.clone(),
            spin: slowdown.filter(|s| s.kind == kind).map(|s| s.per_event),
        });
        id += 1;
    }
    Probe(clocks)
}

/// Stand-in occupying a slot for the instant its node is being wrapped.
struct Placeholder;

impl Node for Placeholder {
    fn handle(&mut self, _ctx: &mut Context, _event: EventKind) {
        unreachable!("placeholder node never stays installed")
    }
    netsim::impl_node_downcast!();
}

struct TimedNode {
    inner: Box<dyn Node>,
    kind: Kind,
    clocks: Rc<Clocks>,
    spin: Option<Duration>,
}

impl TimedNode {
    fn charge(&self, t0: Instant, events: u64) {
        if let Some(per_event) = self.spin {
            let until = per_event.saturating_mul(events as u32);
            let t1 = Instant::now();
            while t1.elapsed() < until {
                std::hint::spin_loop();
            }
        }
        let k = self.kind as usize;
        bump(&self.clocks.node_ns[k], t0.elapsed().as_nanos() as u64);
        bump(&self.clocks.events[k], events);
    }
}

impl Node for TimedNode {
    fn start(&mut self, ctx: &mut Context) {
        let t0 = Instant::now();
        self.inner.start(ctx);
        self.charge(t0, 0);
    }

    fn handle(&mut self, ctx: &mut Context, event: EventKind) {
        let t0 = Instant::now();
        self.inner.handle(ctx, event);
        self.charge(t0, 1);
    }

    fn handle_batch(&mut self, ctx: &mut Context, batch: &mut Vec<EventKind>) {
        let n = batch.len() as u64;
        let t0 = Instant::now();
        self.inner.handle_batch(ctx, batch);
        self.charge(t0, n);
        bump(&self.clocks.batch_events, n);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// Times the qdisc work a link does per packet; the cheap accessors
/// (`peek_size`, lengths, `head_sojourn`, `stats`) stay in the link's
/// self time.
struct TimedQdisc {
    inner: Box<dyn Qdisc>,
    clocks: Rc<Clocks>,
}

impl TimedQdisc {
    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn Qdisc) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut *self.inner);
        bump(&self.clocks.qdisc_ns, t0.elapsed().as_nanos() as u64);
        out
    }
}

impl Qdisc for TimedQdisc {
    fn as_any_qdisc(&self) -> &dyn std::any::Any {
        self.inner.as_any_qdisc()
    }

    fn enqueue(&mut self, pkt: Box<Packet>, now: SimTime) -> bool {
        self.timed(|q| q.enqueue(pkt, now))
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Box<Packet>> {
        self.timed(|q| q.dequeue(now))
    }

    fn on_capacity(&mut self, rate: Rate, now: SimTime) {
        self.timed(|q| q.on_capacity(rate, now))
    }

    fn peek_size(&self) -> Option<u32> {
        self.inner.peek_size()
    }

    fn len_pkts(&self) -> usize {
        self.inner.len_pkts()
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn head_sojourn(&self, now: SimTime) -> Option<SimDuration> {
        self.inner.head_sojourn(now)
    }

    fn stats(&self) -> QdiscStats {
        self.inner.stats()
    }

    fn control_signals(&self) -> Option<netsim::telemetry::ControlSignals> {
        self.inner.control_signals()
    }
}

/// Retransmissions summed over every sender of `built`.
pub fn retransmits(built: &BuiltScenario) -> u64 {
    built
        .sender_ids
        .iter()
        .filter_map(|&id| built.sim.node(id))
        .filter_map(|n| n.as_any().downcast_ref::<Sender>())
        .map(|s| s.stats().retransmits)
        .sum()
}

/// Qdisc drops summed over every link hop of `built`.
pub fn qdisc_drops(built: &BuiltScenario) -> u64 {
    built
        .hops
        .iter()
        .filter_map(|&(_, id)| built.sim.node(id))
        .filter_map(|n| n.as_any().downcast_ref::<LinkQueue>())
        .map(|lq| lq.qdisc().stats().dropped_pkts)
        .sum()
}
