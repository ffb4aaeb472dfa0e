//! Outside-in layer tracing.
//!
//! Nothing here reaches inside `aeolus-sim`. [`instrument`] takes a built
//! harness, re-installs every host's endpoint (`Scheme::make_endpoint` on the
//! harness's resolved params, and `make_arbiter` for an arbiter host) inside
//! a [`TimedEndpoint`], and swaps every port's queue discipline for a
//! [`TimedQueue`] around the original. Both wrappers time each call with two
//! clock reads and add it to a per-handler tally, so the engine sees the same
//! calls in the same order and the run stays bit-identical.
//!
//! Endpoint handlers only buffer sends and timers (the engine applies them
//! after the handler returns), so endpoint and queue spans never nest: each
//! layer's self time is its spans' sum, and the engine's self time is the
//! rest of the run. Per-call spans are far too many to keep (tens of
//! millions per run), so the recorder keeps a tally per handler plus a
//! bounded, evenly strided sample of raw spans.
//!
//! Spans read the CPU's time-stamp counter directly. `Instant::now` goes
//! through the vDSO clock, which fences the pipeline before its counter
//! read; inside the simulator that fence waits behind the surrounding cache
//! misses, and a fenced probe cost about 220 ns per call against about 65 ns
//! for the bare counter. Even the bare counter costs about twice in place
//! what it costs in a tight loop, so the probe is calibrated in place, during
//! the traced run (see [`Recorder::probe`]).

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::io::Write;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use aeolus_sim::{
    Ctx, DropTailQueue, Endpoint, EnqueueOutcome, FlowDesc, NodeId, Packet, PacketPool, PacketRef,
    Poll, PortId, QueueDisc, Time, Tracer,
};
use aeolus_transport::Harness;

/// A timed call site: one endpoint handler or queue operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Endpoint::on_flow_arrival`.
    FlowArrival,
    /// `Endpoint::on_packet`.
    Packet,
    /// `Endpoint::on_timer`.
    Timer,
    /// `Endpoint::on_crash`, `on_flow_abort` and `on_flow_restart`.
    Recovery,
    /// `QueueDisc::enqueue`.
    Enqueue,
    /// `QueueDisc::poll`.
    Poll,
}

impl Op {
    /// Every call site.
    pub const ALL: [Op; 6] = [
        Op::FlowArrival,
        Op::Packet,
        Op::Timer,
        Op::Recovery,
        Op::Enqueue,
        Op::Poll,
    ];

    /// The span name: layer, then handler.
    pub fn name(self) -> &'static str {
        match self {
            Op::FlowArrival => "transport.endpoint.on_flow_arrival",
            Op::Packet => "transport.endpoint.on_packet",
            Op::Timer => "transport.endpoint.on_timer",
            Op::Recovery => "transport.endpoint.recovery",
            Op::Enqueue => "sim.queues.enqueue",
            Op::Poll => "sim.queues.poll",
        }
    }

    /// Whether the call belongs to the endpoint layer (else the queue layer).
    pub fn is_endpoint(self) -> bool {
        !matches!(self, Op::Enqueue | Op::Poll)
    }
}

/// Calls and summed span nanoseconds of one [`Op`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Summed span durations, uncalibrated.
    pub ns: u64,
}

/// One sampled raw span, in span-clock ticks until written out.
#[derive(Debug, Clone, Copy)]
struct Span {
    op: Op,
    start: u64,
    dur: u64,
}

/// Every `SPAN_STRIDE`-th timed call is kept as a raw span, up to
/// `SPAN_CAP` spans. The stride is prime so it does not alias with the
/// periodic call patterns of a packet's path.
const SPAN_STRIDE: u64 = 4_099;
const SPAN_CAP: usize = 8_192;

/// The span clock: the time-stamp counter where there is one.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` only reads the time-stamp counter, which every x86_64
    // CPU has; it touches no memory.
    unsafe { std::arch::x86_64::_rdtsc() }
}

/// The span clock elsewhere: nanoseconds since first use.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Convert span-clock ticks to nanoseconds, measuring the tick rate
/// against `Instant` once per process.
fn to_ns(t: u64) -> u64 {
    static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
    let rate = NS_PER_TICK.get_or_init(|| {
        let (i0, t0) = (Instant::now(), ticks());
        std::thread::sleep(Duration::from_millis(50));
        let (i1, t1) = (Instant::now(), ticks());
        (i1 - i0).as_nanos() as f64 / t1.wrapping_sub(t0).max(1) as f64
    });
    (t as f64 * rate) as u64
}

/// Every `CALIBRATE_STRIDE`-th timed call that is a poll also calibrates
/// the probe in place.
const CALIBRATE_STRIDE: u64 = 61;

/// Shared sink of every wrapper installed on one harness.
pub struct Recorder {
    base: u64,
    /// Calls and summed span-clock ticks per [`Op`].
    tallies: [Cell<(u64, u64)>; Op::ALL.len()],
    poll_hits: Cell<u64>,
    enqueue_drops: Cell<u64>,
    seen: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    calibration: Option<RefCell<InPlace>>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            calibration: Some(RefCell::new(InPlace::default())),
            ..Recorder::uncalibrated()
        }
    }
}

impl Recorder {
    fn uncalibrated() -> Recorder {
        Recorder {
            base: ticks(),
            tallies: Default::default(),
            poll_hits: Cell::new(0),
            enqueue_drops: Cell::new(0),
            seen: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            calibration: None,
        }
    }

    #[inline]
    fn record(&self, op: Op, t0: u64) {
        let dur = ticks().wrapping_sub(t0);
        let slot = &self.tallies[op as usize];
        let (calls, sum) = slot.get();
        slot.set((calls + 1, sum + dur));
        let seen = self.seen.get() + 1;
        self.seen.set(seen);
        if seen.is_multiple_of(SPAN_STRIDE) {
            let mut spans = self.spans.borrow_mut();
            if spans.len() < SPAN_CAP {
                spans.push(Span {
                    op,
                    start: t0.wrapping_sub(self.base),
                    dur,
                });
            }
        }
    }

    /// The tally of one call site, in nanoseconds.
    pub fn tally(&self, op: Op) -> Tally {
        let (calls, sum) = self.tallies[op as usize].get();
        Tally {
            calls,
            ns: to_ns(sum),
        }
    }

    /// Polls that returned a packet.
    pub fn poll_hits(&self) -> u64 {
        self.poll_hits.get()
    }

    /// Enqueues the discipline rejected.
    pub fn enqueue_drops(&self) -> u64 {
        self.enqueue_drops.get()
    }

    /// The probe cost calibrated in place so far.
    pub fn probe(&self) -> Probe {
        let c = self
            .calibration
            .as_ref()
            .expect("a harness recorder calibrates")
            .borrow();
        let n = c.calls.max(1) as f64;
        let (bare, wrapped) = (to_ns(c.bare) as f64, to_ns(c.wrapped) as f64);
        Probe {
            probe_ns: (wrapped - bare) / n,
            span_floor_ns: c.empty.tally(Op::Poll).ns as f64 / n,
            // Both timed calls plus the closing clock read, which costs
            // about what the bare call's reading holds.
            calibration_s: (wrapped + 2.0 * bare) / 1e9,
        }
    }

    /// Right after a real poll, with the pipeline and caches as the probe
    /// finds them, time the bare empty call and the wrapped empty call
    /// from outside.
    fn calibrate(&self, pool: &mut PacketPool, now: Time) {
        let Some(c) = &self.calibration else { return };
        let c = &mut *c.borrow_mut();
        let t0 = ticks();
        black_box(c.bare_call.poll(pool, now));
        let t1 = ticks();
        black_box(c.timed_call.poll(pool, now));
        let t2 = ticks();
        c.bare += t1.wrapping_sub(t0);
        c.wrapped += t2.wrapping_sub(t1);
        c.calls += 1;
    }

    /// Write the sampled raw spans as JSON lines.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans.borrow().iter() {
            let (start, dur) = (to_ns(s.start), to_ns(s.dur));
            writeln!(
                out,
                "{{\"span\":\"{}\",\"start_ns\":{start},\"dur_ns\":{dur}}}",
                s.op.name()
            )?;
        }
        Ok(())
    }
}

/// An endpoint whose every handler call is timed.
struct TimedEndpoint {
    inner: Box<dyn Endpoint>,
    rec: Rc<Recorder>,
}

impl Endpoint for TimedEndpoint {
    fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
        let t0 = ticks();
        self.inner.on_flow_arrival(flow, ctx);
        self.rec.record(Op::FlowArrival, t0);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let t0 = ticks();
        self.inner.on_packet(pkt, ctx);
        self.rec.record(Op::Packet, t0);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let t0 = ticks();
        self.inner.on_timer(token, ctx);
        self.rec.record(Op::Timer, t0);
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        let t0 = ticks();
        self.inner.on_crash(ctx);
        self.rec.record(Op::Recovery, t0);
    }

    fn on_flow_abort(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
        let t0 = ticks();
        self.inner.on_flow_abort(flow, ctx);
        self.rec.record(Op::Recovery, t0);
    }

    fn on_flow_restart(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
        let t0 = ticks();
        self.inner.on_flow_restart(flow, ctx);
        self.rec.record(Op::Recovery, t0);
    }
}

/// A queue discipline whose `enqueue` and `poll` are timed. Occupancy reads
/// (`bytes`, `pkts`, `bands`) pass through untimed, so they count as engine
/// time.
struct TimedQueue {
    inner: Box<dyn QueueDisc>,
    rec: Rc<Recorder>,
}

impl QueueDisc for TimedQueue {
    fn enqueue(&mut self, pkt: PacketRef, pool: &mut PacketPool, now: Time) -> EnqueueOutcome {
        let t0 = ticks();
        let out = self.inner.enqueue(pkt, pool, now);
        self.rec.record(Op::Enqueue, t0);
        if matches!(out, EnqueueOutcome::Dropped { .. }) {
            self.rec.enqueue_drops.set(self.rec.enqueue_drops.get() + 1);
        }
        out
    }

    fn poll(&mut self, pool: &mut PacketPool, now: Time) -> Poll {
        let t0 = ticks();
        let out = self.inner.poll(pool, now);
        self.rec.record(Op::Poll, t0);
        if matches!(out, Poll::Ready(_)) {
            self.rec.poll_hits.set(self.rec.poll_hits.get() + 1);
        }
        if self.rec.seen.get().is_multiple_of(CALIBRATE_STRIDE) {
            self.rec.calibrate(pool, now);
        }
        out
    }

    fn bytes(&self) -> u64 {
        self.inner.bytes()
    }

    fn pkts(&self) -> usize {
        self.inner.pkts()
    }

    fn bands(&self, out: &mut Vec<(&'static str, u64)>) {
        self.inner.bands(out)
    }
}

/// Wrap every endpoint and every port queue of a freshly built harness.
pub fn instrument<T: Tracer>(h: &mut Harness<T>, rec: &Rc<Recorder>) {
    let timed = |inner| {
        Box::new(TimedEndpoint {
            inner,
            rec: rec.clone(),
        })
    };
    for host in h.hosts().to_vec() {
        h.topo
            .net
            .set_endpoint(host, timed(h.scheme.make_endpoint(&h.params)));
    }
    if let Some(arbiter) = h.params.arbiter {
        h.topo
            .net
            .set_endpoint(arbiter, timed(h.scheme.make_arbiter(&h.params)));
    }
    let net = h.network_mut();
    for n in 0..net.node_count() {
        let node = NodeId(n as u32);
        for p in 0..net.node(node).ports.len() {
            let port = net.port_mut(node, PortId(p as u16));
            let inner = std::mem::replace(&mut port.queue, Box::new(DropTailQueue::new(0)));
            port.queue = Box::new(TimedQueue {
                inner,
                rec: rec.clone(),
            });
        }
    }
}

/// Calibrated cost of one timed call.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Wall time a timed call adds over the bare call (`trace.probe_ns`):
    /// the extra dispatch, both clock reads and the tally update.
    pub probe_ns: f64,
    /// The part of `probe_ns` that falls inside the recorded span: what an
    /// empty call's span reads.
    pub span_floor_ns: f64,
    /// Host seconds the in-place calibration itself added to the run.
    pub calibration_s: f64,
}

/// An empty queue: the call the probe is calibrated on.
struct Idle;

impl QueueDisc for Idle {
    fn enqueue(&mut self, _: PacketRef, _: &mut PacketPool, _: Time) -> EnqueueOutcome {
        EnqueueOutcome::Queued
    }
    fn poll(&mut self, _: &mut PacketPool, _: Time) -> Poll {
        Poll::Empty
    }
    fn bytes(&self) -> u64 {
        0
    }
    fn pkts(&self) -> usize {
        0
    }
}

/// In-place probe calibration: an empty call, bare and wrapped, timed
/// between real calls of the traced run. A tight calibration loop reads
/// about half the in-place cost: there the clock reads overlap with
/// nothing, while in the simulator they wait behind its cache misses.
struct InPlace {
    bare_call: Box<dyn QueueDisc>,
    timed_call: Box<dyn QueueDisc>,
    /// The wrapped empty call's own recorder: its spans are the floor.
    empty: Rc<Recorder>,
    bare: u64,
    wrapped: u64,
    calls: u64,
}

impl Default for InPlace {
    fn default() -> InPlace {
        let empty = Rc::new(Recorder::uncalibrated());
        InPlace {
            bare_call: Box::new(Idle),
            timed_call: Box::new(TimedQueue {
                inner: Box::new(Idle),
                rec: empty.clone(),
            }),
            empty,
            bare: 0,
            wrapped: 0,
            calls: 0,
        }
    }
}
