//! Discrete-event scheduler.
//!
//! The default scheduler is a **timing wheel** tuned for DES access
//! patterns: most events land within a few link-serialization times of
//! `now`, so they hit an O(1) bucket insert instead of an O(log n) heap
//! sift, and the hot pop path reads the front of a short buffer holding the
//! current tick instead of sifting a cache-hostile global heap. A fabric's
//! event density scales with its link speed — on a 400 G fabric a 65.5 ns
//! tick holds over a hundred events — so a [`crate::Network`] sizes the
//! tick to its fastest link (`EventQueue::fit_tick`), keeping a few events
//! per tick. A binary-heap scheduler is kept behind
//! [`SchedulerKind::BinaryHeap`] as the reference implementation for
//! benchmarks and determinism cross-checks.
//!
//! Both schedulers implement the same deterministic contract: events pop in
//! non-decreasing time order, FIFO within a tick (the order they were
//! scheduled). The engine is strictly single-threaded — per the project
//! guides, a CPU-bound discrete-event simulation gains nothing from an
//! async runtime.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::packet::{FlowDesc, NodeId, PortId};
use crate::pool::PacketRef;
use crate::units::Time;

/// An event to be dispatched by the network.
#[derive(Debug)]
pub enum Event {
    /// The last bit of `pkt` arrived at `node`.
    ///
    /// The packet lives in the network's [`crate::pool::PacketPool`]; the
    /// event carries a 4-byte recycled handle, so moving events through
    /// scheduler internals costs no allocation and no large struct copies.
    Arrival {
        /// Receiving node.
        node: NodeId,
        /// Handle of the packet, fully received.
        pkt: PacketRef,
    },
    /// Egress `port` of `node` finished serializing its current packet.
    PortFree {
        /// The transmitting node.
        node: NodeId,
        /// The now-idle port.
        port: PortId,
    },
    /// A paced queue on `port` of `node` may have become ready.
    PortKick {
        /// The paced node.
        node: NodeId,
        /// The paced port.
        port: PortId,
    },
    /// A timer set by the endpoint on `node` fired.
    Timer {
        /// The host whose endpoint armed the timer.
        node: NodeId,
        /// The token returned by `Ctx::set_timer_in`.
        token: u64,
    },
    /// A new application flow arrives at its source host.
    FlowArrival {
        /// The flow description. Boxed: flow arrivals are rare (one per
        /// flow), and an inline `FlowDesc` would inflate every [`Event`] —
        /// and therefore every scheduler copy on the hot path — from 16 to
        /// 40 bytes.
        flow: Box<FlowDesc>,
    },
    /// A fault-plan link window transitions (start or end). The network
    /// re-kicks the affected ports so stalled queues wake up when a link
    /// comes back. Only scheduled when a non-empty fault plan is installed.
    FaultWindow {
        /// Index into the plan's window list.
        window: usize,
        /// True at the window start, false at its end.
        start: bool,
    },
    /// A fault-plan node window transitions (crash or restart). At the
    /// start the network purges the dead node's queues, wipes its endpoint
    /// and aborts its flows; at the end it re-kicks adjacent ports and
    /// relaunches aborted flows. Only scheduled for non-empty plans.
    NodeFault {
        /// Index into the plan's node-window list.
        window: usize,
        /// True at the crash instant, false at the restart.
        start: bool,
    },
}

struct Scheduled {
    at: Time,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within a
        // tick, the first-scheduled) event is popped first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Which scheduler implementation an [`EventQueue`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Timing wheel with an overflow heap (default, fast path).
    #[default]
    TimingWheel,
    /// Plain binary heap (the original scheduler; reference/baseline).
    BinaryHeap,
}

// ---------------------------------------------------------------------------
// Binary-heap scheduler (reference implementation)
// ---------------------------------------------------------------------------

/// The original binary-heap scheduler, kept as the comparison baseline.
struct HeapScheduler {
    heap: BinaryHeap<Scheduled>,
}

impl HeapScheduler {
    fn new() -> HeapScheduler {
        HeapScheduler { heap: BinaryHeap::new() }
    }

    #[inline]
    fn push(&mut self, s: Scheduled) {
        self.heap.push(s);
    }

    #[inline]
    fn pop(&mut self) -> Option<(Time, Event)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    #[inline]
    fn pop_at_or_before(&mut self, limit: Time) -> Option<(Time, Event)> {
        if self.heap.peek()?.at > limit {
            return None;
        }
        self.pop()
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------------
// Timing-wheel scheduler
// ---------------------------------------------------------------------------

/// log2 of the default wheel tick in picoseconds (2^16 ps ≈ 65.5 ns), used
/// until [`EventQueue::fit_tick`] sizes the tick to a topology.
const DEFAULT_TICK_SHIFT: u32 = 16;
/// Bounds on a fitted tick: 2^8 ps (256 ps) to 2^20 ps (≈1 µs).
const MIN_TICK_SHIFT: u32 = 8;
const MAX_TICK_SHIFT: u32 = 20;
/// log2 of the bucket count. 4096 buckets span 4.2 µs at a 400 G
/// topology's 2^10 ps tick and 268 µs at the default tick: serialization
/// plus propagation of the next hop in every topology here. Events beyond
/// the span (RTOs, drain timers) go to the overflow heap.
const WHEEL_BITS: u32 = 12;
const WHEEL_SIZE: usize = 1 << WHEEL_BITS;
const WHEEL_MASK: u64 = (WHEEL_SIZE as u64) - 1;
/// One occupancy word per 64 buckets; the one-word summary holds a bit per
/// occupancy word, so `WORDS` must not exceed 64.
const WORDS: usize = WHEEL_SIZE / 64;

/// log2 of the tick fitted to an MTU serialization time of `mtu_ser`: the
/// power of two nearest `mtu_ser / 32`, within the tick bounds.
fn tick_shift_for(mtu_ser: Time) -> u32 {
    let target = (mtu_ser / 32).max(1);
    let floor = 63 - target.leading_zeros();
    let nearest = if target > (3 << floor) / 2 { floor + 1 } else { floor };
    nearest.clamp(MIN_TICK_SHIFT, MAX_TICK_SHIFT)
}

/// Slab slot holding one bucketed event plus the intrusive link to the
/// event pushed before it into the same bucket ([`NIL`] terminates the
/// list). `event` is `None` while the slot sits on the free list.
///
/// No `seq`: within a bucket, list order is `seq` order among events of
/// equal `at` (see [`WheelScheduler::bucket_drain_into_cur`]), so a stable
/// sort by `at` restores the `(at, seq)` order. That keeps a slot at 32
/// bytes, two per cache line.
struct BucketNode {
    at: Time,
    event: Option<Event>,
    next: u32,
}

/// An event of the tick being drained.
struct Due {
    at: Time,
    event: Event,
}

/// Sentinel for "no slot" in the bucket slab's intrusive lists.
const NIL: u32 = u32::MAX;

/// Timing-wheel scheduler: one rotation of `WHEEL_SIZE` buckets of
/// `2^shift` ps each, a buffer for the tick being drained, and an overflow
/// heap for events beyond the horizon.
///
/// The tick is sized to the topology (see [`EventQueue::fit_tick`]) because
/// event density scales with link speed: at 400 G a 65.5 ns tick holds
/// over a hundred events, which makes every drain a sort and every push
/// into the current tick a sorted insert into a long buffer. At about 1/32
/// of the fastest link's MTU serialization time a tick holds a few events:
/// a push links one slot in front of its bucket's list in O(1), and most
/// drained buckets come out already in order, which the drain checks on
/// the way.
///
/// Bucketed events live in one recycling slab (`nodes` + `free`) threaded
/// into per-bucket intrusive lists, so storage tracks the number of pending
/// events. Per-bucket `Vec`s would each keep the capacity of the deepest
/// tick they ever held, for the whole run; the shared slab reaches its
/// high-water mark during warm-up and never touches the allocator again
/// (the steady-state zero-allocation invariant).
///
/// Invariants:
/// * events of every tick up to `base_tick` live in `cur` (usually just
///   `now`'s tick, but a fused pop that answered "nothing due yet" may
///   have moved the cursor past it), so wheel buckets only ever hold ticks
///   in `(base_tick, base_tick + WHEEL_SIZE)`;
/// * every overflow event's tick is `>= base_tick + WHEEL_SIZE` (re-checked
///   after every cursor advance), so the earliest pending event is always
///   `cur`'s last, else the first occupied bucket's min, else overflow's
///   min;
/// * `cur` is in reverse `(at, seq)` order, and every event pushed into it
///   has the largest `seq` pending, so it pops after every event at or
///   before its `at`.
struct WheelScheduler {
    /// log2 of the tick in picoseconds.
    shift: u32,
    base_tick: u64,
    len: usize,
    /// Events of the tick currently being drained, in reverse pop order:
    /// the next event is the last.
    cur: Vec<Due>,
    /// Slab backing every bucketed event.
    nodes: Vec<BucketNode>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Per-bucket list heads into `nodes`: the last event pushed.
    head: Vec<u32>,
    /// Occupancy bitmap over buckets plus a one-word summary, so finding
    /// the next occupied bucket is a few `trailing_zeros`, not a scan.
    occupied: [u64; WORDS],
    summary: u64,
    /// Events at `tick >= base_tick + WHEEL_SIZE`.
    overflow: BinaryHeap<Scheduled>,
}

impl WheelScheduler {
    fn new() -> WheelScheduler {
        WheelScheduler {
            shift: DEFAULT_TICK_SHIFT,
            base_tick: 0,
            len: 0,
            cur: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: vec![NIL; WHEEL_SIZE],
            occupied: [0; WORDS],
            summary: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Link an event in front of bucket `idx`'s list, reusing a recycled
    /// slab slot when one is available. Touches the bucket head and the new
    /// slot only.
    #[inline]
    fn bucket_push(&mut self, idx: usize, at: Time, event: Event) {
        let next = self.head[idx];
        let node = BucketNode { at, event: Some(event), next };
        let slot = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        if next == NIL {
            self.set_bit(idx);
        }
        self.head[idx] = slot;
    }

    /// Drain bucket `idx` into the cursor buffer, recycling its slab slots.
    ///
    /// The list runs from the last push to the first. Events are pushed in
    /// `seq` order, except that overflow events migrate in `(at, seq)`
    /// order — but all of a tick's migrate before any direct push to it,
    /// and with lower `seq`. So among events of equal `at`, list order is
    /// reverse `seq` order: copied in walk order, `cur` is in reverse
    /// `(at, seq)` order once stably sorted by descending `at`. The walk
    /// checks whether it already is; most buckets are.
    fn bucket_drain_into_cur(&mut self, idx: usize) {
        debug_assert!(self.cur.is_empty());
        let mut slot = self.head[idx];
        self.head[idx] = NIL;
        self.clear_bit(idx);
        let mut sorted = true;
        let mut last = Time::MAX;
        while slot != NIL {
            let node = &mut self.nodes[slot as usize];
            sorted &= node.at <= last;
            last = node.at;
            let event = node.event.take().expect("linked slot holds an event");
            self.cur.push(Due { at: node.at, event });
            self.free.push(slot);
            slot = node.next;
        }
        if !sorted {
            self.cur.sort_by_key(|d| Reverse(d.at));
        }
    }

    /// Insert an event into the cursor buffer to pop after every event at
    /// or before `at`: ahead of them in the reversed buffer, which moves
    /// only those.
    #[inline]
    fn cur_insert(&mut self, at: Time, event: Event) {
        let pos = self.cur.partition_point(|d| d.at > at);
        self.cur.insert(pos, Due { at, event });
    }

    #[inline]
    fn set_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
    }

    #[inline]
    fn clear_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        if self.occupied[idx / 64] == 0 {
            self.summary &= !(1 << (idx / 64));
        }
    }

    /// First occupied bucket index strictly after the cursor, in window
    /// order (i.e. by increasing tick), or None if the wheel is empty.
    fn next_occupied(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        // The window [base_tick, base_tick + WHEEL_SIZE) maps bijectively
        // onto bucket indices; circular order from the cursor is tick order:
        // the rest of the start word, the later words, the earlier words,
        // then the start word's low bits.
        let start = ((self.base_tick & WHEEL_MASK) as usize + 1) % WHEEL_SIZE;
        let (w0, b) = (start / 64, start % 64);
        let hi = self.occupied[w0] & (u64::MAX << b);
        if hi != 0 {
            return Some(w0 * 64 + hi.trailing_zeros() as usize);
        }
        let later = if w0 + 1 < WORDS { self.summary & (u64::MAX << (w0 + 1)) } else { 0 };
        let earlier = self.summary & ((1u64 << w0) - 1);
        let w = if later != 0 {
            later.trailing_zeros() as usize
        } else if earlier != 0 {
            earlier.trailing_zeros() as usize
        } else {
            w0
        };
        let bits = self.occupied[w];
        (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
    }

    #[inline]
    fn push(&mut self, s: Scheduled) {
        self.len += 1;
        let tick = s.at >> self.shift;
        // `<=`: a fused pop that answered "nothing due yet" may have moved
        // the cursor past `now`, and the caller can still legally schedule
        // before the cursor. Such events join `cur`, whose order keeps them
        // ahead of every bucketed (strictly later-tick) event.
        if tick <= self.base_tick {
            self.cur_insert(s.at, s.event);
        } else if tick < self.base_tick + WHEEL_SIZE as u64 {
            self.bucket_push((tick & WHEEL_MASK) as usize, s.at, s.event);
        } else {
            self.overflow.push(s);
        }
    }

    /// Pull every overflow event that now falls inside the wheel window.
    fn migrate_overflow(&mut self) {
        let horizon = self.base_tick + WHEEL_SIZE as u64;
        while let Some(s) = self.overflow.peek() {
            let tick = s.at >> self.shift;
            if tick >= horizon {
                break;
            }
            let s = self.overflow.pop().expect("peeked");
            if tick == self.base_tick {
                self.cur_insert(s.at, s.event);
            } else {
                self.bucket_push((tick & WHEEL_MASK) as usize, s.at, s.event);
            }
        }
    }

    /// Move the cursor to the tick of the earliest pending event and load
    /// that tick into `cur`. Caller guarantees `cur` is empty and `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.cur.is_empty() && self.len > 0);
        if let Some(idx) = self.next_occupied() {
            let cursor = (self.base_tick & WHEEL_MASK) as usize;
            self.base_tick += ((idx + WHEEL_SIZE - cursor) % WHEEL_SIZE) as u64;
            self.bucket_drain_into_cur(idx);
        } else {
            let at = self.overflow.peek().expect("len > 0 with empty wheel").at;
            self.base_tick = at >> self.shift;
        }
        self.migrate_overflow();
        debug_assert!(!self.cur.is_empty());
    }

    fn pop(&mut self) -> Option<(Time, Event)> {
        self.pop_at_or_before(Time::MAX)
    }

    /// Pop the next event only if it fires at or before `limit`; otherwise
    /// leave it pending. Fused peek + pop: the run loops call this once per
    /// event instead of scanning for the next occupied bucket twice.
    #[inline]
    fn pop_at_or_before(&mut self, limit: Time) -> Option<(Time, Event)> {
        if self.len == 0 {
            return None;
        }
        if self.cur.is_empty() {
            self.advance();
        }
        if self.cur.last().expect("advance loads the cursor tick").at > limit {
            return None;
        }
        self.len -= 1;
        self.cur.pop().map(|d| (d.at, d.event))
    }

    fn peek_time(&self) -> Option<Time> {
        if let Some(d) = self.cur.last() {
            return Some(d.at);
        }
        if let Some(idx) = self.next_occupied() {
            let mut slot = self.head[idx];
            debug_assert!(slot != NIL, "occupied bucket is non-empty");
            let mut min = Time::MAX;
            while slot != NIL {
                let node = &self.nodes[slot as usize];
                min = min.min(node.at);
                slot = node.next;
            }
            return Some(min);
        }
        self.overflow.peek().map(|s| s.at)
    }

    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// Public facade
// ---------------------------------------------------------------------------

enum Impl {
    Wheel(WheelScheduler),
    Heap(HeapScheduler),
}

/// Event queue with the current simulated time.
pub struct EventQueue {
    now: Time,
    seq: u64,
    imp: Impl,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue at time zero using the default (timing-wheel)
    /// scheduler.
    pub fn new() -> EventQueue {
        EventQueue::with_scheduler(SchedulerKind::TimingWheel)
    }

    /// An empty queue at time zero using the given scheduler.
    pub fn with_scheduler(kind: SchedulerKind) -> EventQueue {
        let imp = match kind {
            SchedulerKind::TimingWheel => Impl::Wheel(WheelScheduler::new()),
            SchedulerKind::BinaryHeap => Impl::Heap(HeapScheduler::new()),
        };
        EventQueue { now: 0, seq: 0, imp }
    }

    /// Size the timing wheel's tick to a topology whose fastest link
    /// serializes an MTU frame in `mtu_ser`: about 1/32 of it, rounded to a
    /// power of two (2^10 ps at 400 G, 2^12 at 100 G, 2^15 at 10 G), so a
    /// tick holds a few events whatever the link speed. Pop order
    /// does not depend on the tick; this only tunes speed. A no-op once
    /// events are pending, and on the heap scheduler.
    pub(crate) fn fit_tick(&mut self, mtu_ser: Time) {
        if let Impl::Wheel(w) = &mut self.imp {
            // A pending event's bucket depends on the tick.
            if w.len == 0 {
                w.shift = tick_shift_for(mtu_ser);
                w.base_tick = self.now >> w.shift;
            }
        }
    }

    /// Which scheduler this queue runs on.
    pub fn scheduler(&self) -> SchedulerKind {
        match self.imp {
            Impl::Wheel(_) => SchedulerKind::TimingWheel,
            Impl::Heap(_) => SchedulerKind::BinaryHeap,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — a causality bug in the caller.
    #[inline]
    pub fn schedule_at(&mut self, at: Time, event: Event) {
        assert!(at >= self.now, "event scheduled in the past: {} < {}", at, self.now);
        let seq = self.seq;
        self.seq += 1;
        let s = Scheduled { at, seq, event };
        match &mut self.imp {
            Impl::Wheel(w) => w.push(s),
            Impl::Heap(h) => h.push(s),
        }
    }

    /// Schedule `event` to fire `delay` after the current time.
    #[inline]
    pub fn schedule_in(&mut self, delay: Time, event: Event) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        let (at, event) = match &mut self.imp {
            Impl::Wheel(w) => w.pop()?,
            Impl::Heap(h) => h.pop()?,
        };
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, event))
    }

    /// Pop the next event only if it fires at or before `limit`, advancing
    /// the clock to its timestamp; returns `None` (and leaves the event
    /// pending) otherwise. The hot-loop form of `peek_time` + `pop`: one
    /// scheduler lookup per event instead of two.
    #[inline]
    pub fn pop_at_or_before(&mut self, limit: Time) -> Option<(Time, Event)> {
        let (at, event) = match &mut self.imp {
            Impl::Wheel(w) => w.pop_at_or_before(limit)?,
            Impl::Heap(h) => h.pop_at_or_before(limit)?,
        };
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, event))
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        match &self.imp {
            Impl::Wheel(w) => w.peek_time(),
            Impl::Heap(h) => h.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.imp {
            Impl::Wheel(w) => w.len(),
            Impl::Heap(h) => h.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::rng::SimRng;

    fn timer(token: u64) -> Event {
        Event::Timer { node: NodeId(0), token }
    }

    const BOTH: [SchedulerKind; 2] = [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap];

    #[test]
    fn pops_in_time_order() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            q.schedule_at(30, timer(3));
            q.schedule_at(10, timer(1));
            q.schedule_at(20, timer(2));
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| match e {
                    Event::Timer { token, .. } => token,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![1, 2, 3]);
            assert_eq!(q.now(), 30);
        }
    }

    #[test]
    fn same_tick_fifo_tie_break() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            for t in 0..100 {
                q.schedule_at(42, timer(t));
            }
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| match e {
                    Event::Timer { token, .. } => token,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            q.schedule_at(100, timer(0));
            q.pop();
            q.schedule_in(5, timer(1));
            assert_eq!(q.peek_time(), Some(105));
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(100, timer(0));
        q.pop();
        q.schedule_at(99, timer(1));
    }

    #[test]
    fn flow_arrival_events_carry_descriptor() {
        let mut q = EventQueue::new();
        let f = FlowDesc { id: FlowId(7), src: NodeId(1), dst: NodeId(2), size: 1000, start: 5 };
        q.schedule_at(5, Event::FlowArrival { flow: Box::new(f) });
        match q.pop() {
            Some((5, Event::FlowArrival { flow })) => assert_eq!(*flow, f),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn event_stays_small() {
        // Every scheduler move copies an `Event`; keep it two words.
        assert!(std::mem::size_of::<Event>() <= 16, "{}", std::mem::size_of::<Event>());
    }

    #[test]
    fn bucket_slots_stay_two_per_cache_line() {
        assert!(std::mem::size_of::<BucketNode>() <= 32, "{}", std::mem::size_of::<BucketNode>());
    }

    #[test]
    fn fused_pop_respects_limit_and_leaves_events_pending() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            q.schedule_at(10, timer(0));
            q.schedule_at(20, timer(1));
            assert!(q.pop_at_or_before(5).is_none());
            // The refused event is still pending and the clock untouched.
            assert_eq!(q.now(), 0);
            assert_eq!(q.len(), 2);
            assert!(matches!(q.pop_at_or_before(10), Some((10, _))));
            assert!(matches!(q.pop_at_or_before(u64::MAX), Some((20, _))));
            assert!(q.pop_at_or_before(u64::MAX).is_none());
        }
    }

    #[test]
    fn schedule_before_the_advanced_cursor_after_refused_pop() {
        // A refused fused pop may advance the wheel cursor past `now`; a
        // subsequent schedule between `now` and the cursor must still pop
        // in strict time order (regression test for cursor aliasing).
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            let far = 7 << DEFAULT_TICK_SHIFT; // several ticks out, within the wheel
            q.schedule_at(far, timer(99));
            assert!(q.pop_at_or_before(1).is_none(), "nothing due yet");
            // Earlier than the (advanced) cursor, later than `now`.
            q.schedule_at(2, timer(1));
            q.schedule_at(1, timer(0));
            let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
                .map(|(t, e)| match e {
                    Event::Timer { token, .. } => (t, token),
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![(1, 0), (2, 1), (far, 99)]);
        }
    }

    /// Events far beyond the wheel horizon (overflow heap) and within it
    /// interleave correctly, including events scheduled while draining.
    #[test]
    fn overflow_and_wheel_interleave() {
        let horizon = (WHEEL_SIZE as u64) << DEFAULT_TICK_SHIFT;
        let mut q = EventQueue::new();
        q.schedule_at(3 * horizon, timer(2));
        q.schedule_at(1, timer(0));
        q.schedule_at(horizon + 17, timer(1));
        q.schedule_at(10 * horizon, timer(3));
        assert_eq!(q.peek_time(), Some(1));
        let (t0, _) = q.pop().unwrap();
        assert_eq!(t0, 1);
        // Schedule more near `now` after the far-future events went in.
        q.schedule_at(5, timer(10));
        assert_eq!(q.peek_time(), Some(5));
        let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::Timer { token, .. } => (t, token),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            order,
            vec![(5, 10), (horizon + 17, 1), (3 * horizon, 2), (10 * horizon, 3)]
        );
    }

    /// The wheel and the heap produce byte-identical pop sequences for an
    /// adversarial random schedule with re-entrant scheduling.
    #[test]
    fn wheel_matches_heap_on_random_interleaved_schedules() {
        let run = |kind: SchedulerKind| {
            let mut rng = SimRng::seed_from_u64(2024);
            let mut q = EventQueue::with_scheduler(kind);
            for i in 0..500 {
                // Mix of near, mid, far and same-tick timestamps.
                let at = match i % 4 {
                    0 => rng.below(1 << 14),
                    1 => rng.below(1 << 22),
                    2 => rng.below(1 << 30),
                    _ => 999_999,
                };
                q.schedule_at(at, timer(i));
            }
            let mut popped = Vec::new();
            let mut extra = 4000u64;
            while let Some((t, e)) = q.pop() {
                let token = match e {
                    Event::Timer { token, .. } => token,
                    _ => unreachable!(),
                };
                popped.push((t, token));
                // Re-entrant scheduling from "handlers", as the engine does.
                if popped.len() % 7 == 0 && extra < 4300 {
                    q.schedule_at(t + rng.below(1 << 20), timer(extra));
                    extra += 1;
                }
            }
            popped
        };
        let wheel = run(SchedulerKind::TimingWheel);
        let heap = run(SchedulerKind::BinaryHeap);
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel, heap, "schedulers must agree event-for-event");
    }

    /// Differential check at extreme horizons: timestamps spanning many full
    /// wheel rotations (forcing repeated overflow-heap refills), clustered
    /// just inside/outside rotation boundaries, and re-entrant schedules
    /// landing exactly on `now`. The wheel must stay pop-for-pop identical
    /// to the reference heap.
    #[test]
    fn wheel_matches_heap_beyond_rotation_horizons() {
        let horizon = (WHEEL_SIZE as u64) << DEFAULT_TICK_SHIFT;
        for seed in 0..6u64 {
            let run = |kind: SchedulerKind| {
                let mut rng = SimRng::seed_from_u64(0xA01u64 ^ seed);
                let mut q = EventQueue::with_scheduler(kind);
                for i in 0..400 {
                    let at = match i % 5 {
                        // Far future: up to ~1000 wheel rotations out.
                        0 => rng.below(1000) * horizon + rng.below(horizon),
                        // Hugging a rotation boundary from both sides.
                        1 => (rng.range_u64(1, 8)) * horizon - rng.below(3),
                        2 => (rng.below(8)) * horizon + rng.below(3),
                        // Same tick, different sub-tick offsets.
                        3 => (5 << DEFAULT_TICK_SHIFT) + rng.below(1 << DEFAULT_TICK_SHIFT),
                        // Near events.
                        _ => rng.below(1 << DEFAULT_TICK_SHIFT),
                    };
                    q.schedule_at(at, timer(i));
                }
                let mut popped = Vec::new();
                let mut extra = 10_000u64;
                while let Some((t, e)) = q.pop() {
                    let token = match e {
                        Event::Timer { token, .. } => token,
                        _ => unreachable!(),
                    };
                    popped.push((t, token));
                    if popped.len() % 11 == 0 && extra < 10_100 {
                        // Re-entrant: zero-delay, next-rotation, far-future.
                        let at = match extra % 3 {
                            0 => t,
                            1 => t + horizon + rng.below(1 << DEFAULT_TICK_SHIFT),
                            _ => t + 50 * horizon,
                        };
                        q.schedule_at(at, timer(extra));
                        extra += 1;
                    }
                }
                popped
            };
            let wheel = run(SchedulerKind::TimingWheel);
            let heap = run(SchedulerKind::BinaryHeap);
            assert_eq!(wheel, heap, "seed {seed}: schedulers disagree at extreme horizons");
        }
    }

    /// Events sharing one timestamp (and one wheel tick) pop in insertion
    /// order on both schedulers — the FIFO stability the engine's
    /// same-instant causality depends on.
    #[test]
    fn same_tick_ordering_is_insertion_stable() {
        let horizon = (WHEEL_SIZE as u64) << DEFAULT_TICK_SHIFT;
        // Same instant, same tick (different instants), and a far-future
        // tick that only materializes after an overflow refill.
        for base in [0u64, 3 << DEFAULT_TICK_SHIFT, 7 * horizon + (9 << DEFAULT_TICK_SHIFT)] {
            for kind in BOTH {
                let mut q = EventQueue::with_scheduler(kind);
                for i in 0..64 {
                    // Two interleaved cohorts at two sub-tick instants.
                    q.schedule_at(base + (i % 2), timer(i));
                }
                let popped: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
                    .map(|(t, e)| match e {
                        Event::Timer { token, .. } => (t, token),
                        _ => unreachable!(),
                    })
                    .collect();
                let expect: Vec<(Time, u64)> = (0..64)
                    .filter(|i| i % 2 == 0)
                    .map(|i| (base, i))
                    .chain((0..64).filter(|i| i % 2 == 1).map(|i| (base + 1, i)))
                    .collect();
                assert_eq!(popped, expect, "kind {kind:?} base {base}");
            }
        }
    }

    #[test]
    fn fitted_ticks_follow_the_fastest_link() {
        // MTU (1500 B) serialization at 400 G, 100 G and 10 G.
        assert_eq!(tick_shift_for(30_000), 10);
        assert_eq!(tick_shift_for(120_000), 12);
        assert_eq!(tick_shift_for(1_200_000), 15);
        assert_eq!(tick_shift_for(0), MIN_TICK_SHIFT);
        assert_eq!(tick_shift_for(Time::MAX), MAX_TICK_SHIFT);
    }

    /// Token bit marking the events of the travel chain in
    /// [`dense_schedule`].
    const TRAVELER: u64 = 1 << 40;

    /// One dense schedule, driven identically on either scheduler:
    /// * a burst of 1,500 events inside 800 ns on a 4 ns grid — over a
    ///   hundred per 65.5 ns, with exact-picosecond ties throughout;
    /// * handlers that re-push at `now`, inside the tick and a few ticks
    ///   out;
    /// * fused pops refused at `now` (which may move the wheel's cursor
    ///   ahead to the next occupied tick), each followed by pushes before
    ///   that cursor;
    /// * a cluster of far events that start in the overflow heap, and a
    ///   travel chain that walks the clock towards them, so they migrate
    ///   into wheel ticks that then receive direct pushes at the very same
    ///   picoseconds.
    ///
    /// `mtu_ser` fits the wheel's tick as a network would (`None` keeps
    /// the default tick). Returns the pop sequence as `(time, token)`.
    fn dense_schedule(kind: SchedulerKind, mtu_ser: Option<Time>, seed: u64) -> Vec<(Time, u64)> {
        let mut q = EventQueue::with_scheduler(kind);
        let shift = match mtu_ser {
            Some(ser) => {
                q.fit_tick(ser);
                tick_shift_for(ser)
            }
            None => DEFAULT_TICK_SHIFT,
        };
        let horizon = (WHEEL_SIZE as u64) << shift;
        let far = horizon + horizon / 2;
        let mut rng = SimRng::seed_from_u64(0xde45e ^ seed);
        let mut next_token = 0u64;
        let mut push = |q: &mut EventQueue, at: Time, flags: u64| {
            q.schedule_at(at, timer(next_token | flags));
            next_token += 1;
        };
        for i in 0..32 {
            push(&mut q, far + (i % 8) * 1_000, 0);
        }
        for _ in 0..1_500 {
            push(&mut q, rng.below(200) * 4_000, 0);
        }
        push(&mut q, horizon / 8, TRAVELER);
        let mut popped = Vec::new();
        let mut budget = 6_000u32;
        loop {
            if rng.chance(0.05) {
                let now = q.now();
                if let Some((t, Event::Timer { token, .. })) = q.pop_at_or_before(now) {
                    popped.push((t, token));
                } else {
                    // Refused: the cursor may now be past `now`.
                    push(&mut q, now + rng.below(3) * 4_000, 0);
                    push(&mut q, now, 0);
                }
                continue;
            }
            let Some((t, ev)) = q.pop() else { break };
            let Event::Timer { token, .. } = ev else { unreachable!() };
            popped.push((t, token));
            if token & TRAVELER != 0 {
                if t + horizon / 8 < 2 * horizon {
                    push(&mut q, t + horizon / 8, TRAVELER);
                }
                if t <= far && t + horizon > far {
                    // Direct pushes into the far cluster's ticks, tied
                    // with the events that migrated there.
                    for _ in 0..8 {
                        push(&mut q, far + rng.below(8) * 1_000, 0);
                    }
                }
                push(&mut q, t + rng.below(16) * 4_000, 0);
            } else if budget > 0 {
                budget -= 1;
                let at = match rng.below(4) {
                    0 => t,
                    1 => t + rng.below(16) * 4_000,
                    _ => t + rng.below(250) * 4_000,
                };
                push(&mut q, at, 0);
            }
        }
        assert!(q.is_empty());
        popped
    }

    /// The wheel matches the reference heap pop for pop on dense ticks,
    /// at the default tick (a hundred events per tick) and at ticks fitted
    /// to 400 G and 10 G links. Within a tick it must order exact ties by
    /// scheduling order, so a wheel that sorted a drained tick by `at`
    /// alone with an unstable sort fails here.
    #[test]
    fn wheel_matches_heap_on_dense_ticks() {
        for mtu_ser in [None, Some(30_000), Some(1_200_000)] {
            for seed in 0..4 {
                let wheel = dense_schedule(SchedulerKind::TimingWheel, mtu_ser, seed);
                let heap = dense_schedule(SchedulerKind::BinaryHeap, mtu_ser, seed);
                assert!(wheel.len() > 7_500, "{}", wheel.len());
                assert_eq!(wheel, heap, "tick fitted to {mtu_ser:?}, seed {seed}");
            }
        }
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let horizon = (WHEEL_SIZE as u64) << DEFAULT_TICK_SHIFT;
        q.schedule_at(0, timer(0));
        q.schedule_at(horizon * 2, timer(1));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|(t, _)| t), None);
    }
}
