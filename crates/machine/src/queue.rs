//! Pending-event queues for the simulator.
//!
//! The DES dispatches events in `(time, seq)` order. At paper scale
//! (≤ 1024 nodes) a [`BinaryHeap`] is the faster queue; at 10⁵–10⁶
//! nodes the queue holds hundreds of thousands of pending events and
//! every push/pop pays `O(log n)` pointer-chasing over a cache-hostile
//! heap.
//! [`CalendarQueue`] (R. Brown, CACM 1988) buckets events by timestamp
//! so the common near-future operations touch one small bucket. Each
//! bucket is a sorted run whose buffer is freed when it drains: pop
//! takes the front in O(1), push appends in O(1) when the event sorts
//! last (always, for a same-timestamp burst) and otherwise inserts in
//! `O(bucket)`.
//!
//! Both implementations sit behind the [`EventQueue`] trait and produce
//! the **identical dispatch sequence**, including the same-timestamp
//! sequence-number tie-break — locked by unit tests here and by the
//! seeded equivalence property tests in `tests/queue_props.rs`. The
//! simulator picks an implementation per [`QueueKind`]; `Auto` selects
//! by machine size so paper-scale runs keep the exact code path (and
//! byte-identical figure CSVs) they always had.
//!
//! Keeping both queues is a measured choice, not an assumption. Forcing
//! the calendar at every machine size (only the `Auto` threshold set to
//! 0) over 5 alternating pairs of 12-second benchmark runs on a 2-core
//! VM, every exact counter unchanged, moved `paper-apps-idx` `wall_s`
//! from 1.969 s to 1.962 s (calendar faster in 2 of 5 pairs) and
//! `peak_rss_mb` from 167.9 to 168.1 (0 of 5), and `chaos-scale`
//! `wall_s` from 1.340 s to 1.287 s (1 of 5) and `peak_rss_mb` from
//! 33.13 to 33.66 (1 of 5). Below the threshold the calendar is no
//! faster beyond noise and never smaller; above it (`des-relay`'s 10⁶
//! nodes) it is the queue that scales.

use crate::time::SimTime;
use crate::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A pending message: due `time`, enqueue sequence number `seq` (the
/// deterministic tie-break), destination node, payload.
#[derive(Debug)]
pub struct Event<M> {
    /// When the event comes due.
    pub time: SimTime,
    /// Enqueue sequence number; ties in `time` dispatch in `seq` order.
    pub seq: u64,
    /// Destination node.
    pub dst: NodeId,
    /// The message payload.
    pub msg: M,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A priority queue of simulator events, popped in `(time, seq)` order.
///
/// Implementations must be totally deterministic: for any push/pop
/// interleaving, `pop` returns the globally minimal pending event under
/// the `(time, seq)` order — never an approximation.
pub trait EventQueue<M> {
    /// Enqueue an event.
    fn push(&mut self, ev: Event<M>);
    /// Dequeue the `(time, seq)`-minimal pending event.
    fn pop(&mut self) -> Option<Event<M>>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Timestamp of the next pop, without dequeuing it. The default pops
    /// and re-pushes (the event keeps its `seq`, so order is unchanged).
    fn peek_time(&mut self) -> Option<SimTime> {
        let ev = self.pop()?;
        let time = ev.time;
        self.push(ev);
        Some(time)
    }
}

/// Which [`EventQueue`] implementation a simulator uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueueKind {
    /// Pick by machine size: [`BinaryHeap`] below
    /// [`QueueKind::AUTO_CALENDAR_NODES`] nodes, calendar at or above.
    /// Safe because both produce the identical dispatch sequence.
    #[default]
    Auto,
    /// Always the binary heap (the pre-calendar code path).
    BinaryHeap,
    /// Always the calendar queue.
    Calendar,
}

impl QueueKind {
    /// Machine size at which `Auto` switches to the calendar queue.
    pub const AUTO_CALENDAR_NODES: usize = 4096;

    /// Resolve `Auto` against a machine size.
    pub fn resolve(self, nodes: usize) -> QueueKind {
        match self {
            QueueKind::Auto => {
                if nodes >= Self::AUTO_CALENDAR_NODES {
                    QueueKind::Calendar
                } else {
                    QueueKind::BinaryHeap
                }
            }
            other => other,
        }
    }
}

/// The classic heap-backed queue: `O(log n)` push/pop over one global
/// binary heap. This is byte-for-byte the simulator's original queue.
#[derive(Debug, Default)]
pub struct BinaryHeapQueue<M> {
    heap: BinaryHeap<Reverse<Event<M>>>,
}

impl<M> BinaryHeapQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue { heap: BinaryHeap::new() }
    }
}

impl<M> EventQueue<M> for BinaryHeapQueue<M> {
    fn push(&mut self, ev: Event<M>) {
        self.heap.push(Reverse(ev));
    }

    fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(ev)| ev.time)
    }
}

const MIN_BUCKETS: usize = 4;
const MAX_BUCKETS: usize = 1 << 22;

/// A calendar queue: events hash into `nbuckets` circular "days" of
/// `width` nanoseconds each; dequeue scans forward from the bucket of
/// the last-popped timestamp and only accepts events due within the
/// current day's window, so it finds the global `(time, seq)` minimum
/// without consulting the other buckets.
///
/// Deviations from the textbook that matter here:
///
/// - each bucket is a sorted run: pop takes the front, push appends when
///   the event sorts last (always, in a same-timestamp burst) and else
///   inserts in `O(bucket)`;
/// - a drained bucket frees its buffer and a resize drops the old runs,
///   so only buckets with live events hold a buffer, even when no bucket
///   is revisited within a year;
/// - a push whose timestamp precedes the last pop (only
///   `Simulator::inject` can produce one; handlers cannot) rewinds the
///   scan cursor, preserving exact global `(time, seq)` pop order even
///   for stale events — the simulator still reports them as
///   [`TimeRegression`](crate::SimError::TimeRegression), but in the
///   same order the heap would have;
/// - resizing re-estimates the bucket width from the live events'
///   average inter-event gap, a pure function of queue content, so the
///   structure (and therefore the pop sequence) is deterministic.
#[derive(Debug)]
pub struct CalendarQueue<M> {
    buckets: Vec<VecDeque<Event<M>>>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: usize,
    /// Nanoseconds per bucket (≥ 1).
    width: u64,
    len: usize,
    /// Bucket the dequeue scan resumes at.
    cur: usize,
    /// Exclusive upper time bound of `cur`'s current-day window.
    bucket_top: u64,
    /// Lower bound on pending timestamps (last pop, peek or stale push).
    last: u64,
}

impl<M> Default for CalendarQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> CalendarQueue<M> {
    /// An empty queue with the default initial geometry.
    pub fn new() -> Self {
        let width = 1_024;
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            mask: MIN_BUCKETS - 1,
            width,
            len: 0,
            cur: 0,
            bucket_top: width,
            last: 0,
        }
    }

    #[inline]
    fn bucket_of(&self, time: u64) -> usize {
        ((time / self.width) as usize) & self.mask
    }

    /// Point the scan cursor at `time`'s bucket/window.
    fn seek(&mut self, time: u64) {
        self.last = time;
        self.cur = self.bucket_of(time);
        self.bucket_top = (time / self.width).saturating_add(1).saturating_mul(self.width);
    }

    /// Rebuild with a bucket count proportional to the population and a
    /// width matching the live events' average spacing. Deterministic:
    /// both are pure functions of the queued events. Only a new bucket
    /// that merged old runs out of order is re-sorted.
    fn resize(&mut self) {
        let target = self
            .len
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        // Runs are sorted, so their ends bound the live time span.
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for b in &self.buckets {
            if let (Some(first), Some(last)) = (b.front(), b.back()) {
                lo = lo.min(first.time.0);
                hi = hi.max(last.time.0);
            }
        }
        if self.len >= 2 && hi > lo {
            self.width = ((hi - lo) / self.len as u64).max(1);
        }
        let fresh = (0..target).map(|_| VecDeque::new()).collect();
        let old = std::mem::replace(&mut self.buckets, fresh);
        self.mask = target - 1;
        let last = self.last;
        self.seek(last);
        let mut merged = false;
        for ev in old.into_iter().flatten() {
            let i = self.bucket_of(ev.time.0);
            let bucket = &mut self.buckets[i];
            merged |= bucket.back().is_some_and(|b| *b > ev);
            bucket.push_back(ev);
        }
        if merged {
            // Stable sort: linear on a sorted bucket, O(n log runs) else.
            self.buckets.iter_mut().for_each(|b| b.make_contiguous().sort());
        }
    }

    /// The bucket holding the `(time, seq)`-minimal event, with the
    /// cursor moved where popping it would leave it; `None` when empty.
    fn locate(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // Scan one full "year" starting at the cursor. A run's front is
        // its (time, seq) minimum, so if the front is outside the current
        // day's window, every event in the bucket is.
        let nbuckets = self.buckets.len();
        let mut cur = self.cur;
        let mut top = self.bucket_top;
        for _ in 0..nbuckets {
            if let Some(head) = self.buckets[cur].front() {
                if head.time.0 < top {
                    self.last = head.time.0;
                    self.cur = cur;
                    self.bucket_top = top;
                    return Some(cur);
                }
            }
            cur = (cur + 1) & self.mask;
            top = top.saturating_add(self.width);
        }
        // Sparse tail: nothing due within a year of the cursor. Find the
        // globally minimal bucket head directly and jump the calendar to
        // it (O(nbuckets), rare by construction).
        let ((time, _), best) = (0..nbuckets)
            .filter_map(|i| self.buckets[i].front().map(|e| ((e.time, e.seq), i)))
            .min()
            .expect("len > 0 but no bucket head");
        self.seek(time.0);
        Some(best)
    }
}

impl<M> EventQueue<M> for CalendarQueue<M> {
    fn push(&mut self, ev: Event<M>) {
        if ev.time.0 < self.last {
            // Stale injection: rewind the scan so the pop order stays
            // the exact global (time, seq) order.
            self.seek(ev.time.0);
        }
        let i = self.bucket_of(ev.time.0);
        let bucket = &mut self.buckets[i];
        match bucket.back() {
            Some(back) if *back > ev => {
                let at = bucket.partition_point(|e| *e < ev);
                bucket.insert(at, ev);
            }
            _ => bucket.push_back(ev),
        }
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    fn pop(&mut self) -> Option<Event<M>> {
        let i = self.locate()?;
        let bucket = &mut self.buckets[i];
        let ev = bucket.pop_front().expect("located bucket is non-empty");
        if bucket.is_empty() {
            *bucket = VecDeque::new();
        }
        self.len -= 1;
        if self.len < self.buckets.len() / 2 && self.buckets.len() > MIN_BUCKETS {
            self.resize();
        }
        Some(ev)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        let i = self.locate()?;
        self.buckets[i].front().map(|ev| ev.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, seq: u64) -> Event<u32> {
        Event { time: SimTime::ns(time), seq, dst: 0, msg: 0 }
    }

    /// Drain both queues after identical pushes; sequences must match.
    fn drain_matches(times: &[u64]) {
        let mut heap = BinaryHeapQueue::new();
        let mut cal = CalendarQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            heap.push(ev(t, seq as u64));
            cal.push(ev(t, seq as u64));
        }
        assert_eq!(heap.len(), cal.len());
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    assert_eq!((x.time, x.seq), (y.time, y.seq), "pop order diverged")
                }
                (None, None) => break,
                _ => panic!("queue lengths diverged"),
            }
        }
    }

    /// Event slots the buckets hold, live or not.
    fn retained(cal: &CalendarQueue<u32>) -> usize {
        cal.buckets.iter().map(VecDeque::capacity).sum()
    }

    #[test]
    fn drained_buffers_are_freed() {
        // A relay storm in which no bucket is reused: 64 bursts of 64
        // events 1 ns apart, each event re-queued 64 ns after it pops.
        // The calendar settles at 4096 buckets of 1 ns, a 4096 ns year,
        // and the storm ends at 575 ns, so every timestamp gets a fresh
        // bucket and a bucket that kept its peak capacity would retain 64
        // slots per timestamp ever used.
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        for t in 0..64 {
            for _ in 0..64 {
                cal.push(ev(t, seq));
                seq += 1;
            }
        }
        let peak = cal.len();
        for _ in 0..8 * peak {
            let e = cal.pop().unwrap();
            cal.push(ev(e.time.0 + 64, seq));
            seq += 1;
        }
        assert_eq!(cal.len(), peak);
        assert_eq!(cal.width, 1);
        let retained = retained(&cal);
        assert!(retained <= 2 * peak, "{retained} event slots retained for {peak} live events");
    }

    #[test]
    fn retention_stays_within_twice_the_peak() {
        // Rounds of 16 bursts of 512 same-timestamp events plus 8 000
        // spread singles, each drained to 100 events, then to empty: the
        // bursts' large runs must not outlive the events in them.
        let mut cal = CalendarQueue::new();
        let (mut seq, mut peak) = (0u64, 0);
        for round in 0..8u64 {
            let base = (round + 1) * 10_000_000;
            for burst in 0..16 {
                for _ in 0..512 {
                    cal.push(ev(base + burst * 100_000, seq));
                    seq += 1;
                }
            }
            for k in 0..8_000 {
                cal.push(ev(base + k * 997, seq));
                seq += 1;
            }
            peak = peak.max(cal.len());
            while cal.len() > 100 {
                cal.pop();
            }
        }
        while cal.pop().is_some() {}
        assert_eq!(peak, 16_292);
        let retained = retained(&cal);
        assert!(retained <= 2 * peak, "{retained} event slots retained for a {peak}-event peak");
    }

    #[test]
    fn peek_time_is_the_next_pop() {
        let mut heap = BinaryHeapQueue::new();
        let mut cal = CalendarQueue::new();
        assert_eq!(cal.peek_time(), None);
        for (seq, t) in [40_000u64, 7, 7, 90_000_000, 3_000].into_iter().enumerate() {
            heap.push(ev(t, seq as u64));
            cal.push(ev(t, seq as u64));
        }
        for step in 0u64.. {
            let (ph, pc) = (heap.peek_time(), cal.peek_time());
            assert_eq!(ph, pc);
            assert_eq!(cal.peek_time(), pc, "peeking is idempotent");
            if step == 2 {
                // A stale push after a peek still pops first.
                heap.push(ev(1, 100));
                cal.push(ev(1, 100));
                continue;
            }
            let (a, b) = (heap.pop(), cal.pop());
            assert_eq!(a.as_ref().map(|e| e.time), ph);
            assert_eq!(a.map(|e| (e.time, e.seq)), b.map(|e| (e.time, e.seq)));
            if ph.is_none() {
                break;
            }
        }
    }

    #[test]
    fn empty_pops_none() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        assert!(cal.pop().is_none());
        assert!(cal.is_empty());
    }

    #[test]
    fn spread_times_pop_in_order() {
        let times: Vec<u64> = (0..500).map(|i| (i * 7919) % 100_000).collect();
        drain_matches(&times);
    }

    #[test]
    fn clustered_and_tied_times_break_by_seq() {
        // Heavy ties: only 4 distinct timestamps across 400 events.
        let times: Vec<u64> = (0..400).map(|i| (i % 4) * 1_000).collect();
        drain_matches(&times);
    }

    #[test]
    fn sparse_far_future_uses_direct_search() {
        // Events separated by much more than nbuckets × width force the
        // direct-search fallback.
        drain_matches(&[0, 10_000_000_000, 20_000_000_000, 5]);
    }

    #[test]
    fn growth_and_shrink_preserve_order() {
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut seq = 0u64;
        // Grow to thousands (forces upsizing), interleave pops (forces
        // downsizing), then drain.
        for round in 0..4u64 {
            for i in 0..2_000u64 {
                let t = round * 50_000 + (i * 37) % 45_000;
                cal.push(ev(t, seq));
                heap.push(ev(t, seq));
                seq += 1;
            }
            for _ in 0..1_500 {
                let (a, b) = (heap.pop().unwrap(), cal.pop().unwrap());
                assert_eq!((a.time, a.seq), (b.time, b.seq));
            }
        }
        while let Some(a) = heap.pop() {
            let b = cal.pop().unwrap();
            assert_eq!((a.time, a.seq), (b.time, b.seq));
        }
        assert!(cal.pop().is_none());
    }

    #[test]
    fn stale_push_rewinds_and_pops_global_min() {
        let mut cal = CalendarQueue::new();
        cal.push(ev(10_000, 0));
        assert_eq!(cal.pop().unwrap().time, SimTime::ns(10_000));
        // Stale relative to the last pop, plus a future event: the stale
        // one must come out first (exact heap order).
        cal.push(ev(12_000, 1));
        cal.push(ev(2_000, 2));
        assert_eq!(cal.pop().unwrap().time, SimTime::ns(2_000));
        assert_eq!(cal.pop().unwrap().time, SimTime::ns(12_000));
    }

    #[test]
    fn auto_resolves_by_machine_size() {
        assert_eq!(QueueKind::Auto.resolve(1024), QueueKind::BinaryHeap);
        assert_eq!(QueueKind::Auto.resolve(4096), QueueKind::Calendar);
        assert_eq!(QueueKind::Auto.resolve(1 << 20), QueueKind::Calendar);
        assert_eq!(QueueKind::BinaryHeap.resolve(1 << 20), QueueKind::BinaryHeap);
        assert_eq!(QueueKind::Calendar.resolve(2), QueueKind::Calendar);
    }
}
