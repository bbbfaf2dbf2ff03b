//! Shared-resource timing primitives used by both simulators.

use crate::SimError;
use std::collections::VecDeque;

/// `time + cycles` on the simulated clock: where a duration enters an
/// event time, both engines add it here. `u64::MAX` is no time at all
/// (the engines' "never", and `now + 1` must stay representable), so a
/// sum that reaches it is [`SimError::Diverged`], naming `what` overflowed.
pub(crate) fn later(time: u64, cycles: u64, what: &str) -> Result<u64, SimError> {
    match time.checked_add(cycles) {
        Some(t) if t < u64::MAX => Ok(t),
        _ => Err(SimError::Diverged {
            detail: format!(
                "the simulated clock overflows u64 at {what}: cycle {time} + {cycles} cycles"
            ),
        }),
    }
}

/// The event queue of both engines: a radix heap of `(time, S)` events,
/// with an optional slot wheel in front of it for the near future.
///
/// It pops in exactly the `(time, S)` order of a min-heap, provided no
/// push is earlier than the time last popped — which holds because both
/// engines only schedule forward. An event at the time last popped
/// (`now`) waits in `current`, sorted by `S`.
///
/// **Near tier.** Built [`with_near_span`](Self::with_near_span), an
/// event less than `span` (a power of two) after `now` waits in the
/// wheel's slot `time mod span`. Every wheel event lies in `(now, now +
/// span)`, so one slot holds one time; a pop finds the next occupied
/// slot after `now` from a two-level occupancy bitmap (one bit per slot,
/// one summary bit per 64 slots), makes its time `now`, moves its
/// events into `current` and sorts them. Built with [`new`](Self::new),
/// the span is 0 and every later event takes the radix tier.
///
/// **Radix tier.** A later event waits in the bucket of the highest bit
/// in which its time differs from `base`, the time of the last radix
/// refill (at most `now`, and equal to it without a wheel). That bit is
/// set in the event's time and clear in `base`, so every time in a
/// bucket is below every time in the buckets above it. Each bucket's
/// least time and a mask of the non-empty buckets are kept as events are
/// filed. When the lowest bucket holds the least pending time, a pop
/// makes that time `now` and `base` and files each of the bucket's
/// events again — into `current`, into the wheel once it is within the
/// span, or into a strictly lower bucket — so an event moves at most 64
/// times. A time in both tiers pops as one sorted group.
#[derive(Debug)]
pub(crate) struct EventQueue<S> {
    now: u64,
    /// Events at `now`, in ascending `S` order.
    current: VecDeque<S>,
    /// The near tier; `None` without a span.
    wheel: Option<Wheel<S>>,
    /// The reference time of the radix buckets.
    base: u64,
    /// `buckets[i]`: events whose time first differs from `base` in bit `i`.
    buckets: [Vec<(u64, S)>; 64],
    /// `least[i]`: the least time in `buckets[i]`; `u64::MAX` when empty.
    least: [u64; 64],
    /// Bit `i` is set exactly when `buckets[i]` is non-empty.
    filled: u64,
}

impl<S: Ord + Copy> EventQueue<S> {
    /// An empty queue at time 0 with no near tier.
    pub(crate) fn new() -> Self {
        Self {
            now: 0,
            current: VecDeque::new(),
            wheel: None,
            base: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            least: [u64::MAX; 64],
            filled: 0,
        }
    }

    /// An empty queue at time 0 whose events less than `span` cycles
    /// after the time last popped wait in a slot wheel. `span` is
    /// rounded up to a power of two from 64 to 2^20.
    pub(crate) fn with_near_span(span: u64) -> Self {
        let slots = span.clamp(64, 1 << 20).next_power_of_two() as usize;
        Self {
            wheel: Some(Wheel::new(slots)),
            ..Self::new()
        }
    }

    /// Queues `s` at `time`, which must not be earlier than the time
    /// last popped.
    pub(crate) fn push(&mut self, time: u64, s: S) {
        debug_assert!(
            time >= self.now,
            "event at {time} queued after {} was popped",
            self.now
        );
        if time == self.now {
            let at = self.current.partition_point(|&queued| queued <= s);
            self.current.insert(at, s);
        } else {
            self.file(time, s);
        }
    }

    /// Files an event later than `now` into the wheel or its bucket.
    fn file(&mut self, time: u64, s: S) {
        if let Some(wheel) = &mut self.wheel {
            if time - self.now < wheel.span() {
                wheel.push(time, s);
                return;
            }
        }
        let i = bucket(time, self.base);
        self.buckets[i].push((time, s));
        self.least[i] = self.least[i].min(time);
        self.filled |= 1 << i;
    }

    /// Removes and returns the least `(time, S)` event.
    pub(crate) fn pop(&mut self) -> Option<(u64, S)> {
        if self.current.is_empty() {
            let near = self.wheel.as_mut();
            let near = near.and_then(|w| Some((w.next_after(self.now)?, w)));
            // The least time in the buckets.
            let far = (self.filled != 0).then(|| self.least[self.filled.trailing_zeros() as usize]);
            match near {
                Some((time, wheel)) if far.is_none_or(|far| time <= far) => {
                    self.now = time;
                    wheel.take(time, &mut self.current);
                    if far == Some(time) {
                        self.refill();
                    }
                }
                _ => {
                    self.now = far?;
                    self.refill();
                }
            }
            if self.current.len() > 1 {
                self.current.make_contiguous().sort_unstable();
            }
        }
        self.current.pop_front().map(|s| (self.now, s))
    }

    /// Empties the lowest bucket, whose least time is `now`: its events
    /// at `now` join `current` and the rest are filed again from `now`.
    #[inline]
    fn refill(&mut self) {
        let i = self.filled.trailing_zeros() as usize;
        self.filled &= !(1 << i);
        self.least[i] = u64::MAX;
        self.base = self.now;
        let mut events = std::mem::take(&mut self.buckets[i]);
        for (time, s) in events.drain(..) {
            if time == self.now {
                self.current.push_back(s);
            } else {
                self.file(time, s);
            }
        }
        // Hand the emptied bucket back, so it keeps its capacity.
        self.buckets[i] = events;
    }
}

/// The bucket of an event at `time > base`: the highest differing bit.
fn bucket(time: u64, base: u64) -> usize {
    (u64::BITS - 1 - (time ^ base).leading_zeros()) as usize
}

/// No node: the end of a slot's list or of the free list.
const NIL: u32 = u32::MAX;

/// The near tier of [`EventQueue`]: `heads.len()` slots (a power of
/// two), each the head of a list of events through `nodes`. A slot's
/// events share one time, so a node holds only the event and the next
/// node; nodes of drained slots are reused through a free list.
#[derive(Debug)]
struct Wheel<S> {
    heads: Vec<u32>,
    nodes: Vec<(S, u32)>,
    /// The first reusable node, or [`NIL`].
    free: u32,
    /// Bit `q % 64` of `occupied[q / 64]` is set exactly when slot `q`
    /// holds an event.
    occupied: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set exactly when
    /// `occupied[w]` is non-zero.
    summary: Vec<u64>,
    len: usize,
}

impl<S: Copy> Wheel<S> {
    fn new(slots: usize) -> Self {
        let words = slots.div_ceil(64);
        Self {
            heads: vec![NIL; slots],
            nodes: Vec::new(),
            free: NIL,
            occupied: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
        }
    }

    fn span(&self) -> u64 {
        self.heads.len() as u64
    }

    fn slot(&self, time: u64) -> usize {
        (time & (self.span() - 1)) as usize
    }

    fn push(&mut self, time: u64, s: S) {
        let q = self.slot(time);
        let node = (s, self.heads[q]);
        self.heads[q] = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1)
                .ok()
                .filter(|&at| at != NIL)
                .expect("fewer than 2^32 - 1 events in the wheel")
        } else {
            let at = self.free;
            self.free = self.nodes[at as usize].1;
            self.nodes[at as usize] = node;
            at
        };
        let w = q / 64;
        self.occupied[w] |= 1 << (q % 64);
        self.summary[w / 64] |= 1 << (w % 64);
        self.len += 1;
    }

    /// Moves every event of `time`'s slot to the back of `out`.
    fn take(&mut self, time: u64, out: &mut VecDeque<S>) {
        let q = self.slot(time);
        let mut at = std::mem::replace(&mut self.heads[q], NIL);
        while at != NIL {
            let (s, next) = self.nodes[at as usize];
            out.push_back(s);
            self.nodes[at as usize].1 = self.free;
            self.free = at;
            at = next;
            self.len -= 1;
        }
        let w = q / 64;
        self.occupied[w] &= !(1 << (q % 64));
        if self.occupied[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
    }

    /// The least time held, given that every one lies in `(now, now +
    /// span)`: the first occupied slot after `now`'s, circularly.
    fn next_after(&self, now: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let from = self.slot(now + 1);
        let w = from / 64;
        let bits = self.occupied[w] & (u64::MAX << (from % 64));
        let q = if bits != 0 {
            w * 64 + bits.trailing_zeros() as usize
        } else {
            // Past the end, the scan wraps to slot 0; `len > 0`, so
            // some word is occupied.
            let w = self
                .first_word_from(w + 1)
                .or_else(|| self.first_word_from(0))?;
            w * 64 + self.occupied[w].trailing_zeros() as usize
        };
        Some(now + (q.wrapping_sub(self.slot(now)) as u64 & (self.span() - 1)))
    }

    /// The first occupied word at or after `w`.
    fn first_word_from(&self, w: usize) -> Option<usize> {
        let mut i = w / 64;
        let mut bits = self.summary.get(i)? & (u64::MAX << (w % 64));
        loop {
            if bits != 0 {
                return Some(i * 64 + bits.trailing_zeros() as usize);
            }
            i += 1;
            bits = *self.summary.get(i)?;
        }
    }
}

/// What a VFU pass is called when it overflows the clock.
pub(crate) const VFU: &str = "a VFU pass";

/// A serially-shared unit (a chip's global-memory port, a core's VFU
/// array): FCFS service, one request at a time.
#[derive(Debug, Clone, Default)]
pub(crate) struct Server {
    free_at: u64,
}

impl Server {
    /// Requests `cycles` of service no earlier than `now`; returns the
    /// completion time. `what` names the request if the clock overflows.
    pub(crate) fn acquire(&mut self, now: u64, cycles: u64, what: &str) -> Result<u64, SimError> {
        let start = self.free_at.max(now);
        self.free_at = later(start, cycles, what)?;
        Ok(self.free_at)
    }
}

/// Tracks a core's activity span for leakage integration.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ActivitySpan {
    first: Option<u64>,
    last: u64,
    busy: u64,
}

impl ActivitySpan {
    /// Records activity over `[start, end)`.
    pub(crate) fn record(&mut self, start: u64, end: u64) {
        self.first = Some(self.first.map_or(start, |f| f.min(start)));
        self.last = self.last.max(end);
        self.busy = self.busy.saturating_add(end.saturating_sub(start));
    }

    /// `true` if anything was recorded.
    pub(crate) fn is_active(&self) -> bool {
        self.first.is_some()
    }

    /// First-activity to last-activity span (0 when idle).
    pub(crate) fn span(&self) -> u64 {
        self.first.map_or(0, |f| self.last.saturating_sub(f))
    }

    /// End of the last recorded activity.
    pub(crate) fn last_end(&self) -> u64 {
        self.last
    }

    /// Sum of recorded busy intervals (may exceed span if overlapping
    /// units are recorded; used as a utilization indicator only).
    pub(crate) fn busy_cycles(&self) -> u64 {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn server_serializes_fcfs() {
        let mut s = Server::default();
        assert_eq!(s.acquire(0, 10, "x"), Ok(10));
        // Second request waits for the first.
        assert_eq!(s.acquire(5, 10, "x"), Ok(20));
        // Idle gap: starts at `now`.
        assert_eq!(s.acquire(100, 5, "x"), Ok(105));
        // A completion time the clock cannot hold is an error.
        assert!(matches!(
            s.acquire(106, u64::MAX - 106, "x"),
            Err(SimError::Diverged { .. })
        ));
    }

    #[test]
    fn the_clock_stops_short_of_never() {
        assert_eq!(later(5, 7, "x"), Ok(12));
        assert_eq!(later(0, u64::MAX - 1, "x"), Ok(u64::MAX - 1));
        let Err(SimError::Diverged { detail }) = later(1, u64::MAX - 1, "a NoC transfer") else {
            panic!("u64::MAX is not a time");
        };
        assert_eq!(
            detail,
            "the simulated clock overflows u64 at a NoC transfer: \
             cycle 1 + 18446744073709551614 cycles"
        );
        assert!(later(u64::MAX - 1, u64::MAX, "x").is_err());
    }

    #[test]
    fn activity_span_tracks_extremes() {
        let mut a = ActivitySpan::default();
        assert!(!a.is_active());
        assert_eq!(a.span(), 0);
        a.record(10, 20);
        a.record(50, 60);
        a.record(5, 8);
        assert!(a.is_active());
        assert_eq!(a.span(), 55); // 60 - 5
        assert_eq!(a.last_end(), 60);
        assert_eq!(a.busy_cycles(), 23);
    }

    /// The queue next to the heap both engines used to pop from, driven
    /// through the same operations: every pop must see the same event.
    struct Twin {
        queue: EventQueue<(usize, u64)>,
        heap: BinaryHeap<Reverse<(u64, (usize, u64))>>,
        now: u64,
        popped: Vec<(u64, (usize, u64))>,
    }

    impl Twin {
        fn new() -> Self {
            Self {
                queue: EventQueue::new(),
                heap: BinaryHeap::new(),
                now: 0,
                popped: Vec::new(),
            }
        }

        /// A twin whose queue files events less than `span` ahead in
        /// its near tier.
        fn with_near_span(span: u64) -> Self {
            Self {
                queue: EventQueue::with_near_span(span),
                ..Self::new()
            }
        }

        fn push(&mut self, time: u64, s: (usize, u64)) {
            self.queue.push(time, s);
            self.heap.push(Reverse((time, s)));
        }

        /// The least event at the time last popped, as the heap sees it.
        fn heap_peek_now(&self) -> Option<(usize, u64)> {
            let &Reverse((time, s)) = self.heap.peek()?;
            (time == self.now).then_some(s)
        }

        fn pop(&mut self) -> Option<(u64, (usize, u64))> {
            let got = self.queue.pop();
            assert_eq!(got, self.heap.pop().map(|Reverse(e)| e));
            if let Some((time, s)) = got {
                self.now = time;
                self.popped.push((time, s));
            }
            got
        }

        /// Pops everything left, checking order against the heap.
        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert!(self.popped.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    /// SplitMix64: a seeded, dependency-free stream for the loop below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// 64 seeded runs of random pushes and pops against the heap, on a
    /// queue with near span `span` (0: the radix tier alone).
    fn random_monotone_pushes(span: u64) {
        for seed in 0..64u64 {
            let mut rng = seed;
            let mut twin = if span == 0 {
                Twin::new()
            } else {
                Twin::with_near_span(span)
            };
            for _ in 0..2_000 {
                let r = splitmix(&mut rng);
                let now = twin.now;
                let s = ((r >> 8) as usize % 6, (r >> 16) % 3);
                // Cases 16-18 only with a near tier.
                match r % if span == 0 { 16 } else { 19 } {
                    // At the current time, the secondary key possibly
                    // below the one just popped.
                    0 | 1 => twin.push(now, s),
                    2 | 3 => twin.push(now.saturating_add(1), s),
                    4 | 5 => twin.push(now.saturating_add(r >> 54), s),
                    6 => twin.push(now.saturating_add(r >> 20), s),
                    7 => twin.push(u64::MAX, s),
                    // Between now and the next pending time, with
                    // nothing left at now.
                    8 => {
                        if let Some(&Reverse((next, _))) = twin.heap.peek() {
                            if twin.heap_peek_now().is_none() && next - now > 1 {
                                twin.push(now + 1 + (r >> 8) % (next - now - 1), s);
                            }
                        }
                    }
                    // The last time the near tier holds, the first it
                    // does not, and a few spans ahead: far events that
                    // move into the wheel as the clock comes within its
                    // span, at slots that wrap past the end.
                    16 => twin.push(now.saturating_add(span - 1), s),
                    17 => twin.push(now.saturating_add(span), s),
                    18 => twin.push(now.saturating_add((r >> 40) % (4 * span)), s),
                    _ => {
                        twin.pop();
                    }
                }
            }
            twin.drain();
        }
    }

    #[test]
    fn pops_in_the_heaps_order_under_random_monotone_pushes() {
        random_monotone_pushes(0);
    }

    /// 256 slots, and 8192: more than one summary word of 64 × 64 slots.
    #[test]
    fn the_near_tier_pops_in_the_heaps_order() {
        for span in [256, 8192] {
            random_monotone_pushes(span);
        }
    }

    #[test]
    fn a_time_in_both_tiers_pops_as_one_sorted_group() {
        let mut twin = Twin::with_near_span(64);
        assert_eq!(twin.queue.wheel.as_ref().map(Wheel::span), Some(64));
        // 100 is beyond the span at 0: it waits in a radix bucket.
        twin.push(100, (5, 0));
        twin.push(40, (0, 0));
        assert_eq!(twin.pop(), Some((40, (0, 0))));
        // At 40, 100 is within the span: these wait in the wheel, at
        // slots 36 (100 mod 64) and 39 (103 mod 64), below 40's slot.
        twin.push(100, (3, 0));
        twin.push(103, (1, 0));
        twin.push(100, (7, 0));
        twin.drain();
        assert_eq!(
            twin.popped,
            [
                (40, (0, 0)),
                (100, (3, 0)),
                (100, (5, 0)),
                (100, (7, 0)),
                (103, (1, 0))
            ]
        );
    }

    #[test]
    fn the_wheel_finds_its_next_slot_across_summary_words() {
        // 2^13 slots: 128 occupancy words, two summary words.
        let mut twin = Twin::with_near_span(8192);
        twin.push(5000, (0, 0));
        assert_eq!(twin.pop(), Some((5000, (0, 0))));
        // Slots 13000 mod 8192 = 4808 and 5001: the scan from 5001 finds
        // 5001 first, then wraps through both summary words to 4808.
        twin.push(13000, (1, 0));
        twin.push(5001, (2, 0));
        twin.push(13191, (3, 0));
        twin.drain();
        let times: Vec<u64> = twin.popped.iter().map(|&(time, _)| time).collect();
        assert_eq!(times, [5000, 5001, 13000, 13191]);
    }

    #[test]
    fn a_push_before_the_next_pending_time_pops_first() {
        let mut twin = Twin::new();
        twin.push(4, (0, 1));
        twin.push(4, (1, 1));
        twin.push(100, (0, 1));
        assert_eq!(twin.pop(), Some((4, (0, 1))));
        assert_eq!(twin.pop(), Some((4, (1, 1))));
        // Nothing is left at 4; the next event waits at 100. A push in
        // between must still come out first.
        assert_eq!(twin.heap_peek_now(), None);
        twin.push(9, (3, 1));
        twin.push(5, (2, 1));
        twin.drain();
        assert_eq!(
            twin.popped,
            [
                (4, (0, 1)),
                (4, (1, 1)),
                (5, (2, 1)),
                (9, (3, 1)),
                (100, (0, 1))
            ]
        );
    }

    #[test]
    fn a_push_at_now_below_the_last_key_pops_next() {
        let mut twin = Twin::new();
        for s in [(5, 0), (7, 0), (9, 0)] {
            twin.push(3, s);
        }
        twin.push(3, (6, 0));
        assert_eq!(twin.pop(), Some((3, (5, 0))));
        twin.push(3, (1, 0));
        twin.push(3, (5, 0));
        assert_eq!(twin.pop(), Some((3, (1, 0))));
        assert_eq!(twin.pop(), Some((3, (5, 0))));
        twin.push(3, (6, 2));
        assert_eq!(twin.pop(), Some((3, (6, 0))));
        assert_eq!(twin.pop(), Some((3, (6, 2))));
        twin.drain();
    }

    #[test]
    fn a_drained_bucket_forgets_its_least_time() {
        let mut twin = Twin::new();
        twin.push(100, (0, 1));
        assert_eq!(twin.pop(), Some((100, (0, 1))));
        // Bucket 6 (times 64..128 from 0) is empty again; 130 lands in
        // bucket 7 and, once popped, leaves bit 6 of `now` clear.
        twin.push(130, (0, 1));
        assert_eq!(twin.pop(), Some((130, (0, 1))));
        // 200 and 250 first differ from 130 in bit 6: bucket 6 refills,
        // and its least time must be 200, not the 100 it once held.
        twin.push(250, (1, 1));
        twin.push(200, (2, 1));
        assert_eq!(twin.queue.least[6], 200);
        twin.push(140, (3, 1));
        twin.drain();
        let times: Vec<u64> = twin.popped.iter().map(|&(time, _)| time).collect();
        assert_eq!(times, [100, 130, 140, 200, 250]);
    }

    #[test]
    fn a_push_below_a_refiled_buckets_least_time_pops_first() {
        let mut twin = Twin::new();
        // 1000 and 1010 share bucket 9. Popping 1000 refiles 1010 into
        // bucket 4 (1010 ^ 1000 = 0b11010), whose least time is then 1010.
        twin.push(1010, (0, 1));
        twin.push(1000, (0, 1));
        twin.push(1023, (1, 1));
        assert_eq!(twin.pop(), Some((1000, (0, 1))));
        assert_eq!(twin.queue.least[4], 1010);
        // 1008 also first differs from 1000 in bit 4, below that least.
        twin.push(1008, (2, 1));
        assert_eq!(twin.queue.least[4], 1008);
        twin.drain();
        let times: Vec<u64> = twin.popped.iter().map(|&(time, _)| time).collect();
        assert_eq!(times, [1000, 1008, 1010, 1023]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "queued after")]
    fn a_push_into_the_past_is_caught() {
        let mut queue = EventQueue::new();
        queue.push(10, 0u8);
        queue.pop();
        queue.push(9, 0u8);
    }
}
