//! Bucketed calendar-queue priority queue for event scheduling.
//!
//! A calendar queue (Brown 1988) spreads pending events over a ring of
//! day buckets, `day = time / width`, `bucket = day mod nbuckets`. With
//! the bucket width tracking the mean inter-event gap, both `push` and
//! `pop` are O(1) amortized — the property that lets the sharded
//! engine's ([`crate::shard`]) event loop stay flat on million-event
//! backlogs, where the `BinaryHeap` that [`crate::Sim`] runs pays
//! O(log n) per operation.
//!
//! The ordering contract is exactly the simulator's `Scheduled`
//! contract: events pop in ascending `(time, seq)` order, with `seq`
//! breaking same-time ties in insertion order. A property test
//! (`calendar_props`) checks pop-order equivalence against
//! `BinaryHeap<Reverse<_>>` on random schedules.
//!
//! Two implementation choices keep every operation deterministic and
//! cheap:
//!
//! - each bucket is a `Vec` kept sorted **descending** by `(time, seq)`,
//!   so the bucket minimum is `last()` and removal is a `pop()` — no
//!   memmove on the hot path;
//! - the queue is indexed by a *day cursor*, not a wall clock: `pop`
//!   scans days from the cursor and, if a whole rotation of the ring
//!   comes up empty (a sparse schedule that jumped far ahead), falls
//!   back to a direct O(nbuckets) scan of the bucket minima and jumps
//!   the cursor there.
//!
//! Resizes (grow at > 2 events/bucket, shrink at < 1/4) re-estimate the
//! width from the live span divided by the population, so dense and
//! sparse phases of a run both keep near-O(1) behavior. All decisions
//! are pure functions of the push/pop history, so two runs that issue
//! the same operations see the same internal state — a requirement for
//! the simulator's byte-identical determinism gates.

/// Minimum (and initial) number of buckets; always a power of two.
const MIN_BUCKETS: usize = 16;
/// Upper bound on the ring size; bounds resize cost on huge backlogs.
const MAX_BUCKETS: usize = 1 << 20;
/// Initial bucket width in time units (microseconds in `simnet`).
const INITIAL_WIDTH: u64 = 1_024;

/// One queued item: the `(time, seq)` ordering key plus the payload.
#[derive(Debug, Clone)]
struct Slot<T> {
    time: u64,
    seq: u64,
    item: T,
}

/// A deterministic calendar queue ordered by ascending `(time, seq)`.
///
/// `push` requires keys at or after the last popped time — or, after a
/// bounded [`CalendarQueue::pop_before`] came up empty, at or after its
/// `limit` (event schedules never travel backwards); debug-asserted.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Ring of day buckets, each sorted descending by `(time, seq)`.
    buckets: Vec<Vec<Slot<T>>>,
    /// `buckets.len() - 1`; the ring size is a power of two.
    mask: u64,
    /// Width of one day in time units (>= 1).
    width: u64,
    /// Total queued items.
    len: usize,
    /// The day the next `pop` starts scanning from. Invariant: every
    /// queued item has `time / width >= cursor_day`.
    cursor_day: u64,
    /// Lower bound for pushes: the last popped time, or the `limit` of
    /// the last failed [`CalendarQueue::pop_before`], whichever is
    /// larger. Every queued item has `time >= floor` (pops remove
    /// minima), which is what keeps `cursor_day` valid across resizes.
    floor: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the default geometry.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            width: INITIAL_WIDTH,
            len: 0,
            cursor_day: 0,
            floor: 0,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `item` under the key `(time, seq)`.
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        debug_assert!(
            time >= self.floor,
            "calendar queue push travels backwards: time {time} is below the floor {}",
            self.floor
        );
        let slot = Slot { time, seq, item };
        let b = ((time / self.width) & self.mask) as usize;
        Self::insert_sorted(&mut self.buckets[b], slot);
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            let n = self.buckets.len() * 2;
            self.resize(n);
        }
    }

    /// Remove and return the minimum item, or `None` when empty.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.pop_before(u64::MAX)
    }

    /// Remove and return the minimum item if its time is **strictly
    /// below** `limit`; leave the queue untouched otherwise. This is
    /// the primitive behind bounded-window draining in the sharded
    /// executor and `run_until` in the serial simulator.
    pub fn pop_before(&mut self, limit: u64) -> Option<(u64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        // Scan days from the cursor; the first bucket whose minimum
        // belongs to the day under inspection holds the global minimum.
        let nbuckets = self.buckets.len() as u64;
        let mut day = self.cursor_day;
        for _ in 0..nbuckets {
            let b = (day & self.mask) as usize;
            if let Some(back) = self.buckets[b].last() {
                debug_assert!(back.time / self.width >= self.cursor_day);
                if back.time / self.width == day {
                    if back.time >= limit {
                        // The global minimum is at or past the limit.
                        // Advance the floor/cursor only to the limit:
                        // callers (the sharded executor) may still push
                        // items in `[limit, back.time)` before the next
                        // pop, and those must stay ahead of the cursor.
                        self.floor = self.floor.max(limit);
                        self.cursor_day = self.cursor_day.max(limit / self.width);
                        return None;
                    }
                    self.cursor_day = day;
                    return self.take_back(b);
                }
            }
            day += 1;
        }
        // A full rotation found nothing: the schedule jumped more than
        // nbuckets days ahead. Find the true minimum directly.
        let (b, min_time) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.last().map(|s| (i, s.time, s.seq)))
            .min_by_key(|&(_, t, seq)| (t, seq))
            .map(|(i, t, _)| (i, t))
            .expect("len > 0 implies a non-empty bucket");
        if min_time >= limit {
            // Same as above: future pushes may land below `min_time`
            // (but never below `limit`), so the cursor must not pass it.
            self.floor = self.floor.max(limit);
            self.cursor_day = self.cursor_day.max(limit / self.width);
            return None;
        }
        self.cursor_day = min_time / self.width;
        self.take_back(b)
    }

    /// The minimum `(time, seq)` key currently queued, without removal.
    /// O(nbuckets); used once per barrier window, not per event.
    pub fn min_key(&self) -> Option<(u64, u64)> {
        self.buckets.iter().filter_map(|v| v.last().map(|s| (s.time, s.seq))).min()
    }

    fn take_back(&mut self, b: usize) -> Option<(u64, u64, T)> {
        let slot = self.buckets[b].pop().expect("caller checked the bucket is non-empty");
        self.len -= 1;
        self.floor = slot.time;
        if self.len * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            let n = (self.buckets.len() / 2).max(MIN_BUCKETS);
            self.resize(n);
        }
        Some((slot.time, slot.seq, slot.item))
    }

    /// Insert keeping the bucket sorted descending by `(time, seq)`.
    fn insert_sorted(bucket: &mut Vec<Slot<T>>, slot: Slot<T>) {
        let key = (slot.time, slot.seq);
        // Descending order: find the first element strictly below `key`
        // and insert before it; `partition_point` sees the sorted-desc
        // prefix of elements >= key.
        let at = bucket.partition_point(|s| (s.time, s.seq) > key);
        bucket.insert(at, slot);
    }

    /// Rebuild the ring with `nbuckets` buckets and a width re-estimated
    /// from the live population (span / len, scaled by 3 as in Brown's
    /// original tuning, clamped to >= 1).
    fn resize(&mut self, nbuckets: usize) {
        let mut slots: Vec<Slot<T>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            slots.append(b);
        }
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for s in &slots {
            lo = lo.min(s.time);
            hi = hi.max(s.time);
        }
        self.width = if slots.is_empty() || hi == lo {
            INITIAL_WIDTH
        } else {
            (((hi - lo) as u128 * 3 / slots.len() as u128) as u64).max(1)
        };
        self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        self.mask = (nbuckets - 1) as u64;
        // The cursor restarts at the *floor*, not the current minimum:
        // pushes in `[floor, lo)` remain legal after the resize.
        self.cursor_day = self.floor / self.width;
        for s in slots {
            let b = ((s.time / self.width) & self.mask) as usize;
            Self::insert_sorted(&mut self.buckets[b], s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(5_000, 0, "a");
        q.push(1_000, 1, "b");
        q.push(5_000, 2, "c");
        q.push(1_000, 3, "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, x)| x)).collect();
        assert_eq!(order, ["b", "d", "a", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_ties_break_by_seq_across_many() {
        let mut q = CalendarQueue::new();
        for seq in 0..100u64 {
            q.push(42, seq, seq);
        }
        for expect in 0..100u64 {
            let (t, s, v) = q.pop().unwrap();
            assert_eq!((t, s, v), (42, expect, expect));
        }
    }

    #[test]
    fn sparse_jump_far_beyond_ring() {
        let mut q = CalendarQueue::new();
        q.push(0, 0, 0u64);
        assert_eq!(q.pop().map(|(t, _, _)| t), Some(0));
        // Jump billions of time units ahead of the cursor — much more
        // than nbuckets * width — exercising the direct-scan fallback.
        q.push(10_000_000_000, 1, 1u64);
        q.push(10_000_000_001, 2, 2u64);
        assert_eq!(q.pop().map(|(t, _, _)| t), Some(10_000_000_000));
        assert_eq!(q.pop().map(|(t, _, _)| t), Some(10_000_000_001));
    }

    #[test]
    fn grows_and_shrinks_through_resize() {
        let mut q = CalendarQueue::new();
        for i in 0..10_000u64 {
            q.push(i * 7, i, i);
        }
        assert!(q.buckets.len() > MIN_BUCKETS, "10k items must have grown the ring");
        for expect in 0..10_000u64 {
            let (t, _, v) = q.pop().unwrap();
            assert_eq!((t, v), (expect * 7, expect));
        }
        assert_eq!(q.buckets.len(), MIN_BUCKETS, "empty queue shrinks back to minimum");
    }

    #[test]
    fn pop_before_respects_the_limit() {
        let mut q = CalendarQueue::new();
        q.push(10, 0, "early");
        q.push(20, 1, "late");
        assert_eq!(q.pop_before(15).map(|(_, _, x)| x), Some("early"));
        assert_eq!(q.pop_before(15), None);
        assert_eq!(q.pop_before(20), None, "limit is exclusive");
        assert_eq!(q.pop_before(21).map(|(_, _, x)| x), Some("late"));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn min_key_tracks_the_front() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.min_key(), None);
        q.push(30, 0, ());
        q.push(10, 1, ());
        q.push(10, 2, ());
        assert_eq!(q.min_key(), Some((10, 1)));
        q.pop();
        assert_eq!(q.min_key(), Some((10, 2)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarQueue::new();
        let mut popped = Vec::new();
        let mut seq = 0u64;
        let mut clock = 0u64;
        for round in 0..50u64 {
            for k in 0..20u64 {
                q.push(clock + (k * 37) % 113, seq, seq);
                seq += 1;
            }
            for _ in 0..15 {
                if let Some((t, s, _)) = q.pop() {
                    popped.push((t, s));
                    clock = t;
                }
            }
            clock += round % 5;
        }
        while let Some((t, s, _)) = q.pop() {
            popped.push((t, s));
        }
        assert!(popped.windows(2).all(|w| w[0] < w[1]), "pop order must ascend by (time, seq)");
        assert_eq!(popped.len(), 1000);
    }
}
