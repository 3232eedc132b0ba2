//! Rolling-window aggregation over the log-scale histograms.
//!
//! The registry's [`Counter`](crate::Counter)/[`Histogram`](crate::Histogram)
//! instruments are cumulative: perfect for end-of-run reports, useless for
//! asking a live server "what is p99 *right now*". This module adds windowed variants built from the
//! same base-2 log buckets: a ring of fixed-duration time slots, each an
//! independent sub-histogram, merged on demand into "the last W seconds".
//! Memory is bounded by the ring (`RING_SLOTS` slots regardless of
//! uptime), recording is O(1), and a snapshot over any window up to the
//! ring span is one bucket-wise merge — the mergeability the cumulative
//! [`HistogramSnapshot`] already has, reused for time.
//!
//! Time is injectable: every operation has an `_at` variant taking the
//! elapsed duration since the instrument's epoch, so tests drive the clock
//! deterministically; the plain methods read the wall clock.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::lock_recover;
use crate::metrics::{HistogramSnapshot, HISTOGRAM_BUCKETS};

/// Ring capacity in slots. With one-second slots this bounds the largest
/// window at a bit over a minute — enough for the 1s/10s/60s rollups.
pub const RING_SLOTS: usize = 64;

/// Slot width. One second keeps "rolling 1s rate" meaningful and makes a
/// 60-second window 60 merges.
pub const SLOT_SECS: u64 = 1;

/// The standard rollup windows, in seconds.
pub const WINDOWS_SECS: [u64; 3] = [1, 10, 60];

/// One ring slot: a plain (non-atomic) sub-histogram for the values
/// recorded during one absolute second of the instrument's life.
#[derive(Clone)]
struct Slot {
    /// Absolute slot index this storage currently holds (`u64::MAX` =
    /// never used).
    abs: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    log: [u64; HISTOGRAM_BUCKETS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            abs: u64::MAX,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            log: [0; HISTOGRAM_BUCKETS],
        }
    }

    fn clear(&mut self, abs: u64) {
        *self = Slot::empty();
        self.abs = abs;
    }

    fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.log[bucket] += 1;
        self.count += 1;
        // Wraps like the cumulative histogram's atomic `fetch_add` does.
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

struct Ring {
    /// Absolute index of the newest slot written or rotated to.
    head: u64,
    slots: Vec<Slot>,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            head: 0,
            slots: vec![Slot::empty(); RING_SLOTS],
        }
    }

    /// Bring the ring up to absolute slot `abs`, clearing every slot
    /// whose storage is being re-entered. Time never goes backwards here:
    /// a stale `abs` (possible when two threads race the clock) records
    /// into the head slot instead, which is at most `SLOT_SECS` off.
    fn rotate(&mut self, abs: u64) -> u64 {
        if abs <= self.head {
            return self.head;
        }
        if abs - self.head >= RING_SLOTS as u64 {
            // The whole ring is stale: every slot is being re-entered.
            for s in self.slots.iter_mut() {
                *s = Slot::empty();
            }
        } else {
            for a in self.head + 1..=abs {
                let i = (a % RING_SLOTS as u64) as usize;
                self.slots[i].clear(a);
            }
        }
        self.head = abs;
        abs
    }

    /// Merge the slots covering the last `window_slots` slots (the
    /// current, possibly partial, slot included) into one snapshot.
    fn merge_window(&self, window_slots: u64) -> HistogramSnapshot {
        let oldest = (self.head + 1).saturating_sub(window_slots);
        let mut out = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        };
        for s in &self.slots {
            if s.abs == u64::MAX || s.abs < oldest || s.abs > self.head || s.count == 0 {
                continue;
            }
            out.count += s.count;
            out.sum = out.sum.wrapping_add(s.sum);
            out.min = out.min.min(s.min);
            out.max = out.max.max(s.max);
            for (o, v) in out.buckets.iter_mut().zip(&s.log) {
                *o += *v;
            }
        }
        if out.count == 0 {
            out.min = 0;
        }
        out
    }
}

/// A rolling-window view of a merged window: the merged log-scale state
/// plus how much wall time the window actually covered (a 60 s window on a
/// 5 s old instrument covers 5 s — rates divide by covered time, not the
/// nominal window).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Nominal window length in seconds.
    pub secs: u64,
    /// Wall time the merged slots actually span, in seconds.
    pub covered_secs: f64,
    /// The merged histogram state for the window.
    pub hist: HistogramSnapshot,
}

impl WindowStats {
    /// Events per second over the covered time.
    pub fn rate(&self) -> f64 {
        self.hist.count as f64 / self.covered_secs.max(1e-9)
    }

    /// Value-units per second over the covered time (bytes/s for a byte
    /// histogram).
    pub fn throughput(&self) -> f64 {
        self.hist.sum as f64 / self.covered_secs.max(1e-9)
    }

    /// JSON form used by the STATS exposition.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("secs", Json::UInt(self.secs)),
            ("covered_secs", Json::Float(self.covered_secs)),
            ("count", Json::UInt(self.hist.count)),
            ("rate", Json::Float(self.rate())),
            ("mean", Json::Float(self.hist.mean())),
            ("p50", Json::UInt(self.hist.quantile(0.50))),
            ("p99", Json::UInt(self.hist.quantile(0.99))),
            ("p999", Json::UInt(self.hist.quantile(0.999))),
            ("max", Json::UInt(self.hist.max)),
        ])
    }
}

/// A histogram over a ring of fixed-duration slots: rolling rates and
/// quantiles over the last 1 s / 10 s / 60 s with bounded memory.
pub struct WindowedHistogram {
    epoch: Instant,
    ring: Mutex<Ring>,
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        WindowedHistogram::new()
    }
}

impl std::fmt::Debug for WindowedHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring = lock_recover(&self.ring);
        f.debug_struct("WindowedHistogram")
            .field("head", &ring.head)
            .finish()
    }
}

impl WindowedHistogram {
    /// An empty instrument whose epoch is "now".
    pub fn new() -> WindowedHistogram {
        WindowedHistogram {
            epoch: Instant::now(),
            ring: Mutex::new(Ring::new()),
        }
    }

    fn abs_of(elapsed: Duration) -> u64 {
        elapsed.as_secs() / SLOT_SECS
    }

    /// Record one observation at wall-clock "now".
    pub fn record(&self, value: u64) {
        self.record_at(value, self.epoch.elapsed());
    }

    /// Record one observation at an explicit elapsed-time point — the
    /// injectable-clock variant the determinism tests drive.
    pub fn record_at(&self, value: u64, elapsed: Duration) {
        let abs = Self::abs_of(elapsed);
        let mut ring = lock_recover(&self.ring);
        let abs = ring.rotate(abs);
        let i = (abs % RING_SLOTS as u64) as usize;
        if ring.slots[i].abs != abs {
            ring.slots[i].clear(abs);
        }
        ring.slots[i].record(value);
    }

    /// The rolling view over the last `secs` seconds, at "now".
    pub fn window(&self, secs: u64) -> WindowStats {
        self.window_at(secs, self.epoch.elapsed())
    }

    /// [`WindowedHistogram::window`] with an injected clock.
    pub fn window_at(&self, secs: u64, elapsed: Duration) -> WindowStats {
        let secs = secs.max(1).min((RING_SLOTS as u64) * SLOT_SECS);
        let window_slots = secs.div_ceil(SLOT_SECS);
        let mut ring = lock_recover(&self.ring);
        let head = ring.rotate(Self::abs_of(elapsed));
        let hist = ring.merge_window(window_slots);
        drop(ring);
        // Covered wall time: from the oldest merged slot's opening
        // boundary to "now", capped below by one microsecond.
        let oldest = (head + 1).saturating_sub(window_slots);
        let covered = (elapsed.as_secs_f64() - (oldest * SLOT_SECS) as f64).max(1e-6);
        WindowStats {
            secs,
            covered_secs: covered.min(secs as f64),
            hist,
        }
    }

    /// The standard 1 s / 10 s / 60 s rollups as one JSON object.
    pub fn to_json(&self) -> Json {
        self.to_json_at(self.epoch.elapsed())
    }

    /// [`WindowedHistogram::to_json`] with an injected clock.
    pub fn to_json_at(&self, elapsed: Duration) -> Json {
        Json::Obj(
            WINDOWS_SECS
                .iter()
                .map(|&w| (format!("{w}s"), self.window_at(w, elapsed).to_json()))
                .collect(),
        )
    }
}

/// A counter over the same ring: rolling event rates without quantiles.
/// (`add`-heavy instruments like rows/bytes throughput use this — the sum
/// is the payload, per-event distribution is not interesting.)
pub struct WindowedCounter {
    inner: WindowedHistogram,
}

impl Default for WindowedCounter {
    fn default() -> Self {
        WindowedCounter::new()
    }
}

impl std::fmt::Debug for WindowedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedCounter").finish()
    }
}

impl WindowedCounter {
    /// An empty instrument whose epoch is "now".
    pub fn new() -> WindowedCounter {
        WindowedCounter {
            inner: WindowedHistogram::new(),
        }
    }

    /// Add `n` at wall-clock "now".
    pub fn add(&self, n: u64) {
        self.inner.record(n);
    }

    /// Add `n` at an explicit elapsed-time point.
    pub fn add_at(&self, n: u64, elapsed: Duration) {
        self.inner.record_at(n, elapsed);
    }

    /// Rolling view over the last `secs` seconds.
    pub fn window(&self, secs: u64) -> WindowStats {
        self.inner.window(secs)
    }

    /// [`WindowedCounter::window`] with an injected clock.
    pub fn window_at(&self, secs: u64, elapsed: Duration) -> WindowStats {
        self.inner.window_at(secs, elapsed)
    }

    /// The standard rollups: per window, the summed value, its per-second
    /// rate, and the event count.
    pub fn to_json(&self) -> Json {
        self.to_json_at(self.inner.epoch.elapsed())
    }

    /// [`WindowedCounter::to_json`] with an injected clock.
    pub fn to_json_at(&self, elapsed: Duration) -> Json {
        Json::Obj(
            WINDOWS_SECS
                .iter()
                .map(|&w| {
                    let s = self.window_at(w, elapsed);
                    (
                        format!("{w}s"),
                        Json::obj(vec![
                            ("secs", Json::UInt(s.secs)),
                            ("covered_secs", Json::Float(s.covered_secs)),
                            ("events", Json::UInt(s.hist.count)),
                            ("total", Json::UInt(s.hist.sum)),
                            ("rate", Json::Float(s.throughput())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: f64) -> Duration {
        Duration::from_secs_f64(secs)
    }

    #[test]
    fn window_sees_only_recent_slots() {
        let h = WindowedHistogram::new();
        h.record_at(100, at(0.5));
        h.record_at(200, at(5.5));
        h.record_at(300, at(9.5));
        // At t=9.9 a 10 s window sees all three, a 1 s window only the last.
        let w10 = h.window_at(10, at(9.9));
        assert_eq!(w10.hist.count, 3);
        assert_eq!(w10.hist.sum, 600);
        let w1 = h.window_at(1, at(9.9));
        assert_eq!(w1.hist.count, 1);
        assert_eq!(w1.hist.sum, 300);
    }

    #[test]
    fn slots_expire_deterministically() {
        let h = WindowedHistogram::new();
        h.record_at(7, at(0.2));
        // Still visible while the 10 s window reaches back to slot 0...
        assert_eq!(h.window_at(10, at(9.0)).hist.count, 1);
        // ...gone the moment slot 0 falls off the window's trailing edge.
        assert_eq!(h.window_at(10, at(10.0)).hist.count, 0);
        // And gone from the 60 s window once a minute passes.
        assert_eq!(h.window_at(60, at(59.0)).hist.count, 1);
        assert_eq!(h.window_at(60, at(60.0)).hist.count, 0);
    }

    #[test]
    fn ring_survives_a_long_idle_gap() {
        let h = WindowedHistogram::new();
        h.record_at(1, at(0.0));
        // A gap far beyond the ring length clears everything stale.
        h.record_at(9, at(1_000_000.0));
        let w = h.window_at(60, at(1_000_000.5));
        assert_eq!(w.hist.count, 1);
        assert_eq!(w.hist.sum, 9);
    }

    #[test]
    fn stale_clock_reading_records_into_head() {
        let h = WindowedHistogram::new();
        h.record_at(10, at(30.0));
        // A racing thread whose clock read predates the rotation must not
        // resurrect an expired slot.
        h.record_at(20, at(29.2));
        let w = h.window_at(1, at(30.1));
        assert_eq!(w.hist.count, 2, "stale record lands in the head slot");
    }

    #[test]
    fn rates_divide_by_covered_time() {
        let h = WindowedHistogram::new();
        for i in 0..10 {
            h.record_at(1000, at(0.1 + i as f64 * 0.4));
        }
        // 10 events in ~4 s; the 60 s window only covers ~4 s of life.
        let w = h.window_at(60, at(4.0));
        assert_eq!(w.hist.count, 10);
        assert!(
            (w.rate() - 2.5).abs() < 0.5,
            "rate {} should be ~2.5/s",
            w.rate()
        );
        assert!(w.covered_secs <= 4.01);
    }

    #[test]
    fn counter_windows_sum_values() {
        let c = WindowedCounter::new();
        c.add_at(500, at(0.1));
        c.add_at(1500, at(0.9));
        let w = c.window_at(1, at(0.95));
        assert_eq!(w.hist.sum, 2000);
        assert_eq!(w.hist.count, 2);
        assert!(w.throughput() > 2000.0, "covered < 1 s inflates the rate");
    }

    #[test]
    fn json_shape_has_standard_windows() {
        let h = WindowedHistogram::new();
        h.record_at(1000, at(0.1));
        let j = h.to_json_at(at(0.2)).render();
        for key in ["\"1s\"", "\"10s\"", "\"60s\"", "\"p99\"", "\"rate\""] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn window_is_clamped_to_ring_span() {
        let h = WindowedHistogram::new();
        h.record_at(5, at(0.1));
        let w = h.window_at(10_000, at(0.2));
        assert_eq!(w.secs, RING_SLOTS as u64 * SLOT_SECS);
        assert_eq!(w.hist.count, 1);
    }
}
