//! Counters, log-scale histograms, the shared registry, and snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::Json;
use crate::lock_recover;

/// A monotone atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value — gauge-style, for occupancy readings such as
    /// cache byte totals where the current level matters, not the sum.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of base-2 log buckets: bucket `i` counts values whose bit length
/// is `i`, i.e. values in `[2^(i-1), 2^i)`; bucket 0 counts zeros.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A lock-free histogram with fixed base-2 log-scale buckets.
///
/// Designed for nanosecond latencies and byte sizes: 65 buckets cover the
/// entire `u64` range with ≤ 2× relative bucket width and recording is a
/// single atomic add.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: its bit length (0 for 0).
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Immutable histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Per-bucket counts, index = bit length of the value.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (exclusive) of bucket `i`.
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Approximate quantile (`0.0 ..= 1.0`) from the log-scale buckets:
    /// the rank's bucket is found by cumulative count, then the value is
    /// interpolated linearly inside the bucket's `[2^(i-1), 2^i)` range
    /// and clamped to the observed min/max. Base-2 buckets bound the
    /// relative error at 2× — the quantile-bucket tolerance the STATS
    /// agreement checks rely on.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n > target {
                let lower = if i == 0 { 0 } else { Self::bucket_bound(i - 1) };
                let upper = Self::bucket_bound(i);
                let frac = (target - seen) as f64 / n as f64;
                let v = lower as f64 + frac * (upper - lower) as f64;
                return (v as u64).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Merge another snapshot into this one. Sums wrap on overflow — the
    /// same semantic as the recording side's atomic `fetch_add`, and what
    /// keeps merging associative for arbitrary inputs.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        if other.count > 0 {
            self.min = if self.count == other.count {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// JSON form: count/sum/min/max/mean plus non-empty buckets as
    /// `{"le": upper_bound, "n": count}` pairs.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| {
                Json::obj(vec![
                    ("le", Json::UInt(Self::bucket_bound(i))),
                    ("n", Json::UInt(*n)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("min", Json::UInt(self.min)),
            ("max", Json::UInt(self.max)),
            ("mean", Json::Float(self.mean())),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// A named registry of counters and histograms, shareable across threads.
///
/// Instruments are created on first use and live for the registry's
/// lifetime; recording never takes the registry lock (instruments are
/// handed out as `Arc`s).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    windowed_histograms: Mutex<BTreeMap<String, Arc<crate::window::WindowedHistogram>>>,
    windowed_counters: Mutex<BTreeMap<String, Arc<crate::window::WindowedCounter>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Get or create the rolling-window histogram `name`. Windowed
    /// instruments live beside the cumulative ones under their own
    /// namespace; a snapshot of the cumulative registry does not include
    /// them (see [`MetricsRegistry::windows_json`]).
    pub fn windowed_histogram(&self, name: &str) -> Arc<crate::window::WindowedHistogram> {
        get_or_insert(&self.windowed_histograms, name)
    }

    /// Get or create the rolling-window counter `name`.
    pub fn windowed_counter(&self, name: &str) -> Arc<crate::window::WindowedCounter> {
        get_or_insert(&self.windowed_counters, name)
    }

    /// The rolling 1 s / 10 s / 60 s views of every windowed instrument as
    /// one JSON object: `{"histograms": {name: {"1s": {...}, ...}},
    /// "counters": {...}}`.
    pub fn windows_json(&self) -> Json {
        let histograms = Json::Obj(
            lock_recover(&self.windowed_histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        let counters = Json::Obj(
            lock_recover(&self.windowed_counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        Json::obj(vec![("histograms", histograms), ("counters", counters)])
    }

    /// Immutable snapshot of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock_recover(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = lock_recover(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }
}

/// The instrument under `name`, created on first use. A hit allocates
/// nothing: the key `String` is made only when the name is registered.
fn get_or_insert<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = lock_recover(map);
    if let Some(hit) = map.get(name) {
        return Arc::clone(hit);
    }
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// An immutable, mergeable view of a registry at a point in time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram's state, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Merge another snapshot into this one: counters add, histograms
    /// merge bucket-wise (e.g. combining per-worker registries).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) => h.merge(v),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// JSON form: `{"counters": {...}, "histograms": {...}}`.
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("counters", Json::from_counter_map(&self.counters)),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Compact JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_registry_still_records_and_snapshots() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("kept").inc();
        let held = Arc::clone(&reg);
        let _ = std::thread::spawn(move || {
            let _counters = held.counters.lock();
            let _histograms = held.histograms.lock();
            panic!("poison the registry");
        })
        .join();
        assert!(reg.counters.is_poisoned() && reg.histograms.is_poisoned());
        reg.counter("kept").inc();
        reg.counter("new").inc();
        reg.histogram("h").record(3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("kept"), 2);
        assert_eq!(snap.counter("new"), 1);
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn bucketing_is_base2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let h = Histogram::new();
        for v in [3, 0, 1024, 7] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 3 + 1024 + 7);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1024);
        assert_eq!(s.buckets[0], 1, "zero bucket");
        assert_eq!(s.buckets[2], 1, "3 → bucket 2");
        assert_eq!(s.buckets[3], 1, "7 → bucket 3");
        assert_eq!(s.buckets[11], 1, "1024 → bucket 11");
        assert!((s.mean() - (1034.0 / 4.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_min_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.min, 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn registry_instruments_are_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("x"), 3);
    }

    #[test]
    fn registry_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricsRegistry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Histogram>();
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = Arc::new(MetricsRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let c = reg.counter("hits");
                    let h = reg.histogram("lat");
                    for i in 0..1000 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits"), 4000);
        assert_eq!(snap.histogram("lat").unwrap().count, 4000);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_buckets() {
        let a = MetricsRegistry::new();
        a.counter("n").add(2);
        a.histogram("h").record(5);
        let b = MetricsRegistry::new();
        b.counter("n").add(3);
        b.counter("only_b").inc();
        b.histogram("h").record(100);
        b.histogram("h2").record(1);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("n"), 5);
        assert_eq!(merged.counter("only_b"), 1);
        let h = merged.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 105);
        assert_eq!(h.min, 5);
        assert_eq!(h.max, 100);
        assert!(merged.histogram("h2").is_some());
    }

    #[test]
    fn merge_min_handles_empty_sides() {
        let a = MetricsRegistry::new();
        a.histogram("h"); // created but never recorded
        let b = MetricsRegistry::new();
        b.histogram("h").record(9);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        let h = m.histogram("h").unwrap();
        assert_eq!((h.min, h.max, h.count), (9, 9, 1));
    }

    #[test]
    fn snapshot_json_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b").add(7);
        reg.histogram("lat").record(3);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"a.b\":7"), "{json}");
        assert!(json.contains("\"lat\":{\"count\":1"), "{json}");
        assert!(json.contains("\"buckets\":[{\"le\":4,\"n\":1}]"), "{json}");
    }
}
