//! The untraced run: set up (several times, for a steady `setup_s`), then
//! drive the schedule closed-loop for the measured window and summarise
//! what a user of the system would have seen.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::fixture::{Fixture, Kind, Sample};
use crate::measure::{median, quantile};
use crate::Metric;

/// How many times set-up runs; `setup_s` is the median. The last one is
/// the fixture the timed ops run against.
const SETUPS: usize = 3;

/// Set a workload up [`SETUPS`] times, keeping the last fixture; returns
/// it with the median set-up time in seconds.
pub fn setup_repeatedly(kind: Kind, seed: u64, quick: bool) -> (Fixture, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // The previous fixture (database, caches, server threads) goes
        // away first: a set-up never runs beside a live one.
        drop(last.take());
        let t = Instant::now();
        last = Some(Fixture::setup(kind, seed, quick));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS > 0"), median(times))
}

/// Drive the schedule from op `first` on, closed loop with the workload's
/// number of callers, until `window` has passed. Returns every sample with
/// the time since the window opened at which it completed.
pub fn drive(fx: &Fixture, first: usize, window: Duration) -> Vec<(Duration, Sample)> {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let caller = |k: usize| {
        let mut samples = Vec::new();
        while start.elapsed() < window {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let sample = fx.run_op(i, k);
            samples.push((start.elapsed(), sample));
        }
        samples
    };
    match fx.kind.callers() {
        1 => caller(0),
        n => std::thread::scope(|s| {
            let handles: Vec<_> = (0..n).map(|k| s.spawn(move || caller(k))).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("load-generator thread"))
                .collect()
        }),
    }
}

/// The outcome of an untraced run.
pub struct EndToEnd {
    /// Ops attempted in the measured window.
    pub attempted: usize,
    /// Ops that errored, were refused, or returned the wrong bytes.
    pub failed: usize,
    /// The end-to-end metrics of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// The executor the engine defaults to, for the result stamp.
    pub exec_mode: String,
}

/// The measured window is cut into this many slices of equal op count.
const SLICES: usize = 10;

/// Summarise a measured window. Each timing metric is computed per slice
/// of consecutive completions and the **median over the slices** is
/// reported: on a shared two-core host a neighbour's burst slows a second
/// or two of the window, which moves a whole-window p95 or throughput but
/// not the median slice. A failed op counts as the slowest sample and not
/// as throughput.
pub fn summarise(
    mut samples: Vec<(Duration, Sample)>,
    setup_s: f64,
    exec_mode: String,
) -> EndToEnd {
    samples.sort_by_key(|(done, _)| *done);
    let failed = samples.iter().filter(|(_, s)| !s.ok).count();
    let slowest = samples.iter().map(|(_, s)| s.wall_ms).fold(0.0, f64::max);
    let (mut p50, mut p95, mut ttfb, mut rate) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut opened = Duration::ZERO;
    for slice in samples.chunks(samples.len().div_ceil(SLICES).max(1)) {
        let column = |f: fn(&Sample) -> f64| {
            let mut v: Vec<f64> = slice
                .iter()
                .map(|(_, s)| if s.ok { f(s) } else { slowest })
                .collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let wall_ms = column(|s| s.wall_ms);
        p50.push(quantile(&wall_ms, 0.50));
        p95.push(quantile(&wall_ms, 0.95));
        ttfb.push(quantile(&column(|s| s.ttfb_ms), 0.50));
        let closed = slice.last().map_or(opened, |(done, _)| *done);
        let correct = slice.iter().filter(|(_, s)| s.ok).count() as f64;
        rate.push(correct / (closed - opened).as_secs_f64());
        opened = closed;
    }
    EndToEnd {
        attempted: samples.len(),
        failed,
        exec_mode,
        metrics: vec![
            Metric::new("op_ms_p50", median(p50), "ms"),
            Metric::new("op_ms_p95", median(p95), "ms"),
            Metric::new("ttfb_ms_p50", median(ttfb), "ms"),
            Metric::new("ops_per_s", median(rate), "1/s"),
            Metric::new("setup_s", setup_s, "s"),
        ],
    }
}

/// The whole untraced run of one workload.
pub fn run(kind: Kind, seed: u64, window: Duration, quick: bool) -> EndToEnd {
    let (fx, setup_s) = setup_repeatedly(kind, seed, quick);
    let first = fx.warmup_ops;
    let samples = drive(&fx, first, window);
    let exec_mode = fx.server.exec_mode().to_string();
    summarise(samples, setup_s, exec_mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(done_ms: u64, wall_ms: f64, ok: bool) -> (Duration, Sample) {
        let sample = Sample {
            wall_ms,
            ttfb_ms: wall_ms / 2.0,
            ok,
            stall_ms: 0.0,
            chunks: 0,
            bytes: 1,
        };
        (Duration::from_millis(done_ms), sample)
    }

    #[test]
    fn failed_ops_count_as_the_slowest_and_not_as_throughput() {
        // Three slices of one op each; the failed op reads as 9 ms.
        let samples = vec![
            sample(500, 1.0, true),
            sample(1000, 9.0, true),
            sample(1500, 2.0, false),
        ];
        let e = summarise(samples, 0.5, "tuple".into());
        assert_eq!((e.attempted, e.failed), (3, 1));
        let get = |n: &str| e.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("op_ms_p50"), 9.0);
        assert_eq!(get("ttfb_ms_p50"), 4.5);
        assert_eq!(
            get("ops_per_s"),
            2.0,
            "slice rates are 2, 2 and 0 per second"
        );
        assert_eq!(get("setup_s"), 0.5);
    }

    #[test]
    fn serve_mixed_drives_two_connections() {
        let fx = Fixture::setup(Kind::ServeMixed, 11, true);
        let samples = drive(&fx, fx.warmup_ops, Duration::from_millis(300));
        assert!(samples
            .iter()
            .any(|(done, _)| *done >= Duration::from_millis(300)));
        assert!(samples.len() >= 2 && samples.iter().all(|(_, s)| s.ok && s.chunks > 0));
    }
}
