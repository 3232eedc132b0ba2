#![warn(missing_docs)]
//! # sr-obs
//!
//! Lightweight, zero-dependency metrics and tracing for the silkroute
//! pipeline.
//!
//! The paper's central argument is a *decomposition of middle-ware time*:
//! server query time vs. bind-and-transfer vs. tagging (§4, Figs. 13–15).
//! This crate provides the instruments that make that decomposition visible
//! in every layer:
//!
//! * [`Counter`] — monotone atomic counters (rows per operator, oracle
//!   round-trips, queries executed).
//! * [`Histogram`] — fixed base-2 log-scale buckets for latencies and
//!   sizes; lock-free recording.
//! * [`Spans`] — hierarchical timed spans for single-threaded driver code
//!   (`materialize` → `plan` → `execute` → `tag`), aggregated by path.
//! * [`MetricsRegistry`] — a named registry of counters and histograms
//!   shared across threads; [`MetricsRegistry::snapshot`] produces an
//!   immutable [`Snapshot`] that merges and renders to JSON without any
//!   serde dependency.
//!
//! ```
//! use sr_obs::MetricsRegistry;
//! let reg = MetricsRegistry::new();
//! reg.counter("server.queries").inc();
//! reg.histogram("server.execute_ns").record(1_500);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("server.queries"), 1);
//! assert!(snap.to_json().contains("\"server.queries\":1"));
//! ```

pub mod json;
pub mod metrics;
pub mod span;
pub mod trace;
pub mod window;

pub use json::Json;
pub use metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot};
pub use span::{SpanGuard, SpanStat, Spans};
pub use trace::{TraceEvent, TracePhase, TraceSpan, Tracer};
pub use window::{WindowStats, WindowedCounter, WindowedHistogram};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a mutex, recovering the data from a poisoned one. Only for state
/// every update leaves consistent (a registry map, an event buffer, a
/// permit count, a cache map): propagating the poison would let one failed
/// request wedge every later one, and telemetry must never panic a
/// request.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
