//! Structured timeline tracing for the pipeline, exported as Chrome
//! trace-event JSON.
//!
//! Aggregate counters and histograms ([`crate::metrics`]) answer "how much
//! in total"; once execution is pipelined they stop answering "where did
//! *this* run's time go" — server workers, stream decode, and the tagger's
//! k-way merge all overlap. A [`Tracer`] records begin/end/instant/counter
//! events with monotonic timestamps onto *lanes* (Chrome `tid`s): one lane
//! per recording thread plus any number of named virtual lanes (e.g. one
//! per tuple stream). Events land in per-thread buffers behind uncontended
//! mutexes, so recording never serializes the threads being measured;
//! buffers are merged and time-sorted only at snapshot.
//!
//! Everything is optional by construction: call sites hold an
//! `Option<&Tracer>` (usually via `Option<Arc<Tracer>>`) and no event is
//! allocated — not even a timestamp taken — when no tracer is installed.
//!
//! [`Tracer::to_chrome_json`] renders the snapshot in the Chrome
//! trace-event format, loadable directly in Perfetto or
//! `chrome://tracing`.
//!
//! ```
//! use sr_obs::Tracer;
//! let t = Tracer::new();
//! t.name_current_thread("driver");
//! {
//!     let _span = t.span("phase.plan");
//!     t.instant(t.current_lane(), "picked plan", Some("edges=3".into()));
//! }
//! let events = t.events();
//! assert_eq!(events.len(), 3);
//! assert!(t.to_chrome_json().render().contains("\"traceEvents\""));
//! ```

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;
use crate::lock_recover;

/// Process-wide lane allocator: real threads and virtual lanes draw from
/// the same sequence, so a lane id is unique across both.
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);
/// Process-wide tracer id allocator (keys the per-thread buffer cache).
static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The current thread's lane id (0 = not yet assigned).
    static THREAD_LANE: Cell<u64> = const { Cell::new(0) };
    /// Per-thread event buffers, one per tracer this thread has recorded
    /// into. Tracer ids are never reused, so a stale entry is inert.
    static THREAD_BUFS: RefCell<Vec<(u64, Arc<EventBuf>)>> = const { RefCell::new(Vec::new()) };
}

/// The current thread's lane id, assigned on first use.
fn thread_lane() -> u64 {
    THREAD_LANE.with(|l| {
        let v = l.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            l.set(v);
            v
        }
    })
}

/// Event kind, mirroring the Chrome trace-event phases we emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Start of a duration interval (`ph: "B"`).
    Begin,
    /// End of a duration interval (`ph: "E"`).
    End,
    /// A point event (`ph: "i"`).
    Instant,
    /// A sampled counter value (`ph: "C"`).
    Counter,
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (pairs `Begin`/`End`).
    pub name: Cow<'static, str>,
    /// Phase kind.
    pub phase: TracePhase,
    /// Nanoseconds since the tracer's epoch (monotonic).
    pub ts_ns: u64,
    /// Lane (Chrome `tid`) the event belongs to — not necessarily the
    /// thread that recorded it (a consumer thread records a stream's
    /// events onto the stream's own virtual lane).
    pub lane: u64,
    /// Optional free-form annotation (rendered as `args.detail`).
    pub detail: Option<String>,
    /// Counter value (only meaningful for [`TracePhase::Counter`]).
    pub value: f64,
}

/// One thread's event buffer for one tracer. The mutex is uncontended in
/// steady state (only the owning thread records; the snapshotting thread
/// locks it once at the end).
#[derive(Default)]
struct EventBuf {
    events: Mutex<Vec<TraceEvent>>,
}

/// A thread-safe trace recorder. See the module docs.
pub struct Tracer {
    id: u64,
    epoch: Instant,
    bufs: Mutex<Vec<Arc<EventBuf>>>,
    /// `lane id → display name`, insertion-ordered.
    lane_names: Mutex<Vec<(u64, String)>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer#{}", self.id)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh tracer; its epoch (timestamp zero) is now.
    pub fn new() -> Tracer {
        Tracer {
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            bufs: Mutex::new(Vec::new()),
            lane_names: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Name a lane (replacing any previous name).
    fn set_lane_name(&self, lane: u64, name: String) {
        let mut names = lock_recover(&self.lane_names);
        match names.iter_mut().find(|(l, _)| *l == lane) {
            Some((_, n)) => *n = name,
            None => names.push((lane, name)),
        }
    }

    /// The current thread's event buffer for this tracer, registering it
    /// (and a default name for the thread's lane) on first use.
    fn buf(&self) -> Arc<EventBuf> {
        THREAD_BUFS.with(|cell| {
            let mut bufs = cell.borrow_mut();
            if let Some((_, b)) = bufs.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(b);
            }
            let b = Arc::new(EventBuf::default());
            lock_recover(&self.bufs).push(Arc::clone(&b));
            bufs.push((self.id, Arc::clone(&b)));
            let lane = thread_lane();
            let mut names = lock_recover(&self.lane_names);
            if !names.iter().any(|(l, _)| *l == lane) {
                names.push((lane, format!("thread-{lane}")));
            }
            b
        })
    }

    fn emit(&self, ev: TraceEvent) {
        lock_recover(&self.buf().events).push(ev);
    }

    /// The current thread's lane id (registering a default name).
    pub fn current_lane(&self) -> u64 {
        let _ = self.buf();
        thread_lane()
    }

    /// Give the current thread's lane a display name; returns the lane id.
    pub fn name_current_thread(&self, name: impl Into<String>) -> u64 {
        let lane = self.current_lane();
        self.set_lane_name(lane, name.into());
        lane
    }

    /// Allocate a named *virtual* lane: a timeline that is not a real
    /// thread (e.g. one per tuple stream). Any thread may record onto it.
    pub fn lane(&self, name: impl Into<String>) -> u64 {
        let lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        self.set_lane_name(lane, name.into());
        lane
    }

    /// Record the start of an interval on a lane.
    pub fn begin(&self, lane: u64, name: impl Into<Cow<'static, str>>, detail: Option<String>) {
        self.emit(TraceEvent {
            name: name.into(),
            phase: TracePhase::Begin,
            ts_ns: self.now_ns(),
            lane,
            detail,
            value: 0.0,
        });
    }

    /// Record the end of the most recent matching interval on a lane.
    pub fn end(&self, lane: u64, name: impl Into<Cow<'static, str>>) {
        self.emit(TraceEvent {
            name: name.into(),
            phase: TracePhase::End,
            ts_ns: self.now_ns(),
            lane,
            detail: None,
            value: 0.0,
        });
    }

    /// Record a point event on a lane.
    pub fn instant(&self, lane: u64, name: impl Into<Cow<'static, str>>, detail: Option<String>) {
        self.emit(TraceEvent {
            name: name.into(),
            phase: TracePhase::Instant,
            ts_ns: self.now_ns(),
            lane,
            detail,
            value: 0.0,
        });
    }

    /// Record a counter sample on a lane (rendered as a Chrome counter
    /// track).
    pub fn counter(&self, lane: u64, name: impl Into<Cow<'static, str>>, value: f64) {
        self.emit(TraceEvent {
            name: name.into(),
            phase: TracePhase::Counter,
            ts_ns: self.now_ns(),
            lane,
            detail: None,
            value,
        });
    }

    /// An RAII interval on the current thread's lane.
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> TraceSpan<'_> {
        TraceSpan::new(Some(self), name)
    }

    /// Registered lanes as `(lane id, name)`, in registration order.
    pub fn lanes(&self) -> Vec<(u64, String)> {
        lock_recover(&self.lane_names).clone()
    }

    /// Merge every thread's buffer into one snapshot, sorted by timestamp
    /// (stable, so same-timestamp events keep their recording order).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for buf in lock_recover(&self.bufs).iter() {
            all.extend(lock_recover(&buf.events).iter().cloned());
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Render the snapshot as a Chrome trace-event JSON document
    /// (`{"traceEvents": [...]}`), loadable in Perfetto or
    /// `chrome://tracing`. Timestamps are microseconds; lanes appear as
    /// named threads of a single process.
    pub fn to_chrome_json(&self) -> Json {
        let mut events = Vec::new();
        for (lane, name) in self.lanes() {
            events.push(Json::obj(vec![
                ("name", Json::Str("thread_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(lane)),
                ("args", Json::obj(vec![("name", Json::Str(name))])),
            ]));
        }
        for e in self.events() {
            let ph = match e.phase {
                TracePhase::Begin => "B",
                TracePhase::End => "E",
                TracePhase::Instant => "i",
                TracePhase::Counter => "C",
            };
            let mut fields = vec![
                ("name".to_string(), Json::Str(e.name.into_owned())),
                ("cat".to_string(), Json::Str("silkroute".into())),
                ("ph".to_string(), Json::Str(ph.into())),
                ("ts".to_string(), Json::Float(e.ts_ns as f64 / 1000.0)),
                ("pid".to_string(), Json::UInt(1)),
                ("tid".to_string(), Json::UInt(e.lane)),
            ];
            if e.phase == TracePhase::Instant {
                // Thread-scoped instant marker.
                fields.push(("s".to_string(), Json::Str("t".into())));
            }
            let mut args = Vec::new();
            if e.phase == TracePhase::Counter {
                args.push(("value".to_string(), Json::Float(e.value)));
            }
            if let Some(d) = e.detail {
                args.push(("detail".to_string(), Json::Str(d)));
            }
            if !args.is_empty() {
                fields.push(("args".to_string(), Json::Obj(args)));
            }
            events.push(Json::Obj(fields));
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }
}

/// An RAII trace interval: emits `Begin` on creation and `End` on drop.
/// Built from an `Option<&Tracer>` so instrumented code pays nothing —
/// no allocation, no clock read — when tracing is off.
#[must_use = "a span measures the interval until it is dropped"]
pub struct TraceSpan<'a> {
    tracer: Option<&'a Tracer>,
    lane: u64,
    name: Cow<'static, str>,
}

impl<'a> TraceSpan<'a> {
    /// Begin an interval on the current thread's lane (no-op when
    /// `tracer` is `None`).
    pub fn new(tracer: Option<&'a Tracer>, name: impl Into<Cow<'static, str>>) -> TraceSpan<'a> {
        TraceSpan::with_detail(tracer, name, None)
    }

    /// Begin an interval with an annotation (no-op when `tracer` is
    /// `None`; pass detail via `tracer.map(...)` to skip building it when
    /// tracing is off).
    pub fn with_detail(
        tracer: Option<&'a Tracer>,
        name: impl Into<Cow<'static, str>>,
        detail: Option<String>,
    ) -> TraceSpan<'a> {
        match tracer {
            Some(t) => {
                let lane = t.current_lane();
                let name = name.into();
                t.begin(lane, name.clone(), detail);
                TraceSpan {
                    tracer: Some(t),
                    lane,
                    name,
                }
            }
            None => TraceSpan {
                tracer: None,
                lane: 0,
                name: Cow::Borrowed(""),
            },
        }
    }
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.end(self.lane, std::mem::take(&mut self.name));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `Begin` has a matching `End` on the same lane; timestamps are
    /// monotone per lane.
    fn assert_well_formed(events: &[TraceEvent]) {
        use std::collections::HashMap;
        let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
        let mut last_ts: HashMap<u64, u64> = HashMap::new();
        for e in events {
            let prev = last_ts.entry(e.lane).or_insert(0);
            assert!(e.ts_ns >= *prev, "timestamps regress on lane {}", e.lane);
            *prev = e.ts_ns;
            match e.phase {
                TracePhase::Begin => stacks.entry(e.lane).or_default().push(e.name.to_string()),
                TracePhase::End => {
                    let top = stacks.entry(e.lane).or_default().pop();
                    assert_eq!(top.as_deref(), Some(e.name.as_ref()), "unbalanced end");
                }
                _ => {}
            }
        }
        for (lane, stack) in stacks {
            assert!(stack.is_empty(), "lane {lane} left spans open: {stack:?}");
        }
    }

    #[test]
    fn spans_nest_and_balance() {
        let t = Tracer::new();
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_well_formed(&evs);
        // inner closes before outer
        assert_eq!(evs[1].name, "inner");
        assert_eq!(evs[2].name, "inner");
        assert_eq!(evs[3].name, "outer");
    }

    #[test]
    fn none_tracer_records_nothing() {
        let _s = TraceSpan::new(None, "phantom");
        // Nothing to assert beyond "does not panic / allocate a tracer";
        // the type makes it impossible to emit without a tracer.
    }

    #[test]
    fn threads_get_distinct_lanes_merged_in_time_order() {
        let t = Arc::new(Tracer::new());
        let main_lane = t.name_current_thread("main");
        t.begin(main_lane, "work", None);
        let t2 = Arc::clone(&t);
        let other_lane = std::thread::spawn(move || {
            let lane = t2.name_current_thread("worker");
            let _s = t2.span("side");
            lane
        })
        .join()
        .unwrap();
        t.end(main_lane, "work");
        assert_ne!(main_lane, other_lane);
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_well_formed(&evs);
        let lanes = t.lanes();
        assert!(lanes.iter().any(|(_, n)| n == "main"));
        assert!(lanes.iter().any(|(_, n)| n == "worker"));
    }

    #[test]
    fn virtual_lane_recorded_from_consumer_thread() {
        let t = Tracer::new();
        let lane = t.lane("stream 0");
        t.begin(lane, "stall", None);
        t.end(lane, "stall");
        t.counter(lane, "rows", 42.0);
        let evs = t.events();
        assert_well_formed(&evs);
        assert!(evs.iter().all(|e| e.lane == lane));
        assert_eq!(evs[2].value, 42.0);
    }

    #[test]
    fn chrome_export_has_metadata_and_phases() {
        let t = Tracer::new();
        t.name_current_thread("driver");
        {
            let _s = t.span("phase");
            t.instant(t.current_lane(), "mark", Some("x=1".into()));
        }
        let lane = t.lane("extra");
        t.counter(lane, "rows", 7.0);
        let doc = t.to_chrome_json().render();
        for needle in [
            "\"traceEvents\"",
            "\"thread_name\"",
            "\"driver\"",
            "\"extra\"",
            "\"ph\":\"B\"",
            "\"ph\":\"E\"",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
            "\"displayTimeUnit\":\"ms\"",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
        let parsed = Json::parse(&doc).expect("chrome trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // 2 thread_name metadata + B + i + E + C
        assert_eq!(events.len(), 6);
    }

    #[test]
    fn detail_lands_in_args() {
        let t = Tracer::new();
        let _ = TraceSpan::with_detail(Some(&t), "q", Some("SELECT 1".into()));
        let doc = t.to_chrome_json().render();
        assert!(doc.contains("\"detail\":\"SELECT 1\""), "{doc}");
    }
}
