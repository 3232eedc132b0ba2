//! Fault-injection matrix: every injected fault must surface as a typed
//! [`EngineError`] on every execution path — never a hang, a process
//! abort, or a silently short result.
//!
//! The matrix crosses fault sites (scan / encode / send) and kinds
//! (panic / transient / delay) with the three execution paths: inline
//! with the result queued before the call returns (`execute_sql`),
//! streaming on a worker thread, and the single-CPU inline streaming
//! fallback. Every cell fires: all three run one execution body, and every
//! chunk passes the `send` site. Faults are deterministic (seeded,
//! hit-counted), so each cell is reproducible.

use std::sync::Arc;
use std::time::Duration;

use sr_data::{row, DataType, Database, Row, Schema, Table};
use sr_engine::{EngineError, FaultPlan, Server};

const SQL: &str = "SELECT i.id AS id, i.label AS label FROM Item i ORDER BY id";

/// Silence the default panic hook for *injected* panics only: they are the
/// point of these tests and would otherwise spray backtraces over the
/// output. Every other panic (i.e. a genuine test failure) still prints.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.starts_with("injected fault") {
                prev(info);
            }
        }));
    });
}

fn server() -> Server {
    let mut db = Database::new();
    let mut t = Table::new(
        "Item",
        Schema::of(&[("id", DataType::Int), ("label", DataType::Str)]),
    );
    for i in 0..50i64 {
        t.insert(row![i, format!("item-{i}")]).unwrap();
    }
    db.add_table(t);
    Server::new(Arc::new(db))
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Buffered,
    Worker,
    Inline,
}

const MODES: [Mode; 3] = [Mode::Buffered, Mode::Worker, Mode::Inline];

fn configure(s: Server, mode: Mode) -> Server {
    match mode {
        Mode::Buffered => s,
        Mode::Worker => s.with_stream_workers(true),
        Mode::Inline => s.with_stream_workers(false),
    }
}

fn run(s: &Server, mode: Mode) -> Result<Vec<Row>, EngineError> {
    match mode {
        Mode::Buffered => s.execute_sql(SQL)?.collect_rows(),
        Mode::Worker | Mode::Inline => s.execute_sql_streaming(SQL)?.collect_rows(),
    }
}

#[test]
fn panic_matrix_surfaces_typed_internal_errors() {
    quiet_injected_panics();
    for mode in MODES {
        for site in ["scan", "encode", "send"] {
            let spec = format!("panic@{site}");
            let s = configure(
                server().with_faults(FaultPlan::parse(&spec, 1).unwrap()),
                mode,
            );
            match run(&s, mode) {
                Err(EngineError::Internal(m)) => {
                    assert!(m.contains("injected fault"), "{mode:?}/{site}: {m}")
                }
                other => panic!("{mode:?}/{site}: expected Internal error, got {other:?}"),
            }
            assert_eq!(
                s.metrics().snapshot().counter("server.panics"),
                1,
                "{mode:?}/{site}"
            );
        }
    }
}

#[test]
fn transient_faults_retry_to_success_in_every_mode() {
    for mode in MODES {
        let s = configure(
            server().with_faults(FaultPlan::parse("transient@scan#1", 1).unwrap()),
            mode,
        );
        let rows = run(&s, mode).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert_eq!(rows.len(), 50, "{mode:?}");
        assert_eq!(
            s.metrics().snapshot().counter("server.retries"),
            1,
            "{mode:?}"
        );
    }
}

#[test]
fn exhausted_transient_retries_surface_typed_error() {
    for mode in MODES {
        let s = configure(
            server()
                .with_transient_retries(1)
                .with_faults(FaultPlan::parse("transient@scan", 1).unwrap()),
            mode,
        );
        match run(&s, mode) {
            Err(EngineError::Transient(m)) => assert!(m.contains("injected fault"), "{m}"),
            other => panic!("{mode:?}: expected Transient error, got {other:?}"),
        }
        assert_eq!(
            s.metrics().snapshot().counter("server.retries"),
            1,
            "{mode:?}"
        );
    }
}

#[test]
fn transient_at_stream_sites_surfaces_without_truncation() {
    // Encode/send transients happen after execution, outside the retry
    // wrapper: they must surface as the stream's typed terminal error, not
    // as a clean-looking short document.
    for mode in MODES {
        for site in ["encode", "send"] {
            let spec = format!("transient@{site}");
            let s = configure(
                server().with_faults(FaultPlan::parse(&spec, 1).unwrap()),
                mode,
            );
            match run(&s, mode) {
                Err(EngineError::Transient(m)) => {
                    assert!(m.contains("injected fault"), "{mode:?}/{site}: {m}")
                }
                other => panic!("{mode:?}/{site}: expected Transient, got {other:?}"),
            }
        }
    }
}

#[test]
fn delayed_execution_trips_the_deadline_cooperatively() {
    // A 30ms injected stall against a 5ms budget: the worker must stop at
    // its next chunk-boundary check with a Timeout, not run to completion
    // and report post-hoc.
    for mode in MODES {
        let s = configure(
            server()
                .with_timeout(Duration::from_millis(5))
                .with_faults(FaultPlan::parse("delay30@scan", 1).unwrap()),
            mode,
        );
        match run(&s, mode) {
            Err(EngineError::Timeout {
                elapsed_ms,
                limit_ms,
            }) => {
                assert!(elapsed_ms >= limit_ms, "{mode:?}")
            }
            other => panic!("{mode:?}: expected Timeout, got {other:?}"),
        }
        let snap = s.metrics().snapshot();
        assert_eq!(snap.counter("server.timeouts"), 1, "{mode:?}");
        assert_eq!(snap.counter("server.cancelled"), 1, "{mode:?}");
    }
}

#[test]
fn transient_retries_stop_at_the_deadline() {
    // Every scan fails transiently and the retry budget would back off for
    // ~1 s (1+2+…+512 ms), but the deadline is 5 ms: the server's retry
    // loop — the only one there is — must surface the timeout instead of
    // sleeping through its budget.
    for mode in MODES {
        let s = configure(
            server()
                .with_transient_retries(10)
                .with_timeout(Duration::from_millis(5))
                .with_faults(FaultPlan::parse("transient@scan", 1).unwrap()),
            mode,
        );
        match run(&s, mode) {
            Err(EngineError::Timeout { limit_ms, .. }) => assert_eq!(limit_ms, 5, "{mode:?}"),
            other => panic!("{mode:?}: expected Timeout, got {other:?}"),
        }
        let retries = s.metrics().snapshot().counter("server.retries");
        assert!(
            retries < 10,
            "{mode:?}: {retries} retries burned past the deadline"
        );
    }
}

#[test]
fn panicking_workers_do_not_exhaust_the_gate() {
    quiet_injected_panics();
    // One panicking query per gate permit, plus slack: if a panic leaked
    // its permit, the clean query at the end would block forever on the
    // admission gate (and the test harness would flag the hang).
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        + 2;
    let rules = (1..=n)
        .map(|k| format!("panic@scan#{k}"))
        .collect::<Vec<_>>()
        .join(",");
    let s = server()
        .with_stream_workers(true)
        .with_faults(FaultPlan::parse(&rules, 1).unwrap());
    for i in 0..n {
        match run(&s, Mode::Worker) {
            Err(EngineError::Internal(_)) => {}
            other => panic!("query {i}: expected Internal error, got {other:?}"),
        }
    }
    assert_eq!(s.metrics().snapshot().counter("server.panics"), n as u64);
    // Every permit must be back: a clean query still gets through.
    let rows = run(&s, Mode::Worker).unwrap();
    assert_eq!(rows.len(), 50);
}

#[test]
fn unfired_faults_leave_results_identical() {
    let want = server().execute_sql(SQL).unwrap().collect_rows().unwrap();
    for mode in MODES {
        let s = configure(
            server().with_faults(
                FaultPlan::parse("panic@scan#999,transient@encode#999,delay50@send#999", 7)
                    .unwrap(),
            ),
            mode,
        );
        let rows = run(&s, mode).unwrap();
        assert_eq!(rows, want, "{mode:?}");
        assert_eq!(s.fault_injector().unwrap().fired(), 0, "{mode:?}");
        let snap = s.metrics().snapshot();
        for c in ["server.panics", "server.retries", "server.cancelled"] {
            assert_eq!(snap.counter(c), 0, "{mode:?}/{c}");
        }
    }
}
