//! Live-telemetry behaviour of the serving front-end: STATS snapshots
//! stay coherent while queries are in flight (STATS is never admission
//! controlled, so it must answer even when every slot is busy), and the
//! structured query log captures slow requests with an attached per-node
//! profile and a loadable Chrome trace.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sr_engine::Server as Engine;
use sr_obs::Json;
use sr_serve::{serve, AdmitConfig, Client, ServeConfig, ViewCatalog, ViewRef, STATS_PROTO};

/// A deliberately small view so test servers stay cheap.
const VIEW_RXL: &str = "from Supplier $s construct <supplier> <name>$s.name</name> </supplier>";

fn view() -> ViewRef {
    ViewRef::Rxl(VIEW_RXL.into())
}

fn tiny_engine() -> Arc<Engine> {
    let db = sr_tpch::generate(sr_tpch::Scale::mb(0.05)).expect("tpch");
    Arc::new(Engine::new(Arc::new(db)))
}

/// A fresh path under the system temp dir, unique per test invocation.
fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "sr-telemetry-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

/// Spin until `cond` holds or the deadline passes.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn unum(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing key {key} in {}", path.join(".")));
    }
    cur.as_f64().unwrap_or_else(|| {
        panic!("non-numeric at {}", path.join("."));
    })
}

/// Every snapshot taken while worker threads hammer the server must be
/// internally consistent: schema version, admission numbers within their
/// configured bounds, cause-labeled rejections summing to the total, and
/// cumulative counters monotone from poll to poll.
#[test]
fn concurrent_stats_polls_stay_coherent() {
    let handle = serve(
        tiny_engine(),
        ViewCatalog::new(),
        ServeConfig {
            admit: AdmitConfig {
                slots: 1,
                per_client: 1,
                queue_depth: 4,
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind serve");
    let addr = handle.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("worker connect");
                c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut done = 0u32;
                // At least four queries each, then keep going until the
                // poller has seen enough snapshots.
                while done < 4 || !stop.load(Ordering::Relaxed) {
                    let r = c.fetch_tuples(view(), "unified").expect("worker query");
                    assert!(r.stats.tuples > 0);
                    done += 1;
                }
                done
            })
        })
        .collect();

    let mut poller = Client::connect(addr).expect("poller connect");
    poller
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut last_admitted = 0.0f64;
    let mut last_uptime = 0.0f64;
    let mut saw_in_flight = false;
    for _ in 0..25 {
        let text = poller.stats().expect("stats while loaded");
        let j = Json::parse(&text).expect("stats parses");
        assert_eq!(unum(&j, &["proto"]) as u64, STATS_PROTO);

        // Admission numbers respect the configured limits.
        let slots = unum(&j, &["admission", "slots"]);
        let in_flight = unum(&j, &["admission", "in_flight"]);
        let queue_len = unum(&j, &["admission", "queue_len"]);
        assert!(in_flight <= slots, "in_flight {in_flight} > slots {slots}");
        assert!(queue_len <= unum(&j, &["admission", "queue_depth"]));
        if in_flight > 0.0 {
            saw_in_flight = true;
        }

        // Cause-labeled rejections sum to the total.
        let total = unum(&j, &["admission", "rejected", "total"]);
        let by_cause: f64 = ["queue_full", "quota", "max_conns", "draining"]
            .iter()
            .map(|c| unum(&j, &["admission", "rejected", c]))
            .sum();
        assert_eq!(total, by_cause, "rejected total != sum of causes");

        // Monotone cumulative state.
        let admitted = unum(&j, &["admission", "admitted"]);
        let uptime = unum(&j, &["uptime_s"]);
        assert!(admitted >= last_admitted, "admitted went backwards");
        assert!(uptime >= last_uptime, "uptime went backwards");
        last_admitted = admitted;
        last_uptime = uptime;

        // Connection registry covers the workers and this poller.
        let active = unum(&j, &["connections", "active"]);
        assert!((1.0..=3.0).contains(&active), "active {active}");
        match j.get("clients") {
            Some(Json::Arr(rows)) => assert!(!rows.is_empty()),
            other => panic!("clients not an array: {other:?}"),
        }

        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    let total_queries: u32 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
    assert!(total_queries >= 8);
    assert!(
        saw_in_flight,
        "no snapshot observed an in-flight query — load never overlapped the polls"
    );

    // The final quiescent snapshot agrees with what the workers did.
    let j = Json::parse(&poller.stats().expect("final stats")).expect("parse");
    assert!(unum(&j, &["admission", "admitted"]) >= f64::from(total_queries));
    handle.shutdown();
}

/// With `--slow-ms 0` every request is slow: the query log must hold one
/// schema-complete JSONL record per request, slow ones carrying an
/// EXPLAIN ANALYZE profile and a Chrome trace file that actually loads.
#[test]
fn qlog_captures_slow_query_with_profile_and_trace() {
    let qlog_path = scratch_path("qlog");
    let handle = serve(
        tiny_engine(),
        ViewCatalog::new(),
        ServeConfig {
            query_log: Some(qlog_path.clone()),
            slow_ms: Some(0),
            ..ServeConfig::default()
        },
    )
    .expect("bind serve");

    let mut c = Client::connect(handle.local_addr()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let xml = c.materialize(view(), "unified").expect("xml query");
    assert!(xml.stats.tuples > 0);
    let tup = c.fetch_tuples(view(), "unified").expect("tuple query");
    assert!(tup.stats.tuples > 0);

    // Slow capture runs after the response ships; the STATS qlog section
    // tells us when both records (and their traces) have landed.
    wait_for("both qlog records written", || {
        let j = Json::parse(&c.stats().expect("stats")).expect("parse");
        unum(&j, &["qlog", "written"]) >= 2.0 && unum(&j, &["qlog", "slow"]) >= 2.0
    });
    let j = Json::parse(&c.stats().expect("stats")).expect("parse");
    assert_eq!(unum(&j, &["qlog", "dropped"]), 0.0);
    assert!(matches!(
        j.get("qlog").and_then(|q| q.get("enabled")),
        Some(Json::Bool(true))
    ));
    handle.shutdown();

    let body = std::fs::read_to_string(&qlog_path).expect("read query log");
    let records: Vec<Json> = body
        .lines()
        .map(|l| Json::parse(l).expect("record parses"))
        .collect();
    assert_eq!(records.len(), 2, "one JSONL record per request");

    for (i, r) in records.iter().enumerate() {
        // Schema-complete: every always-present field is there.
        for key in [
            "seq",
            "client",
            "view",
            "format",
            "shards",
            "streams",
            "cache_hit",
            "queue_ms",
            "plan_ms",
            "exec_ms",
            "encode_ms",
            "total_ms",
            "rows",
            "bytes",
            "outcome",
            "slow",
        ] {
            assert!(r.get(key).is_some(), "record {i} missing {key}");
        }
        assert_eq!(unum(r, &["seq"]) as usize, i);
        assert_eq!(r.get("outcome").and_then(Json::as_str), Some("ok"));
        assert!(matches!(r.get("slow"), Some(Json::Bool(true))));
        assert!(unum(r, &["rows"]) > 0.0);
        assert!(unum(r, &["bytes"]) > 0.0);
        assert!(unum(r, &["total_ms"]) >= 0.0);

        // The attached profile analyzes every component SQL.
        match r.get("profile") {
            Some(Json::Arr(entries)) => {
                assert_eq!(entries.len(), unum(r, &["streams"]) as usize);
                for e in entries {
                    assert!(e.get("sql").and_then(Json::as_str).is_some());
                }
            }
            other => panic!("record {i} profile missing or not an array: {other:?}"),
        }

        // The trace file exists, parses, and names the pipeline threads.
        let trace_file = r
            .get("trace_file")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("record {i} has no trace_file"));
        let trace = Json::parse(&std::fs::read_to_string(trace_file).expect("read trace"))
            .expect("trace parses");
        match trace.get("traceEvents") {
            Some(Json::Arr(events)) => assert!(!events.is_empty(), "empty trace"),
            other => panic!("trace {trace_file} has no traceEvents array: {other:?}"),
        }
        let _ = std::fs::remove_file(trace_file);
    }
    let _ = std::fs::remove_file(&qlog_path);
}

/// The query log keeps serving non-slow traffic when `--slow-ms` is not
/// configured: records are written but carry no profile or trace.
#[test]
fn qlog_without_slow_threshold_skips_capture() {
    let qlog_path = scratch_path("fast");
    let handle = serve(
        tiny_engine(),
        ViewCatalog::new(),
        ServeConfig {
            query_log: Some(qlog_path.clone()),
            slow_ms: None,
            ..ServeConfig::default()
        },
    )
    .expect("bind serve");

    let mut c = Client::connect(handle.local_addr()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    c.fetch_tuples(view(), "unified").expect("query");
    wait_for("qlog record written", || {
        let j = Json::parse(&c.stats().expect("stats")).expect("parse");
        unum(&j, &["qlog", "written"]) >= 1.0
    });
    handle.shutdown();

    let body = std::fs::read_to_string(&qlog_path).expect("read query log");
    let r = Json::parse(body.lines().next().expect("one record")).expect("parse");
    assert!(matches!(r.get("slow"), Some(Json::Bool(false))));
    assert!(r.get("profile").is_none());
    assert!(r.get("trace_file").is_none());
    let _ = std::fs::remove_file(&qlog_path);
}
