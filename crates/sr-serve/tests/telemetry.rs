//! Live-telemetry behaviour of the serving front-end: STATS snapshots
//! stay coherent while queries are in flight (STATS is never admission
//! controlled, so it must answer even when every slot is busy), and the
//! structured query log captures slow requests with an attached per-node
//! profile and a loadable Chrome trace, accounts for every request, and
//! the server's own latency windows agree with what a client measured.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
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

fn is_bool(j: &Json, key: &str) -> bool {
    matches!(j.get(key), Some(Json::Bool(_)))
}

/// Tests that time requests or load the host run one at a time, so one's
/// load cannot skew the other's latencies.
static LOADED: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    LOADED.lock().unwrap_or_else(|e| e.into_inner())
}

/// The structure docs/OBSERVABILITY.md promises for a STATS snapshot:
/// bounded admission and connection numbers, rejections summing to their
/// causes, and every rolling window's quantiles in order.
fn check_stats(j: &Json) {
    assert_eq!(unum(j, &["proto"]) as u64, STATS_PROTO);
    assert!(unum(j, &["uptime_s"]) >= 0.0);
    assert!(is_bool(j, "draining"));

    let active = unum(j, &["connections", "active"]);
    assert!(active <= unum(j, &["connections", "max"]), "active > max");
    assert!(
        unum(j, &["connections", "total"]) >= active,
        "total < active"
    );

    let in_flight = unum(j, &["admission", "in_flight"]);
    let slots = unum(j, &["admission", "slots"]);
    assert!(in_flight <= slots, "in_flight {in_flight} > slots {slots}");
    assert!(unum(j, &["admission", "queue_len"]) <= unum(j, &["admission", "queue_depth"]));
    unum(j, &["admission", "per_client"]);
    unum(j, &["admission", "admitted"]);
    let by_cause: f64 = ["queue_full", "quota", "max_conns", "draining"]
        .iter()
        .map(|c| unum(j, &["admission", "rejected", c]))
        .sum();
    assert_eq!(
        unum(j, &["admission", "rejected", "total"]),
        by_cause,
        "rejected total != sum of causes"
    );

    let Some(Json::Arr(clients)) = j.get("clients") else {
        panic!("clients not an array");
    };
    for c in clients {
        unum(c, &["id"]);
        unum(c, &["queries"]);
        unum(c, &["running"]);
        assert!(c.get("addr").and_then(Json::as_str).is_some());
        assert!(unum(c, &["connected_s"]) >= 0.0);
    }

    assert!(is_bool(j.get("qlog").expect("qlog"), "enabled"));
    for key in ["written", "dropped", "slow"] {
        unum(j, &["qlog", key]);
    }

    let Some(Json::Obj(hists)) = j.get("windows").and_then(|w| w.get("histograms")) else {
        panic!("windows.histograms not an object");
    };
    for (name, per_window) in hists {
        let Json::Obj(windows) = per_window else {
            panic!("windows.{name} not an object");
        };
        for (w, s) in windows {
            assert!(w.ends_with('s'), "window key {w} is not a duration");
            assert!(unum(s, &["rate"]) >= 0.0);
            let [p50, p99, p999, max] = ["p50", "p99", "p999", "max"].map(|q| unum(s, &[q]));
            if unum(s, &["count"]) > 0.0 {
                assert!(
                    p50 <= p99 && p99 <= p999 && p999 <= max,
                    "windows.{name}.{w}: quantiles disordered ({p50}, {p99}, {p999}, max {max})"
                );
            }
        }
    }
    let Some(Json::Obj(counters)) = j.get("windows").and_then(|w| w.get("counters")) else {
        panic!("windows.counters not an object");
    };
    for (name, per_window) in counters {
        let Json::Obj(windows) = per_window else {
            panic!("windows.{name} not an object");
        };
        for (_, s) in windows {
            assert!(unum(s, &["rate"]) >= 0.0);
        }
    }
    for key in ["counters", "histograms"] {
        assert!(matches!(
            j.get("cumulative").and_then(|c| c.get(key)),
            Some(Json::Obj(_))
        ));
    }
}

/// Outcomes a query-log record may carry: success, a typed wire error, an
/// admission refusal, or a client that vanished mid-response.
const QLOG_OUTCOMES: [&str; 11] = [
    "ok",
    "busy",
    "gone",
    "MALFORMED",
    "UNKNOWN_VIEW",
    "BAD_PLAN",
    "ENGINE",
    "CANCELLED",
    "TIMEOUT",
    "INTERNAL",
    "BAD_QUERY",
];

/// Read a query log and check every record against the documented schema:
/// unique `seq`, a known outcome, a phase breakdown within `total_ms`, and
/// a capture (`profile`, `trace_file`) only on slow records.
fn read_qlog(path: &Path) -> Vec<Json> {
    let body = std::fs::read_to_string(path).expect("read query log");
    let records: Vec<Json> = body
        .lines()
        .map(|l| Json::parse(l).expect("record parses"))
        .collect();
    let mut seqs = HashSet::new();
    for (i, r) in records.iter().enumerate() {
        let text = |key: &str| {
            r.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("record {i}: {key} not a string"))
        };
        assert!(
            seqs.insert(unum(r, &["seq"]) as u64),
            "record {i}: duplicate seq"
        );
        for key in ["client", "streams", "rows", "bytes"] {
            unum(r, &[key]);
        }
        text("view");
        text("plan");
        text("xpath");
        assert!(matches!(text("format"), "xml" | "tuples"));
        assert!(is_bool(r, "cache_hit") && is_bool(r, "slow"));
        let [queue, plan, exec, encode, total] =
            ["queue_ms", "plan_ms", "exec_ms", "encode_ms", "total_ms"].map(|k| unum(r, &[k]));
        assert!(queue >= 0.0 && plan >= 0.0 && exec >= 0.0 && encode >= 0.0);
        assert!(
            total + 1e-6 >= plan + exec + encode,
            "record {i}: phase breakdown exceeds total_ms"
        );
        let outcome = text("outcome");
        assert!(
            QLOG_OUTCOMES.contains(&outcome),
            "record {i}: outcome {outcome}"
        );
        if outcome == "ok" {
            assert!(text("error").is_empty(), "record {i}: ok carries an error");
        }
        if matches!(r.get("slow"), Some(Json::Bool(false))) {
            assert!(
                r.get("profile").is_none() && r.get("trace_file").is_none(),
                "record {i}: capture attached to a non-slow record"
            );
        }
        if let Some(profile) = r.get("profile") {
            let entries = profile.as_arr().expect("profile is an array");
            assert_eq!(entries.len(), unum(r, &["streams"]) as usize);
            for e in entries {
                assert!(e.get("sql").and_then(Json::as_str).is_some());
            }
        }
    }
    records
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
    let _serial = serial();

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
        check_stats(&j);
        if unum(&j, &["admission", "in_flight"]) > 0.0 {
            saw_in_flight = true;
        }

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

    let records = read_qlog(&qlog_path);
    assert_eq!(records.len(), 2, "one JSONL record per request");

    for (i, r) in records.iter().enumerate() {
        assert_eq!(unum(r, &["seq"]) as usize, i);
        assert_eq!(r.get("outcome").and_then(Json::as_str), Some("ok"));
        assert!(matches!(r.get("slow"), Some(Json::Bool(true))));
        assert!(unum(r, &["rows"]) > 0.0);
        assert!(unum(r, &["bytes"]) > 0.0);
        // The attached profile analyzes every component SQL.
        assert!(r.get("profile").is_some(), "record {i} has no profile");

        // The trace file exists, parses, and names the pipeline threads:
        // one lane per component stream, `stream 0..n`, as the library's
        // traces name them.
        let trace_file = r
            .get("trace_file")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("record {i} has no trace_file"));
        let trace = Json::parse(&std::fs::read_to_string(trace_file).expect("read trace"))
            .expect("trace parses");
        let Some(Json::Arr(events)) = trace.get("traceEvents") else {
            panic!("trace {trace_file} has no traceEvents array");
        };
        assert!(!events.is_empty(), "empty trace");
        let lanes: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        let streams = unum(r, &["streams"]) as usize;
        assert!(streams > 0);
        for k in 0..streams {
            let want = format!("stream {k}");
            assert!(
                lanes.contains(&want.as_str()),
                "record {i}: no lane {want} in {lanes:?}"
            );
        }
        assert_eq!(
            lanes.iter().filter(|l| l.starts_with("stream ")).count(),
            streams,
            "record {i}: stream lanes {lanes:?}"
        );
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

    let records = read_qlog(&qlog_path);
    assert_eq!(records.len(), 1);
    let r = &records[0];
    assert!(matches!(r.get("slow"), Some(Json::Bool(false))));
    assert!(r.get("profile").is_none());
    assert!(r.get("trace_file").is_none());
    let _ = std::fs::remove_file(&qlog_path);
}

/// Under a mix of XML, tuple and XPath requests, the query log accounts
/// for every request (`written + dropped` reaches the request count), the
/// XPath request's record carries its path, and no clean request counts
/// as a protocol error.
#[test]
fn qlog_accounts_for_every_request_and_records_xpath() {
    let qlog_path = scratch_path("mix");
    let engine = tiny_engine();
    let handle = serve(
        Arc::clone(&engine),
        ViewCatalog::new(),
        ServeConfig {
            query_log: Some(qlog_path.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind serve");

    let mut c = Client::connect(handle.local_addr()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    const ROUNDS: usize = 8;
    for _ in 0..ROUNDS {
        c.materialize(view(), "unified").expect("xml query");
        c.fetch_tuples(view(), "partitioned").expect("tuple query");
        let xp = c
            .query_xpath(view(), "unified", "/supplier/name")
            .expect("xpath query");
        assert!(xp.document.starts_with(b"<supplier><name>"));
    }
    let requests = (3 * ROUNDS) as f64;
    wait_for("every request logged or counted as dropped", || {
        let j = Json::parse(&c.stats().expect("stats")).expect("parse");
        unum(&j, &["qlog", "written"]) + unum(&j, &["qlog", "dropped"]) >= requests
    });
    check_stats(&Json::parse(&c.stats().expect("stats")).expect("parse"));
    handle.shutdown();
    assert_eq!(
        engine.metrics().snapshot().counter("serve.protocol_errors"),
        0
    );

    let records = read_qlog(&qlog_path);
    assert!(
        records
            .iter()
            .any(|r| r.get("xpath").and_then(Json::as_str) == Some("/supplier/name")),
        "no query-log record for the XPath request"
    );
    let _ = std::fs::remove_file(&qlog_path);
}

/// The server's own rolling-window latency quantiles describe the
/// distribution a client measures. Windows bucket values by bit length,
/// so each quantile is only known to 2x; the client side also carries
/// framing and socket time, so the bound allows 2.2x plus 1.5 ms either
/// way.
#[test]
fn stats_window_agrees_with_client_latency() {
    let engine = tiny_engine();
    let mut catalog = ViewCatalog::new();
    catalog.insert("query1", silkroute::query1_tree(engine.database()));
    let handle = serve(engine, catalog, ServeConfig::default()).expect("bind serve");
    let _serial = serial();

    let mut c = Client::connect(handle.local_addr()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let started = Instant::now();
    let mut latencies_us: Vec<f64> = (0..60)
        .map(|_| {
            let t0 = Instant::now();
            c.materialize(ViewRef::Named("query1".into()), "unified")
                .expect("query");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let window = if started.elapsed() < Duration::from_secs(9) {
        "10s"
    } else {
        "60s"
    };
    latencies_us.sort_by(f64::total_cmp);
    let stats = Json::parse(&c.stats().expect("stats")).expect("parse");
    handle.shutdown();
    for (q, name) in [(0.50, "p50"), (0.99, "p99")] {
        let server = unum(
            &stats,
            &["windows", "histograms", "serve.request_us", window, name],
        );
        let client = latencies_us[((latencies_us.len() - 1) as f64 * q).round() as usize];
        assert!(
            server <= client * 2.2 + 1500.0 && client <= server * 2.2 + 1500.0,
            "{window} {name}: server {server:.0} us vs client {client:.0} us"
        );
    }
}
