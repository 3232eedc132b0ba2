//! The CLI's machine-readable outputs, end to end: run the `silkroute`
//! binary and check every emitted JSON document against the structure the
//! docs promise — the `--metrics-json` report (with its `--analyze`
//! section and reliability counters) and the `--trace` Chrome timeline —
//! the `bench` table of a whole plan-space sweep, and how the CLI ends when
//! the reader of its stdout goes away early.

use std::collections::{BTreeSet, HashMap};
use std::process::Command;

use sr_obs::Json;

/// Run the CLI, require success, return stdout.
fn silkroute(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_silkroute"))
        .args(args)
        .output()
        .expect("spawn silkroute");
    assert!(
        out.status.success(),
        "silkroute {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn parse(text: &str, what: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{what} does not parse: {e}"))
}

fn field<'a>(j: &'a Json, key: &str, ctx: &str) -> &'a Json {
    j.get(key)
        .unwrap_or_else(|| panic!("{ctx}: missing key {key:?}"))
}

fn uint(j: &Json, key: &str, ctx: &str) -> u64 {
    match field(j, key, ctx) {
        Json::UInt(u) => *u,
        Json::Int(i) if *i >= 0 => *i as u64,
        other => panic!("{ctx}.{key}: expected a non-negative integer, got {other:?}"),
    }
}

fn num(j: &Json, key: &str, ctx: &str) -> f64 {
    field(j, key, ctx)
        .as_f64()
        .unwrap_or_else(|| panic!("{ctx}.{key}: expected a number"))
}

fn text<'a>(j: &'a Json, key: &str, ctx: &str) -> &'a str {
    field(j, key, ctx)
        .as_str()
        .unwrap_or_else(|| panic!("{ctx}.{key}: expected a string"))
}

fn arr<'a>(j: &'a Json, key: &str, ctx: &str) -> &'a [Json] {
    field(j, key, ctx)
        .as_arr()
        .unwrap_or_else(|| panic!("{ctx}.{key}: expected an array"))
}

/// A counter of the report's registry snapshot; absent reads as zero.
fn counter(metrics: &Json, name: &str) -> u64 {
    match metrics.get("counters").and_then(|c| c.get(name)) {
        None => 0,
        Some(_) => uint(field(metrics, "counters", "metrics"), name, "counters"),
    }
}

fn has_histogram(metrics: &Json, name: &str) -> bool {
    metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .is_some()
}

/// Every structural invariant of a `--metrics-json` report; returns the
/// metrics object for case-specific counter checks.
fn check_report(doc: &Json) -> &Json {
    let streams = arr(doc, "streams", "report");
    assert!(!streams.is_empty(), "report.streams is empty");
    for (i, s) in streams.iter().enumerate() {
        let ctx = format!("streams[{i}]");
        text(s, "sql", &ctx);
        uint(s, "rows", &ctx);
        uint(s, "bytes", &ctx);
        num(s, "server_ms", &ctx);
        num(s, "transfer_ms", &ctx);
    }
    let totals = field(doc, "totals", "report");
    for key in ["plan_ms", "server_ms", "transfer_ms", "tag_ms", "total_ms"] {
        assert!(num(totals, key, "totals") >= 0.0, "totals.{key} negative");
    }

    let metrics = field(doc, "metrics", "report");
    field(metrics, "counters", "metrics");
    let n = streams.len() as u64;
    assert!(
        counter(metrics, "server.queries") >= n,
        "server.queries below the {n} executed streams"
    );
    assert!(
        !has_histogram(metrics, "server.optimize_ns"),
        "retired histogram server.optimize_ns resurfaced"
    );
    // Reliability counters (docs/RELIABILITY.md): integral when present,
    // and every timeout is also a cancellation.
    for name in [
        "server.panics",
        "server.cancelled",
        "server.retries",
        "server.timeouts",
        "cache.evictions",
        "exec.batches",
    ] {
        counter(metrics, name);
    }
    assert!(
        counter(metrics, "server.cancelled") >= counter(metrics, "server.timeouts"),
        "server.timeouts exceeds server.cancelled"
    );
    assert_eq!(
        counter(metrics, "server.panics"),
        0,
        "a materialization that produced a report cannot have panicked"
    );

    if doc.get("analyze").is_some() {
        let analyses = arr(doc, "analyze", "report");
        assert_eq!(
            analyses.len(),
            streams.len(),
            "one analyze entry per stream"
        );
        for (i, a) in analyses.iter().enumerate() {
            let ctx = format!("analyze[{i}]");
            text(a, "sql", &ctx);
            uint(a, "rows", &ctx);
            uint(a, "sorts_elided", &ctx);
            let nodes = arr(a, "nodes", &ctx);
            assert!(!nodes.is_empty(), "{ctx}.nodes is empty");
            for node in nodes {
                if let Some(q) = node.get("q_error").and_then(Json::as_f64) {
                    assert!(q >= 1.0, "{ctx}: q_error {q} < 1");
                }
                uint(node, "actual_rows", &ctx);
            }
        }
        assert!(
            has_histogram(metrics, "oracle.qerror"),
            "analyze ran but metrics lack oracle.qerror"
        );
    }
    metrics
}

/// A `--trace` Chrome timeline: balanced B/E spans per thread, timestamps
/// monotone per thread, and one lane per component stream.
fn check_trace(doc: &Json) {
    let events = arr(doc, "traceEvents", "trace");
    assert!(!events.is_empty(), "traceEvents is empty");
    let mut stacks: HashMap<u64, Vec<&str>> = HashMap::new();
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut lanes = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let ctx = format!("traceEvents[{i}]");
        let ph = text(e, "ph", &ctx);
        let tid = uint(e, "tid", &ctx);
        let name = text(e, "name", &ctx);
        if ph == "M" {
            assert_eq!(name, "thread_name", "{ctx}: unexpected metadata");
            let args = field(e, "args", &ctx);
            lanes.insert(text(args, "name", &ctx).to_string());
            continue;
        }
        let ts = num(e, "ts", &ctx);
        let last = last_ts.entry(tid).or_insert(0.0);
        assert!(ts >= *last, "{ctx}: ts regresses on tid {tid}");
        *last = ts;
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push(name),
            "E" => {
                let top = stack
                    .pop()
                    .unwrap_or_else(|| panic!("{ctx}: E {name:?} without open B on tid {tid}"));
                assert_eq!(top, name, "{ctx}: E closes another span on tid {tid}");
            }
            "i" | "C" => {}
            other => panic!("{ctx}: unknown phase {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
    assert!(
        lanes.iter().any(|l| l.starts_with("stream ")),
        "no per-stream lanes in {lanes:?}"
    );
}

#[test]
fn report_with_analyze_and_trace_is_well_formed() {
    let trace = std::env::temp_dir().join(format!("sr-machine-output-{}.json", std::process::id()));
    let trace_arg = trace.to_str().expect("utf-8 temp path");
    let report = silkroute(&[
        "materialize",
        "--mb",
        "0.2",
        "--metrics-json",
        "--analyze",
        "--trace",
        trace_arg,
        "--out",
        "/dev/null",
        "query1",
    ]);
    let doc = parse(&report, "report");
    assert!(doc.get("analyze").is_some(), "--analyze adds the section");
    check_report(&doc);
    let timeline = std::fs::read_to_string(&trace).expect("read trace");
    let _ = std::fs::remove_file(&trace);
    check_trace(&parse(&timeline, "trace"));
}

/// A single transient scan fault retries to success: the report stays
/// well formed and counts the retry.
#[test]
fn transient_fault_reports_count_the_retry() {
    let doc = parse(
        &silkroute(&[
            "materialize",
            "--mb",
            "0.2",
            "--fault",
            "transient@scan#1",
            "--metrics-json",
            "--out",
            "/dev/null",
            "query1",
        ]),
        "fault report",
    );
    let metrics = check_report(&doc);
    assert!(
        counter(metrics, "server.retries") >= 1,
        "the transient fault was never retried"
    );
}

/// `bench --plan all` times every plan of the view's `2^|E|` space: one row
/// per edge set, each with one stream per component the set leaves, and
/// all of them writing the same document, which the view tree defines.
#[test]
fn bench_sweeps_the_whole_plan_space() {
    const VIEW: &str = "from Supplier $s construct <supplier><name>$s.name</name>\
        { from PartSupp $ps where $s.suppkey = $ps.suppkey construct <part>$ps.partkey</part> }\
        { from Nation $n where $s.nationkey = $n.nationkey construct <nation>$n.name</nation> }\
        </supplier>";
    let path = std::env::temp_dir().join(format!("sr-bench-sweep-{}.rxl", std::process::id()));
    std::fs::write(&path, VIEW).expect("write view");
    let table = silkroute(&[
        "bench",
        "--mb",
        "0.02",
        "--plan",
        "all",
        path.to_str().expect("utf-8 temp path"),
    ]);
    let _ = std::fs::remove_file(&path);

    let db = silkroute::tpch::generate(silkroute::tpch::Scale::mb(0.02)).expect("tpch");
    let view = silkroute::rxl::parse(VIEW).expect("view parses");
    let tree = silkroute::viewtree::build(&view, &db).expect("view tree");
    assert_eq!(tree.edge_count(), 3);
    let rows: Vec<Vec<&str>> = table
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(rows.len(), 8, "{table}");
    let mut xml_bytes = BTreeSet::new();
    for row in &rows {
        let [plan, _cost, streams, _query, _xfer, _tag, _total, _tuples, _wire, xml] = row[..]
        else {
            panic!("not a bench row: {row:?}");
        };
        let bits = plan.strip_prefix("edges:").expect("an edge-set label");
        let edges = silkroute::EdgeSet::from_bits(bits.parse().expect("edge bits"));
        let components = silkroute::viewtree::components(&tree, edges).len();
        assert_eq!(streams, components.to_string(), "{plan}: {table}");
        xml_bytes.insert(xml);
    }
    assert_eq!(
        xml_bytes.len(),
        1,
        "one document whatever the plan: {table}"
    );
}

/// A reader that goes away before the output ends (`silkroute sql … |
/// head -c 200`) ends the run with a failure status and nothing on
/// stderr: no panic, no error line. The pipe's read end is closed before
/// the binary starts, so its first write fails.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    for args in [
        &["sql", "--mb", "0.1", "--plan", "unified", "query1"][..],
        &["materialize", "--mb", "0.1", "query1"][..],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_silkroute"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn silkroute");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "silkroute {args:?}: {stderr}");
        assert!(stderr.trim().is_empty(), "silkroute {args:?}: {stderr}");
        assert!(!out.status.success(), "silkroute {args:?} reported success");
    }
}

/// `top` polls until its server goes away, so a reader that left must
/// end it: the first failed refresh stops the loop, quietly.
#[test]
fn a_closed_stdout_stops_top() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let bin = env!("CARGO_BIN_EXE_silkroute");
    let mut serve = Command::new(bin)
        .args(["serve", "--mb", "0.05", "--listen", "127.0.0.1:0"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    // Held open until serve exits: its last stderr line must not fail.
    let mut serve_stderr = BufReader::new(serve.stderr.take().expect("serve stderr"));
    let mut banner = String::new();
    serve_stderr.read_line(&mut banner).expect("serve banner");
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .to_string();

    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let mut top = Command::new(bin)
        .args(["top", "--connect", &addr, "--interval-ms", "50"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn top");
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = top.try_wait().expect("poll top") {
            break Some(status);
        }
        if Instant::now() > deadline {
            let _ = top.kill();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let stderr = top.wait_with_output().expect("top output").stderr;
    silkroute(&["client", "--connect", &addr, "--shutdown"]);
    assert!(serve.wait().expect("serve exits").success());
    drop(serve_stderr);

    let status = status.expect("top kept polling after its reader left");
    assert!(!status.success(), "top reported success");
    let stderr = String::from_utf8_lossy(&stderr);
    assert!(stderr.trim().is_empty(), "top: {stderr}");
}
