#!/usr/bin/env python3
"""Schema checks for silkroute's machine-readable outputs.

Usage:
    validate_machine_output.py report REPORT.json   # --metrics-json document
    validate_machine_output.py trace  TRACE.json    # --trace Chrome timeline
    validate_machine_output.py bench  BENCH.json    # BENCH_pipeline.json
    validate_machine_output.py shard  BENCH.json    # BENCH_shard.json
    validate_machine_output.py serve  BENCH.json    # BENCH_serve.json
    validate_machine_output.py recost BENCH.json    # BENCH_recost.json
    validate_machine_output.py xpath  BENCH.json    # BENCH_xpath.json
    validate_machine_output.py stats  STATS.json    # `silkroute stats` snapshot
    validate_machine_output.py qlog   QUERY.jsonl   # --query-log JSONL file

Each mode parses the file with the stock json module and asserts the
structural invariants the docs promise, so CI catches any drift in what
`--metrics-json` / `--analyze` / `--trace` emit before a downstream
consumer does. Exits non-zero with a message on the first violation.
"""

import json
import sys
from collections import defaultdict


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(cond, msg):
    if not cond:
        fail(msg)


def require(obj, key, types, ctx):
    check(key in obj, f"{ctx}: missing key {key!r}")
    check(
        isinstance(obj[key], types),
        f"{ctx}.{key}: expected {types}, got {type(obj[key]).__name__}",
    )
    return obj[key]


NUM = (int, float)


def validate_report(doc):
    streams = require(doc, "streams", list, "report")
    check(streams, "report.streams is empty")
    for i, s in enumerate(streams):
        ctx = f"streams[{i}]"
        require(s, "sql", str, ctx)
        require(s, "rows", int, ctx)
        require(s, "bytes", int, ctx)
        require(s, "server_ms", NUM, ctx)
        require(s, "transfer_ms", NUM, ctx)
    totals = require(doc, "totals", dict, "report")
    for key in ("plan_ms", "server_ms", "transfer_ms", "tag_ms", "total_ms"):
        check(require(totals, key, NUM, "totals") >= 0, f"totals.{key} negative")
    shards = require(doc, "shards", int, "report")
    check(shards >= 1, f"report.shards must be >= 1, got {shards}")
    metrics = require(doc, "metrics", dict, "report")
    counters = require(metrics, "counters", dict, "metrics")
    check(counters.get("server.queries", 0) >= len(streams),
          "metrics.counters lacks the executed queries")
    # Shard accounting: exec.shards counts the fan-out of every stream that
    # actually split; whenever one did, the merge recorded its skew.
    exec_shards = counters.get("exec.shards", 0)
    check(isinstance(exec_shards, int) and exec_shards >= 0,
          f"counters.exec.shards: expected non-negative int, got {exec_shards!r}")
    check(exec_shards <= shards * len(streams),
          f"exec.shards {exec_shards} exceeds shards x streams "
          f"({shards} x {len(streams)})")
    if exec_shards > 0:
        check("shard.skew" in metrics.get("histograms", {}),
              "streams were sharded but metrics lack the shard.skew histogram")
    check("server.optimize_ns" not in metrics.get("histograms", {}),
          "retired histogram server.optimize_ns resurfaced")
    # Reliability counters (docs/RELIABILITY.md): present-or-zero, integral,
    # and every timeout must also have been counted as a cancellation.
    rel = {name: counters.get(name, 0) for name in (
        "server.panics", "server.cancelled", "server.retries",
        "server.timeouts", "materialize.retries", "cache.evictions")}
    for name, v in rel.items():
        check(isinstance(v, int) and v >= 0,
              f"counters.{name}: expected non-negative int, got {v!r}")
    check(rel["server.cancelled"] >= rel["server.timeouts"],
          "server.timeouts exceeds server.cancelled — a deadline expiry "
          "must count as a cancellation")
    check(rel["server.panics"] == 0,
          "a materialization that produced a report cannot have panicked")
    # Executor counter: present-or-zero and well-typed.
    v = counters.get("exec.batches", 0)
    check(isinstance(v, int) and v >= 0,
          f"counters.exec.batches: expected non-negative int, got {v!r}")
    if "analyze" in doc:
        analyses = require(doc, "analyze", list, "report")
        check(len(analyses) == len(streams),
              "one analyze entry per stream expected")
        for i, a in enumerate(analyses):
            ctx = f"analyze[{i}]"
            require(a, "sql", str, ctx)
            require(a, "rows", int, ctx)
            require(a, "sorts_elided", int, ctx)
            nodes = require(a, "nodes", list, ctx)
            check(nodes, f"{ctx}.nodes is empty")
            for n in nodes:
                q = n.get("q_error")
                if q is not None:
                    check(q >= 1.0, f"{ctx}: q_error {q} < 1")
                check(n.get("actual_rows", -1) >= 0, f"{ctx}: bad actual_rows")
        hist = metrics.get("histograms", {})
        check("oracle.qerror" in hist,
              "analyze ran but metrics lack the oracle.qerror histogram")
    return f"report OK: {len(streams)} stream(s), analyze={'analyze' in doc}"


def validate_trace(doc):
    events = require(doc, "traceEvents", list, "trace")
    check(events, "traceEvents is empty")
    stacks = defaultdict(list)
    last_ts = {}
    lanes = set()
    for i, e in enumerate(events):
        ctx = f"traceEvents[{i}]"
        ph = require(e, "ph", str, ctx)
        tid = require(e, "tid", int, ctx)
        name = require(e, "name", str, ctx)
        if ph == "M":
            check(name == "thread_name", f"{ctx}: unexpected metadata {name!r}")
            lanes.add(e["args"]["name"])
            continue
        ts = require(e, "ts", NUM, ctx)
        check(ts >= last_ts.get(tid, 0), f"{ctx}: ts regresses on tid {tid}")
        last_ts[tid] = ts
        if ph == "B":
            stacks[tid].append(name)
        elif ph == "E":
            check(stacks[tid], f"{ctx}: E {name!r} without open B on tid {tid}")
            top = stacks[tid].pop()
            check(top == name, f"{ctx}: E {name!r} closes B {top!r} on tid {tid}")
        elif ph not in ("i", "C"):
            fail(f"{ctx}: unknown phase {ph!r}")
    for tid, stack in stacks.items():
        check(not stack, f"unclosed spans on tid {tid}: {stack}")
    check(any(l.startswith("stream ") for l in lanes),
          f"no per-stream lanes in {sorted(lanes)}")
    return f"trace OK: {len(events)} events, lanes {sorted(lanes)}"


def validate_bench(doc):
    check(doc.get("bench") == "pipeline", "not a pipeline bench document")
    plans = require(doc, "plans", list, "bench")
    check(plans, "bench.plans is empty")
    for i, p in enumerate(plans):
        ctx = f"plans[{i}]"
        require(p, "query", str, ctx)
        require(p, "streams", int, ctx)
        for mode in ("baseline", "sequential", "pipelined", "traced"):
            stage = require(p, mode, dict, ctx)
            check(require(stage, "total_ms", NUM, f"{ctx}.{mode}") > 0,
                  f"{ctx}.{mode}.total_ms not positive")
        check(require(p, "trace_overhead", NUM, ctx) > 0,
              f"{ctx}.trace_overhead not positive")
    overhead = require(doc, "trace_overhead", NUM, "bench")
    # Soft acceptance bar: enabled tracing must stay within +5% end to end.
    # CI hosts are noisy, so warn loudly rather than flake the build when a
    # singleton quick run lands past the bar.
    if overhead > 1.05:
        print(f"WARN: trace overhead {overhead:.3f} exceeds the 1.05 bar",
              file=sys.stderr)
    check(require(doc, "batch_size", int, "bench") > 0,
          "bench.batch_size not positive")
    return f"bench OK: {len(plans)} plan(s), trace overhead {overhead:.3f}"


def validate_shard(doc):
    check(doc.get("bench") == "shard", "not a shard bench document")
    shards = require(doc, "shards", int, "bench")
    check(shards >= 1, f"bench.shards must be >= 1, got {shards}")
    require(doc, "host_parallelism", int, "bench")
    plans = require(doc, "plans", list, "bench")
    check(plans, "bench.plans is empty")
    for i, p in enumerate(plans):
        ctx = f"plans[{i}]"
        require(p, "query", str, ctx)
        for mode in ("unsharded", "sharded"):
            stage = require(p, mode, dict, ctx)
            check(require(stage, "total_ms", NUM, f"{ctx}.{mode}") > 0,
                  f"{ctx}.{mode}.total_ms not positive")
        # Sharding must never change the answer, only its timing.
        check(p["unsharded"].get("tuples") == p["sharded"].get("tuples"),
              f"{ctx}: sharded tuple count diverges from unsharded")
        require(p, "speedup", NUM, ctx)
        fan_out = require(p, "exec_shards", int, ctx)
        check(0 <= fan_out <= shards, f"{ctx}.exec_shards {fan_out} out of range")
    totals = require(doc, "totals", dict, "bench")
    speedup = require(totals, "speedup", NUM, "totals")
    # Soft acceptance bar: sharded wall-clock <= unsharded on a multi-core
    # host. Warn rather than flake — quick runs on loaded CI hosts jitter.
    if doc.get("host_parallelism", 1) > 1 and speedup < 1.0:
        print(f"WARN: sharded speedup {speedup:.3f} below 1.0 on a "
              f"multi-core host", file=sys.stderr)
    return (f"shard bench OK: {len(plans)} plan(s), fan-out {shards}, "
            f"speedup {speedup:.3f}")


def validate_serve(doc):
    check(doc.get("bench") == "serve", "not a serve bench document")
    require(doc, "quick", bool, "bench")
    check(require(doc, "scale_mb", NUM, "bench") > 0, "bench.scale_mb not positive")
    check(require(doc, "host_parallelism", int, "bench") >= 1,
          "bench.host_parallelism must be >= 1")
    levels = require(doc, "levels", list, "bench")
    check(levels, "bench.levels is empty")
    closed = set()
    for i, l in enumerate(levels):
        ctx = f"levels[{i}]"
        mode = require(l, "mode", str, ctx)
        check(mode in ("closed", "open"), f"{ctx}.mode: unknown mode {mode!r}")
        conc = require(l, "concurrency", int, ctx)
        check(conc >= 1, f"{ctx}.concurrency must be >= 1")
        check(require(l, "requests", int, ctx) >= 1, f"{ctx}.requests empty")
        check(require(l, "errors", int, ctx) == 0,
              f"{ctx}: load generator reported errors")
        check(require(l, "wall_ms", NUM, ctx) > 0, f"{ctx}.wall_ms not positive")
        check(require(l, "qps", NUM, ctx) > 0, f"{ctx}.qps not positive")
        p50 = require(l, "p50_ms", NUM, ctx)
        p99 = require(l, "p99_ms", NUM, ctx)
        p999 = require(l, "p999_ms", NUM, ctx)
        check(0 < p50 <= p99 <= p999,
              f"{ctx}: percentiles disordered (p50 {p50}, p99 {p99}, p999 {p999})")
        if mode == "closed":
            closed.add(conc)
    # The acceptance bar: latency/qps at two or more concurrency levels.
    check(len(closed) >= 2,
          f"need >= 2 closed-loop concurrency levels, got {sorted(closed)}")
    knee = require(doc, "knee", dict, "bench")
    knee_c = require(knee, "concurrency", int, "knee")
    check(knee_c in closed, f"knee.concurrency {knee_c} not a measured level")
    knee_qps = require(knee, "qps", NUM, "knee")
    peak = require(knee, "peak_qps", NUM, "knee")
    check(0 < knee_qps <= peak * (1 + 1e-9),
          f"knee.qps {knee_qps} exceeds peak_qps {peak}")
    check(knee_qps >= 0.9 * peak,
          f"knee.qps {knee_qps} below 90% of peak {peak} — knee rule violated")
    counters = require(doc, "counters", dict, "bench")
    total_requests = sum(l["requests"] for l in levels)
    conns = require(counters, "connections", int, "counters")
    admitted = require(counters, "admitted", int, "counters")
    check(require(counters, "rejected", int, "counters") >= 0,
          "counters.rejected negative")
    check(conns >= max(closed), "fewer connections than peak concurrency")
    check(admitted >= total_requests,
          f"admitted {admitted} below the {total_requests} measured requests")
    # Stats agreement: the server's own rolling windows measured the same
    # distribution the load generator saw (docs/OBSERVABILITY.md). The
    # windows bucket by bit length, so each side is only known to 2x.
    agree = require(doc, "stats_agreement", dict, "bench")
    require(agree, "window", str, "stats_agreement")
    for q in ("p50", "p99", "p999"):
        pair = require(agree, q, dict, "stats_agreement")
        server = require(pair, "server_us", NUM, f"stats_agreement.{q}")
        load = require(pair, "load_us", NUM, f"stats_agreement.{q}")
        check(server <= load * 2.2 + 1500 and load <= server * 2.2 + 1500,
              f"stats_agreement.{q}: server {server} µs vs load {load} µs "
              f"beyond bucket tolerance")
    # Telemetry overhead: soft 2% bar — warn, don't flake (see the bench).
    tel = require(doc, "telemetry", dict, "bench")
    qps_plain = require(tel, "qps_plain", NUM, "telemetry")
    qps_qlog = require(tel, "qps_query_log", NUM, "telemetry")
    check(qps_plain > 0 and qps_qlog > 0, "telemetry qps not positive")
    overhead = require(tel, "overhead_pct", NUM, "telemetry")
    if overhead > 2.0:
        print(f"WARN: query-log overhead {overhead:.2f}% exceeds the 2% bar",
              file=sys.stderr)
    check(require(tel, "qlog_written", int, "telemetry") +
          require(tel, "qlog_dropped", int, "telemetry") > 0,
          "telemetry run produced no query-log records")
    return (f"serve bench OK: {len(levels)} level(s), knee C={knee_c} "
            f"at {knee_qps:.1f}/{peak:.1f} qps, "
            f"qlog overhead {overhead:+.2f}%")


def validate_recost(doc):
    check(doc.get("bench") == "recost", "not a recost bench document")
    require(doc, "quick", bool, "bench")
    iters = require(doc, "iters", int, "bench")
    check(iters >= 2, f"bench.iters must be >= 2, got {iters}")
    check(require(doc, "recost_threshold", NUM, "bench") > 0,
          "bench.recost_threshold not positive")
    views = require(doc, "views", list, "bench")
    check(views, "bench.views is empty")
    speedups = []
    for i, v in enumerate(views):
        ctx = f"views[{i}]"
        name = require(v, "view", str, ctx)
        rows = require(v, "iterations", list, ctx)
        check(len(rows) == iters, f"{ctx}: expected {iters} iterations")
        last_replans = 0
        for j, it in enumerate(rows):
            ictx = f"{ctx}.iterations[{j}]"
            check(require(it, "iter", int, ictx) == j,
                  f"{ictx}: iteration index out of order")
            require(it, "plan", int, ictx)
            check(require(it, "streams", int, ictx) >= 1,
                  f"{ictx}.streams must be >= 1")
            check(require(it, "server_ms", NUM, ictx) >= 0,
                  f"{ictx}.server_ms negative")
            check(require(it, "total_ms", NUM, ictx) > 0,
                  f"{ictx}.total_ms not positive")
            hits = require(it, "fragment_hits", int, ictx)
            check(hits >= 0, f"{ictx}.fragment_hits negative")
            if j > 0:
                check(hits >= 1,
                      f"{ictx}: warm iteration never hit the fragment cache")
            replans = require(it, "replans", int, ictx)
            check(replans >= last_replans,
                  f"{ictx}: cumulative replan count regresses")
            last_replans = replans
        # Hard acceptance bar: serving materialized fragments must never be
        # slower server-side than re-executing the component queries.
        speedup = require(v, "warm_speedup", NUM, ctx)
        check(speedup >= 1.0,
              f"{ctx}: warm speedup {speedup:.2f} below 1.0 — the fragment "
              f"cache made {name} slower")
        speedups.append((name, speedup))
        require(v, "plan_switched", bool, ctx)
        require(v, "replans", int, ctx)
        # Soft convergence bar: the feedback loop should settle, so server
        # time must not climb over the first three iterations. Re-planning
        # mid-run can legitimately perturb a single reading, so warn loudly
        # rather than flake the build.
        first3 = [it["server_ms"] for it in rows[:3]]
        if any(b > a + 1e-9 for a, b in zip(first3, first3[1:])):
            print(f"WARN: {name} server_ms not monotone non-increasing over "
                  f"the first 3 iterations: {first3}", file=sys.stderr)
    frag = require(doc, "fragment_cache", dict, "bench")
    for key in ("hits", "misses", "evictions", "bytes"):
        check(require(frag, key, int, "fragment_cache") >= 0,
              f"fragment_cache.{key} negative")
    check(frag["hits"] > 0, "fragment_cache.hits is zero — nothing warmed")
    check(frag["misses"] > 0,
          "fragment_cache.misses is zero — cold runs never executed")
    check(require(doc, "oracle_recost", int, "bench") >= 0,
          "bench.oracle_recost negative")
    check(require(doc, "oracle_actual_hits", int, "bench") > 0,
          "bench.oracle_actual_hits is zero — re-costing never consulted "
          "a recorded actual")
    summary = ", ".join(f"{n} {s:.1f}x" for n, s in speedups)
    return (f"recost bench OK: {len(views)} view(s), warm speedup {summary}, "
            f"{doc['oracle_recost']} re-plan(s)")


def validate_xpath(doc):
    check(doc.get("bench") == "xpath", "not an xpath bench document")
    require(doc, "quick", bool, "bench")
    check(require(doc, "scale_mb", NUM, "bench") > 0, "bench.scale_mb not positive")
    require(doc, "view", str, "bench")
    point_keys = ("streams", "sql_bytes", "doc_bytes")
    full = require(doc, "full", dict, "bench")
    for key in point_keys:
        check(require(full, key, int, "full") >= 0, f"full.{key} negative")
    check(full["streams"] >= 1, "full.streams must be >= 1")
    for key in ("server_ms", "total_ms"):
        check(require(full, key, NUM, "full") >= 0, f"full.{key} negative")
    paths = require(doc, "paths", list, "bench")
    check(paths, "bench.paths is empty")
    names = set()
    for i, p in enumerate(paths):
        ctx = f"paths[{i}]"
        names.add(require(p, "name", str, ctx))
        require(p, "xpath", str, ctx)
        pruned = require(p, "pruned_nodes", int, ctx)
        retained = require(p, "retained_nodes", int, ctx)
        check(pruned > 0, f"{ctx}: a benchmark path must prune something")
        check(retained >= 1, f"{ctx}: nothing retained")
        for key in point_keys:
            check(require(p, key, int, ctx) >= 0, f"{ctx}.{key} negative")
        # Pruning can only shrink the plan and what the server ships.
        check(p["streams"] <= full["streams"],
              f"{ctx}: pruned plan ran more component queries than full")
        check(p["streams"] <= retained,
              f"{ctx}: more streams than retained view nodes")
        check(p["sql_bytes"] <= full["sql_bytes"],
              f"{ctx}: pruned run shipped more SQL bytes than full")
        check(require(p, "stream_reduction", NUM, ctx) >= 1.0,
              f"{ctx}.stream_reduction below 1")
        check(require(p, "byte_reduction", NUM, ctx) >= 1.0,
              f"{ctx}.byte_reduction below 1")
    # Hard acceptance bar: the selective path executes strictly fewer
    # component queries and ships >= 5x fewer bytes of SQL results. Both
    # are deterministic byte/stream counts, so this cannot flake.
    acc = require(doc, "acceptance", dict, "bench")
    acc_path = require(acc, "path", str, "acceptance")
    check(acc_path in names, f"acceptance.path {acc_path!r} not measured")
    check(require(acc, "stream_reduction", NUM, "acceptance") > 1.0,
          "acceptance: the selective path must run strictly fewer "
          "component queries than full materialization")
    byte_red = require(acc, "byte_reduction", NUM, "acceptance")
    check(byte_red >= 5.0,
          f"acceptance: byte reduction {byte_red:.2f}x below the 5x bar")
    return (f"xpath bench OK: {len(paths)} path(s), acceptance "
            f"{byte_red:.1f}x fewer SQL bytes")


# Outcomes a query-log record may carry: success, a typed wire error, an
# admission refusal, or a client that vanished mid-response.
QLOG_OUTCOMES = {"ok", "busy", "gone", "MALFORMED", "UNKNOWN_VIEW",
                 "BAD_PLAN", "ENGINE", "CANCELLED", "TIMEOUT", "INTERNAL",
                 "BAD_QUERY"}


def validate_stats(doc):
    check(require(doc, "proto", int, "stats") >= 1, "stats.proto must be >= 1")
    check(require(doc, "uptime_s", NUM, "stats") >= 0, "stats.uptime_s negative")
    require(doc, "draining", bool, "stats")
    check(require(doc, "shards", int, "stats") >= 1, "stats.shards < 1")
    conns = require(doc, "connections", dict, "stats")
    active = require(conns, "active", int, "connections")
    check(0 <= active <= require(conns, "max", int, "connections"),
          f"connections.active {active} out of range")
    check(require(conns, "total", int, "connections") >= active,
          "connections.total below active")
    adm = require(doc, "admission", dict, "stats")
    check(require(adm, "in_flight", int, "admission")
          <= require(adm, "slots", int, "admission"),
          "admission.in_flight exceeds slots")
    check(require(adm, "queue_len", int, "admission")
          <= require(adm, "queue_depth", int, "admission"),
          "admission.queue_len exceeds queue_depth")
    require(adm, "per_client", int, "admission")
    require(adm, "admitted", int, "admission")
    rej = require(adm, "rejected", dict, "admission")
    causes = ("queue_full", "quota", "max_conns", "draining")
    total = require(rej, "total", int, "rejected")
    check(total == sum(require(rej, c, int, "rejected") for c in causes),
          "rejected.total is not the sum of its causes")
    for i, c in enumerate(require(doc, "clients", list, "stats")):
        ctx = f"clients[{i}]"
        require(c, "id", int, ctx)
        require(c, "addr", str, ctx)
        require(c, "queries", int, ctx)
        require(c, "running", int, ctx)
        check(require(c, "connected_s", NUM, ctx) >= 0,
              f"{ctx}.connected_s negative")
    qlog = require(doc, "qlog", dict, "stats")
    require(qlog, "enabled", bool, "qlog")
    for key in ("written", "dropped", "slow"):
        check(require(qlog, key, int, "qlog") >= 0, f"qlog.{key} negative")
    windows = require(doc, "windows", dict, "stats")
    hists = require(windows, "histograms", dict, "windows")
    n_windows = 0
    for name, per_window in hists.items():
        check(isinstance(per_window, dict), f"windows.{name} not an object")
        for w, stats in per_window.items():
            ctx = f"windows.{name}.{w}"
            check(w.endswith("s"), f"{ctx}: window key must be a duration")
            count = require(stats, "count", int, ctx)
            check(require(stats, "rate", NUM, ctx) >= 0, f"{ctx}.rate negative")
            p50 = require(stats, "p50", NUM, ctx)
            p99 = require(stats, "p99", NUM, ctx)
            p999 = require(stats, "p999", NUM, ctx)
            mx = require(stats, "max", NUM, ctx)
            if count > 0:
                check(p50 <= p99 <= p999 <= mx,
                      f"{ctx}: quantiles disordered "
                      f"({p50}, {p99}, {p999}, max {mx})")
            n_windows += 1
    for name, per_window in require(windows, "counters", dict, "windows").items():
        for w, stats in per_window.items():
            check(require(stats, "rate", NUM, f"windows.{name}.{w}") >= 0,
                  f"windows.{name}.{w}.rate negative")
    cum = require(doc, "cumulative", dict, "stats")
    require(cum, "counters", dict, "cumulative")
    require(cum, "histograms", dict, "cumulative")
    return (f"stats OK: proto {doc['proto']}, {len(doc['clients'])} client(s), "
            f"{len(hists)} windowed instrument(s) x {n_windows} window(s)")


def validate_qlog(path):
    timing = ("queue_ms", "plan_ms", "exec_ms", "encode_ms", "total_ms")
    seqs = set()
    slow = 0
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    check(records, "query log is empty")
    for i, r in enumerate(records):
        ctx = f"qlog[{i}]"
        seq = require(r, "seq", int, ctx)
        check(seq not in seqs, f"{ctx}: duplicate seq {seq}")
        seqs.add(seq)
        require(r, "client", int, ctx)
        require(r, "view", str, ctx)
        require(r, "plan", str, ctx)
        # Empty for a full materialization, the path text for a virtual-view
        # query (docs/VIRTUAL_VIEWS.md).
        require(r, "xpath", str, ctx)
        check(require(r, "format", str, ctx) in ("xml", "tuples"),
              f"{ctx}: unknown format {r['format']!r}")
        require(r, "shards", int, ctx)
        require(r, "streams", int, ctx)
        require(r, "cache_hit", bool, ctx)
        for key in timing:
            check(require(r, key, NUM, ctx) >= 0, f"{ctx}.{key} negative")
        check(r["total_ms"] + 1e-6 >=
              r["plan_ms"] + r["exec_ms"] + r["encode_ms"],
              f"{ctx}: phase breakdown exceeds total_ms")
        require(r, "rows", int, ctx)
        require(r, "bytes", int, ctx)
        outcome = require(r, "outcome", str, ctx)
        check(outcome in QLOG_OUTCOMES, f"{ctx}: unknown outcome {outcome!r}")
        require(r, "error", str, ctx)
        if outcome == "ok":
            check(not r["error"], f"{ctx}: ok record carries an error")
        if require(r, "slow", bool, ctx):
            slow += 1
        else:
            check("profile" not in r and "trace_file" not in r,
                  f"{ctx}: capture attached to a non-slow record")
        if "profile" in r:
            profile = require(r, "profile", list, ctx)
            check(len(profile) == r["streams"],
                  f"{ctx}: profile entries != streams")
            for p in profile:
                require(p, "sql", str, f"{ctx}.profile")
    return f"qlog OK: {len(records)} record(s), {slow} slow"


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in ("report", "trace", "bench",
                                                 "shard", "serve", "recost",
                                                 "xpath", "stats", "qlog"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, path = sys.argv[1], sys.argv[2]
    if mode == "qlog":
        # JSON Lines, not one document — parsed record by record.
        try:
            result = validate_qlog(path)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"cannot parse {path}: {e}")
        print(result)
        return 0
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")
    result = {"report": validate_report,
              "trace": validate_trace,
              "bench": validate_bench,
              "shard": validate_shard,
              "serve": validate_serve,
              "recost": validate_recost,
              "xpath": validate_xpath,
              "stats": validate_stats}[mode](doc)
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
