//! `silkroute` — command-line front end for the middle-ware pipeline.
//!
//! ```text
//! silkroute tree        [OPTS] VIEW     labeled view tree + derived DTD
//! silkroute sql         [OPTS] VIEW     the SQL queries a plan generates
//! silkroute materialize [OPTS] VIEW     write the XML document
//! silkroute query       [OPTS] VIEW     run an XPath over the virtual view
//! silkroute plan        [OPTS] VIEW     run the greedy planner (genPlan)
//! silkroute bench       [OPTS] VIEW     time the canonical plans
//! silkroute serve       [OPTS]          run the multi-client TCP front-end
//! silkroute client      [OPTS] VIEW     materialize a view over the wire
//! silkroute stats       [OPTS]          fetch a live telemetry snapshot
//! silkroute top         [OPTS]          refreshing terminal view of a server
//!
//! VIEW: a path to an RXL file, or the built-ins `query1` / `query2`.
//! OPTS: --mb <size>          TPC-H database size in MB   [default 0.5]
//!       --plan <spec>        unified | partitioned | outer-union | greedy
//!                            | edges:<bits>              [default greedy]
//!       --style <s>          outer-join | outer-union    [default outer-join]
//!       --no-reduce          disable view-tree reduction
//!       --xpath PATH         XPath over the virtual view: prune the view
//!                            tree to the subtrees the path touches and
//!                            push predicates into the component SQL
//!                            (query: required; client: optional). Grammar
//!                            and semantics in docs/VIRTUAL_VIEWS.md.
//!       --out <file>         write the document to a file (materialize,
//!                            query)
//!       --pretty             indent the XML output (materialize)
//!       --explain            print a per-stream cost table to stderr
//!                            (materialize)
//!       --metrics-json       print the cost report plus a metrics snapshot
//!                            as JSON to stdout; the XML goes to --out or is
//!                            discarded (materialize)
//!       --analyze            EXPLAIN ANALYZE every stream after the run:
//!                            annotated plan trees on stderr, and an
//!                            "analyze" section inside --metrics-json
//!                            (materialize)
//!       --trace FILE         record a Chrome trace-event timeline of the
//!                            whole pipeline to FILE (`-` for stdout; open
//!                            in Perfetto / chrome://tracing) (materialize)
//!       --fault SPEC         inject deterministic faults into the server:
//!                            comma-separated `kind@site[#n|%p]` rules, e.g.
//!                            `panic@scan#2` or `transient@send%0.5`
//!                            (kinds: panic|delay<ms>|transient; sites:
//!                            scan|encode|send). Also honours the
//!                            SR_FAULTS / SR_FAULT_SEED environment.
//!       --fault-seed N       PRNG seed for probabilistic --fault rules
//!                            [default 0]
//!       --retries N          transient-failure retries per query
//!                            [default 2]
//!       --fragment-cache B   keep completed component-query results (wire
//!                            bytes) in a B-byte LRU cache and serve repeats
//!                            without re-execution; 0 disables. Flushed
//!                            whenever the catalog changes. See
//!                            docs/CACHING.md.  [default 0]
//!       --listen ADDR        bind address (serve)   [default 127.0.0.1:4722]
//!       --connect ADDR       server address (client) [default 127.0.0.1:4722]
//!       --slots N            concurrent queries across all clients (serve)
//!                            [default: available parallelism]
//!       --per-client N       concurrent queries per connection (serve)
//!       --queue-depth N      admission wait-queue bound (serve)
//!       --max-conns N        simultaneous connections (serve) [default 64]
//!       --read-timeout-ms N  mid-frame stall cutoff (serve)  [default 10000]
//!       --format xml|tuples  response encoding (client)      [default xml]
//!       --shutdown           ask the server to drain and stop (client; no
//!                            VIEW needed)
//!       --query-log FILE     write one JSONL record per request (serve);
//!                            schema in docs/OBSERVABILITY.md
//!       --slow-ms N          requests taking ≥ N ms get an EXPLAIN ANALYZE
//!                            profile and a Chrome trace file attached to
//!                            their query-log record (serve; needs
//!                            --query-log for the capture to land anywhere)
//!       --prom               render the snapshot as Prometheus text
//!                            exposition instead of JSON (stats)
//!       --interval-ms N      refresh period (top)            [default 1000]
//!       --iters N            stop after N refreshes (top; for scripts —
//!                            default runs until the server goes away)
//!
//! `serve` registers the paper's `query1` / `query2` as named views and
//! accepts inline RXL; it honours --mb, --fault, --retries and
//! --fragment-cache for the engine it fronts, and runs until a client
//! sends SHUTDOWN.
//! With --metrics-json it prints a final metrics snapshot to stdout after
//! the graceful drain, so soak runs keep their end-state counters.
//! The wire protocol and admission semantics are in docs/SERVING.md;
//! the STATS snapshot and query-log schemas are in docs/OBSERVABILITY.md.
//!
//! Exactly one machine-readable document ever goes to stdout: the
//! `--metrics-json` report (which embeds `--analyze` output), the
//! `--trace -` timeline, the `stats` snapshot, or serve's final
//! `--metrics-json` snapshot. Human-readable tables always go to stderr,
//! so they compose with either.
//! ```

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use silkroute::{calibrated_params, gen_plan, run_plan, Oracle, PlanSpec, QueryStyle, Server};
use sr_serve::pipeline::resolve_view;
use sr_serve::{ViewCatalog, ViewRef};
use sr_sqlgen::generate_queries;
use sr_tpch::Scale;
use sr_viewtree::{EdgeSet, ViewTree};

struct Opts {
    command: String,
    view: String,
    mb: f64,
    plan: String,
    style: String,
    reduce: bool,
    xpath: Option<String>,
    out: Option<String>,
    pretty: bool,
    explain: bool,
    metrics_json: bool,
    analyze: bool,
    trace: Option<String>,
    fault: Option<String>,
    fault_seed: u64,
    retries: Option<u32>,
    fragment_cache: usize,
    listen: String,
    connect: String,
    slots: Option<usize>,
    per_client: Option<usize>,
    queue_depth: Option<usize>,
    max_conns: usize,
    read_timeout_ms: u64,
    format: String,
    shutdown: bool,
    query_log: Option<String>,
    slow_ms: Option<u64>,
    prom: bool,
    interval_ms: u64,
    iters: Option<u64>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: silkroute <tree|sql|materialize|query|plan|bench|serve|client|stats|top> [--mb N] \
         [--plan SPEC] [--style outer-join|outer-union] [--no-reduce] [--xpath PATH] [--out FILE] [--pretty] [--explain] \
         [--metrics-json] [--analyze] [--trace FILE] [--fault SPEC] [--fault-seed N] \
         [--retries N] [--fragment-cache BYTES] \
         [--listen ADDR] [--connect ADDR] \
         [--slots N] [--per-client N] [--queue-depth N] [--max-conns N] \
         [--read-timeout-ms N] [--format xml|tuples] [--shutdown] \
         [--query-log FILE] [--slow-ms N] [--prom] [--interval-ms N] [--iters N] \
         <VIEW|query1|query2>"
    );
    ExitCode::from(2)
}

/// The value after a flag, parsed; a missing or malformed one is a usage
/// error.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> Result<T, ExitCode> {
    args.next().and_then(|v| v.parse().ok()).ok_or_else(usage)
}

fn parse_args() -> Result<Opts, ExitCode> {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return Err(usage());
    };
    let mut opts = Opts {
        command,
        view: String::new(),
        mb: 0.5,
        plan: "greedy".into(),
        style: "outer-join".into(),
        reduce: true,
        xpath: None,
        out: None,
        pretty: false,
        explain: false,
        metrics_json: false,
        analyze: false,
        trace: None,
        fault: None,
        fault_seed: 0,
        retries: None,
        fragment_cache: 0,
        listen: "127.0.0.1:4722".into(),
        connect: "127.0.0.1:4722".into(),
        slots: None,
        per_client: None,
        queue_depth: None,
        max_conns: 64,
        read_timeout_ms: 10_000,
        format: "xml".into(),
        shutdown: false,
        query_log: None,
        slow_ms: None,
        prom: false,
        interval_ms: 1000,
        iters: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--mb" => opts.mb = value(&mut args)?,
            "--plan" => opts.plan = value(&mut args)?,
            "--style" => opts.style = value(&mut args)?,
            "--no-reduce" => opts.reduce = false,
            "--xpath" => opts.xpath = Some(value(&mut args)?),
            "--out" => opts.out = Some(value(&mut args)?),
            "--pretty" => opts.pretty = true,
            "--explain" => opts.explain = true,
            "--metrics-json" => opts.metrics_json = true,
            "--analyze" => opts.analyze = true,
            "--trace" => opts.trace = Some(value(&mut args)?),
            "--fault" => opts.fault = Some(value(&mut args)?),
            "--fault-seed" => opts.fault_seed = value(&mut args)?,
            "--retries" => opts.retries = Some(value(&mut args)?),
            "--fragment-cache" => opts.fragment_cache = value(&mut args)?,
            "--listen" => opts.listen = value(&mut args)?,
            "--connect" => opts.connect = value(&mut args)?,
            "--slots" => opts.slots = Some(value(&mut args)?),
            "--per-client" => opts.per_client = Some(value(&mut args)?),
            "--queue-depth" => opts.queue_depth = Some(value(&mut args)?),
            "--max-conns" => opts.max_conns = value(&mut args)?,
            "--read-timeout-ms" => opts.read_timeout_ms = value(&mut args)?,
            "--format" => opts.format = value(&mut args)?,
            "--shutdown" => opts.shutdown = true,
            "--query-log" => opts.query_log = Some(value(&mut args)?),
            "--slow-ms" => opts.slow_ms = Some(value(&mut args)?),
            "--prom" => opts.prom = true,
            "--interval-ms" => opts.interval_ms = value(&mut args)?,
            "--iters" => opts.iters = Some(value(&mut args)?),
            other if !other.starts_with('-') && opts.view.is_empty() => {
                opts.view = other.to_string();
            }
            other => {
                eprintln!("unknown argument: {other}");
                return Err(usage());
            }
        }
    }
    // `serve` runs without a view (it registers the built-ins), a bare
    // `client --shutdown` only sends the drain request, and `stats`/`top`
    // are pure telemetry consumers.
    let view_optional = matches!(opts.command.as_str(), "serve" | "stats" | "top")
        || (opts.command == "client" && opts.shutdown);
    if opts.view.is_empty() && !view_optional {
        return Err(usage());
    }
    Ok(opts)
}

/// Where the document goes: `--out`, else stdout — or nowhere when stdout
/// carries a JSON report instead.
fn sink(opts: &Opts, discard: bool) -> Result<Box<dyn std::io::Write>, String> {
    Ok(match &opts.out {
        Some(path) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?,
        )),
        None if discard => Box::new(std::io::sink()),
        None => Box::new(std::io::stdout().lock()),
    })
}

/// The named views: the paper's `query1` and `query2`.
fn catalog(db: &sr_data::Database) -> ViewCatalog {
    let mut catalog = ViewCatalog::new();
    catalog.insert("query1", silkroute::query1_tree(db));
    catalog.insert("query2", silkroute::query2_tree(db));
    catalog
}

/// VIEW as a request would name it: a built-in, or the RXL source at a path.
fn view_ref(view: &str) -> Result<ViewRef, String> {
    match view {
        "query1" | "query2" => Ok(ViewRef::Named(view.into())),
        path => std::fs::read_to_string(path)
            .map(ViewRef::Rxl)
            .map_err(|e| format!("cannot read {path}: {e}")),
    }
}

/// Resolve a plan-spec string with the grammar the wire shares; `greedy`
/// runs genPlan against a fresh oracle.
fn resolve_plan(
    plan: &str,
    opts: &Opts,
    tree: &ViewTree,
    server: &Server,
) -> Result<PlanSpec, String> {
    let style = match opts.style.as_str() {
        "outer-join" => QueryStyle::OuterJoin,
        "outer-union" => QueryStyle::OuterUnion,
        other => return Err(format!("unknown style: {other}")),
    };
    if let Some(spec) = PlanSpec::parse(tree, plan, opts.reduce, style)? {
        return Ok(spec);
    }
    let oracle = Oracle::new(server, calibrated_params(Scale::mb(opts.mb)));
    let r = gen_plan(tree, server.database(), &oracle, opts.reduce)
        .map_err(|e| format!("genPlan failed: {e}"))?;
    Ok(PlanSpec {
        edges: r.recommended(),
        reduce: opts.reduce,
        style,
    })
}

fn run_serve(opts: &Opts, server: Server) -> Result<(), String> {
    let engine = Arc::new(server);
    let catalog = catalog(engine.database());
    let mut admit = sr_serve::AdmitConfig::default();
    if let Some(s) = opts.slots {
        admit.slots = s;
    }
    if let Some(p) = opts.per_client {
        admit.per_client = p;
    }
    if let Some(q) = opts.queue_depth {
        admit.queue_depth = q;
    }
    let cfg = sr_serve::ServeConfig {
        addr: opts.listen.clone(),
        admit,
        max_connections: opts.max_conns,
        read_timeout: std::time::Duration::from_millis(opts.read_timeout_ms),
        query_log: opts.query_log.as_ref().map(std::path::PathBuf::from),
        slow_ms: opts.slow_ms,
    };
    if opts.slow_ms.is_some() && opts.query_log.is_none() {
        eprintln!("note: --slow-ms without --query-log only counts slow queries (serve.slow)");
    }
    let metrics = Arc::clone(engine.metrics());
    let handle = sr_serve::serve(engine, catalog, cfg).map_err(|e| e.to_string())?;
    let admit = handle.admission().config();
    eprintln!(
        "serving query1/query2 on {} (slots {}, per-client {}, queue {}, \
         max-conns {}); stop with `silkroute client --shutdown`",
        handle.local_addr(),
        admit.slots,
        admit.per_client,
        admit.queue_depth,
        opts.max_conns
    );
    handle.wait();
    if opts.metrics_json {
        // Same shape as materialize's `metrics` section: the end-state
        // counters a soak run would otherwise lose at shutdown.
        println!(
            "{}",
            sr_obs::Json::obj(vec![("metrics", metrics.snapshot().to_json_value())])
                .render_pretty()
        );
    }
    eprintln!("server drained, exiting");
    Ok(())
}

fn run_stats(opts: &Opts) -> Result<(), String> {
    let mut client = sr_serve::Client::connect(&opts.connect)
        .map_err(|e| format!("cannot connect to {}: {e}", opts.connect))?;
    let text = client.stats().map_err(|e| e.to_string())?;
    let json = sr_obs::Json::parse(&text).map_err(|e| format!("bad STATS payload: {e}"))?;
    if opts.prom {
        print!("{}", sr_serve::prometheus_text(&json));
    } else {
        println!("{}", json.render_pretty());
    }
    Ok(())
}

/// `f64` at a dotted path inside the snapshot, or 0.
fn jnum(j: &sr_obs::Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for key in path {
        match cur.get(key) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// One refresh of the `top` view, written to stdout.
fn render_top(j: &sr_obs::Json, connect: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let win =
        |w: &str, field: &str| jnum(j, &["windows", "histograms", "serve.request_us", w, field]);
    let draining = matches!(j.get("draining"), Some(sr_obs::Json::Bool(true)));
    let _ = writeln!(
        out,
        "silkroute top — {connect} — up {:.1}s{}",
        jnum(j, &["uptime_s"]),
        if draining { "  [DRAINING]" } else { "" }
    );
    let _ = writeln!(
        out,
        "qps 1s/10s/60s: {:.1} / {:.1} / {:.1}    in-flight {}  queue {}  conns {}/{}",
        win("1s", "rate"),
        win("10s", "rate"),
        win("60s", "rate"),
        jnum(j, &["admission", "in_flight"]),
        jnum(j, &["admission", "queue_len"]),
        jnum(j, &["connections", "active"]),
        jnum(j, &["connections", "max"]),
    );
    let _ = writeln!(
        out,
        "latency ms (10s): p50 {:.2}  p99 {:.2}  p999 {:.2}   rows/s {:.0}  KiB/s {:.0}",
        win("10s", "p50") / 1e3,
        win("10s", "p99") / 1e3,
        win("10s", "p999") / 1e3,
        jnum(j, &["windows", "counters", "serve.rows", "10s", "rate"]),
        jnum(j, &["windows", "counters", "serve.bytes", "10s", "rate"]) / 1024.0,
    );
    let _ = writeln!(
        out,
        "rejected: total {} (queue_full {}, quota {}, max_conns {}, draining {})   \
         qlog: written {} dropped {} slow {}",
        jnum(j, &["admission", "rejected", "total"]),
        jnum(j, &["admission", "rejected", "queue_full"]),
        jnum(j, &["admission", "rejected", "quota"]),
        jnum(j, &["admission", "rejected", "max_conns"]),
        jnum(j, &["admission", "rejected", "draining"]),
        jnum(j, &["qlog", "written"]),
        jnum(j, &["qlog", "dropped"]),
        jnum(j, &["qlog", "slow"]),
    );
    let _ = writeln!(
        out,
        "\n{:>8} {:<22} {:>7} {:>8} {:>11}",
        "client", "addr", "running", "queries", "connected"
    );
    if let Some(sr_obs::Json::Arr(clients)) = j.get("clients") {
        for c in clients {
            let _ = writeln!(
                out,
                "{:>8} {:<22} {:>7} {:>8} {:>10.1}s",
                jnum(c, &["id"]),
                c.get("addr").and_then(|v| v.as_str()).unwrap_or("?"),
                jnum(c, &["running"]),
                jnum(c, &["queries"]),
                jnum(c, &["connected_s"]),
            );
        }
    }
    out
}

fn run_top(opts: &Opts) -> Result<(), String> {
    let mut client = sr_serve::Client::connect(&opts.connect)
        .map_err(|e| format!("cannot connect to {}: {e}", opts.connect))?;
    let mut shown = 0u64;
    loop {
        let text = client.stats().map_err(|e| e.to_string())?;
        let json = sr_obs::Json::parse(&text).map_err(|e| format!("bad STATS payload: {e}"))?;
        let mut out = std::io::stdout().lock();
        if shown > 0 {
            // Clear and home between refreshes; a single --iters 1 poll
            // stays free of control sequences for scripts.
            let _ = out.write_all(b"\x1b[2J\x1b[H");
        }
        let _ = out.write_all(render_top(&json, &opts.connect).as_bytes());
        let _ = out.flush();
        drop(out);
        shown += 1;
        if let Some(n) = opts.iters {
            if shown >= n {
                return Ok(());
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms.max(50)));
    }
}

fn run_client(opts: &Opts) -> Result<(), String> {
    let fmt = |e: sr_serve::ClientError| e.to_string();
    let mut client = sr_serve::Client::connect(&opts.connect)
        .map_err(|e| format!("cannot connect to {}: {e}", opts.connect))?;
    if opts.shutdown {
        client.shutdown_server().map_err(fmt)?;
        eprintln!("server acknowledged shutdown");
        return Ok(());
    }
    let view = view_ref(&opts.view)?;
    let format = match opts.format.as_str() {
        "xml" => sr_serve::Format::Xml,
        "tuples" => sr_serve::Format::Tuples,
        other => return Err(format!("unknown --format: {other}")),
    };
    // `greedy` goes over the wire as-is: the server plans it through its
    // shared re-coster, so repeated requests benefit from learned actuals.
    // An --xpath rides along and is composed server-side against the view.
    let result = client
        .query_with_xpath(format, view, opts.plan.as_str(), opts.xpath.as_deref())
        .map_err(fmt)?;
    match format {
        sr_serve::Format::Xml => match &opts.out {
            Some(path) => {
                std::fs::write(path, &result.document).map_err(|e| e.to_string())?;
            }
            None => {
                let mut out = std::io::stdout().lock();
                out.write_all(&result.document).map_err(|e| e.to_string())?;
            }
        },
        sr_serve::Format::Tuples => {
            for (i, bytes) in result.streams.iter().enumerate() {
                eprintln!("stream {}: {} wire byte(s)", i + 1, bytes.len());
            }
            if let Some(path) = &opts.out {
                // Concatenated wire encoding, stream order preserved.
                let mut f =
                    std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?;
                for bytes in &result.streams {
                    f.write_all(bytes).map_err(|e| e.to_string())?;
                }
            }
        }
    }
    let s = result.stats;
    eprintln!(
        "done: {} tuple(s), {} element(s), {} byte(s) over {} stream(s) in {:.1} ms",
        s.tuples,
        s.elements,
        s.bytes,
        s.streams,
        s.elapsed_us as f64 / 1e3
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let opts = parse_args().map_err(|_| String::new())?;
    let metrics_json_ok = matches!(opts.command.as_str(), "materialize" | "serve");
    if (opts.metrics_json && !metrics_json_ok)
        || (opts.command != "materialize" && (opts.analyze || opts.trace.is_some()))
    {
        return Err(format!(
            "--metrics-json applies to `materialize` and `serve`; --analyze and --trace \
             only to `materialize`, not `{}`",
            opts.command
        ));
    }
    if opts.trace.as_deref() == Some("-") {
        // Stdout carries at most one machine-readable document.
        if opts.metrics_json {
            return Err(
                "--trace - and --metrics-json both claim stdout; write the trace to a file".into(),
            );
        }
        if opts.out.is_none() {
            return Err("--trace - requires --out so the XML document leaves stdout free".into());
        }
    }
    match opts.command.as_str() {
        // Pure network clients: no local database, no engine.
        "client" => return run_client(&opts),
        "stats" => return run_stats(&opts),
        "top" => return run_top(&opts),
        _ => {}
    }
    let db = sr_tpch::generate(Scale::mb(opts.mb)).map_err(|e| e.to_string())?;
    let tracer = opts.trace.as_ref().map(|_| Arc::new(sr_obs::Tracer::new()));
    let mut server = Server::new(Arc::new(db));
    if let Some(t) = &tracer {
        server = server.with_tracer(Arc::clone(t));
    }
    // Fault injection: the --fault flag wins; otherwise SR_FAULTS applies,
    // so the CI fault matrix can drive any command without flag plumbing.
    let fault_plan = match &opts.fault {
        Some(spec) => Some(
            sr_engine::FaultPlan::parse(spec, opts.fault_seed)
                .map_err(|e| format!("bad --fault: {e}"))?,
        ),
        None => sr_engine::FaultPlan::from_env().map_err(|e| format!("bad SR_FAULTS: {e}"))?,
    };
    if let Some(plan) = fault_plan {
        server = server.with_faults(plan);
    }
    if let Some(r) = opts.retries {
        server = server.with_transient_retries(r);
    }
    // Materialized-fragment cache: repeated materializations of the same
    // view serve their component-query results from memory, byte for byte.
    server = server.with_fragment_cache(opts.fragment_cache);
    if opts.command == "serve" {
        // The engine was configured by the shared flags above (--fault,
        // --retries, --fragment-cache); hand it to the front-end as-is.
        return run_serve(&opts, server);
    }
    let db = server.database();
    let tree = resolve_view(&catalog(db), db, &view_ref(&opts.view)?).map_err(|e| e.to_string())?;

    match opts.command.as_str() {
        "tree" => {
            println!(
                "view tree: {} nodes, {} edges, {} possible plans\n",
                tree.nodes.len(),
                tree.edge_count(),
                1u64 << tree.edge_count()
            );
            print!("{}", tree.render());
            println!("\nderived DTD:\n{}", sr_viewtree::to_dtd(&tree));
        }
        "sql" => {
            let spec = resolve_plan(&opts.plan, &opts, &tree, &server)?;
            let queries =
                generate_queries(&tree, server.database(), spec).map_err(|e| e.to_string())?;
            println!(
                "plan edges={} reduce={} → {} SQL quer{}:\n",
                spec.edges,
                spec.reduce,
                queries.len(),
                if queries.len() == 1 { "y" } else { "ies" }
            );
            for (i, q) in queries.iter().enumerate() {
                println!(
                    "-- stream {} (component {}):\n{}",
                    i + 1,
                    tree.node(q.component.root).skolem_name(),
                    q.sql
                );
                match server.estimate_sql(&q.sql) {
                    Ok(est) => println!(
                        "-- estimate: {:.0} rows, {:.0} eval units, {:.0} bytes\n",
                        est.cardinality,
                        est.eval_cost,
                        est.data_size()
                    ),
                    Err(e) => println!("-- estimate unavailable: {e}\n"),
                }
            }
        }
        "materialize" => {
            let spec = resolve_plan(&opts.plan, &opts, &tree, &server)?;
            // With --metrics-json the JSON report owns stdout; the document
            // goes to --out or is discarded.
            let sink = sink(&opts, opts.metrics_json)?;
            let (m, mut sink) = if opts.pretty {
                silkroute::materialize_pretty(&tree, &server, spec, sink)
            } else {
                silkroute::materialize(&tree, &server, spec, sink)
            }
            .map_err(|e| e.to_string())?;
            let _ = sink.flush();
            // EXPLAIN ANALYZE runs before any metrics snapshot so the
            // `oracle.qerror` feedback it records is part of the report.
            let mut analyses = Vec::new();
            if opts.analyze {
                let oracle = Oracle::new(&server, calibrated_params(Scale::mb(opts.mb)));
                for (i, sql) in m.sql.iter().enumerate() {
                    oracle.estimate_sql(sql).map_err(|e| e.to_string())?;
                    let analysis = server.explain_analyze(sql).map_err(|e| e.to_string())?;
                    eprint!("\n-- stream {}:\n{}", i + 1, analysis.render());
                    oracle.record_actual(sql, m.report.streams[i].rows);
                    analyses.push(analysis);
                }
                if let Some((sql, q)) = oracle.worst_qerror() {
                    eprintln!("\nworst stream-level q-error: {q:.2} for {sql}");
                }
            }
            if opts.metrics_json {
                let mut json = m.report.to_json();
                if let sr_obs::Json::Obj(fields) = &mut json {
                    if opts.analyze {
                        fields.push((
                            "analyze".to_string(),
                            sr_obs::Json::Arr(analyses.iter().map(|a| a.to_json()).collect()),
                        ));
                    }
                    fields.push((
                        "metrics".to_string(),
                        server.metrics().snapshot().to_json_value(),
                    ));
                }
                println!("{}", json.render_pretty());
            }
            if let (Some(path), Some(t)) = (&opts.trace, &tracer) {
                let rendered = t.to_chrome_json().render();
                if path == "-" {
                    println!("{rendered}");
                } else {
                    std::fs::write(path, rendered + "\n").map_err(|e| e.to_string())?;
                }
            }
            if opts.explain {
                eprint!("\n{}", m.report.render_explain());
            }
            if !opts.metrics_json && !opts.explain && !opts.analyze {
                eprintln!(
                    "\nmaterialized {} elements / {} bytes from {} tuple(s) over {} stream(s)",
                    m.stats.elements, m.stats.bytes, m.stats.tuples, m.streams
                );
            }
        }
        "query" => {
            let xpath = opts
                .xpath
                .as_deref()
                .ok_or("`query` needs --xpath <path> (e.g. --xpath '/supplier/name')")?;
            // Catch bad --plan / --style input before any SQL runs; the
            // closure below re-resolves against the *pruned* tree, whose
            // edge set is what the plan actually partitions.
            resolve_plan(&opts.plan, &opts, &tree, &server)?;
            let (outcome, mut sink) = silkroute::query_view(
                &tree,
                &server,
                xpath,
                |pruned| {
                    resolve_plan(&opts.plan, &opts, pruned, &server).unwrap_or_else(|e| {
                        eprintln!("note: planning the pruned tree failed ({e}); using unified");
                        PlanSpec {
                            edges: EdgeSet::full(pruned),
                            reduce: opts.reduce,
                            style: QueryStyle::OuterJoin,
                        }
                    })
                },
                sink(&opts, false)?,
            )
            .map_err(|e| e.to_string())?;
            sink.flush().map_err(|e| e.to_string())?;
            match &outcome.materialization {
                Some(m) => {
                    if opts.explain {
                        eprint!("\n{}", m.report.render_explain());
                    }
                    eprintln!(
                        "\nxpath {xpath}: pruned {} of {} view node(s); \
                         {} element(s) / {} byte(s) from {} tuple(s) over {} stream(s)",
                        outcome.pruned_nodes,
                        outcome.pruned_nodes + outcome.retained_nodes,
                        m.stats.elements,
                        m.stats.bytes,
                        m.stats.tuples,
                        m.streams
                    );
                }
                None => eprintln!(
                    "\nxpath {xpath}: statically empty — all {} view node(s) pruned, \
                     no SQL executed",
                    outcome.pruned_nodes
                ),
            }
        }
        "plan" => {
            let oracle = Oracle::new(&server, calibrated_params(Scale::mb(opts.mb)));
            let r = gen_plan(&tree, server.database(), &oracle, opts.reduce)
                .map_err(|e| e.to_string())?;
            println!("genPlan (reduce={}):", opts.reduce);
            for c in &r.trace {
                println!(
                    "  picked edge {} ({} → <{}>): relative cost {:.0} [{}]",
                    c.edge,
                    tree.node(c.edge).skolem_name(),
                    tree.node(c.edge).tag,
                    c.relative_cost,
                    if c.mandatory { "mandatory" } else { "optional" }
                );
            }
            println!(
                "\nmandatory={} optional={} → {} plans; recommended edges={}",
                r.mandatory,
                r.optional,
                r.plans().len(),
                r.recommended()
            );
            println!(
                "oracle requests: {} distinct of {} evaluations (worst case |E|² = {}), \
                 {:.2} ms estimating",
                r.oracle_requests,
                r.oracle_evaluations,
                tree.edge_count() * tree.edge_count(),
                r.oracle_time.as_secs_f64() * 1e3
            );
        }
        "bench" => {
            let labels = [opts.plan.as_str(), "unified", "outer-union", "partitioned"];
            let specs = labels
                .iter()
                .map(|label| resolve_plan(label, &opts, &tree, &server))
                .collect::<Result<Vec<_>, _>>()?;
            println!(
                "{:>14} {:>8} {:>12} {:>11} {:>10} {:>12} {:>10}",
                "plan", "streams", "query (ms)", "xfer (ms)", "tag (ms)", "total (ms)", "tuples"
            );
            for (label, spec) in labels.into_iter().zip(specs) {
                let m = run_plan(&tree, &server, spec, None).map_err(|e| e.to_string())?;
                println!(
                    "{label:>14} {:>8} {:>12.1} {:>11.1} {:>10.1} {:>12.1} {:>10}",
                    m.streams, m.query_ms, m.transfer_ms, m.tag_ms, m.total_ms, m.tuples
                );
            }
        }
        other => {
            return Err(format!("unknown command: {other}"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            ExitCode::FAILURE
        }
    }
}
