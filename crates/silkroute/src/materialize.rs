//! End-to-end materialization: RXL view + plan → SQL → server → tagger →
//! XML document.
//!
//! This is the full middle-ware loop of the paper's Fig. 7: partition the
//! view tree, generate one SQL *string* per component, ship each to the
//! server, read back the sorted tuple streams, and merge + tag them into
//! the document.

use std::io::Write;
use std::time::{Duration, Instant};

use sr_engine::{EngineError, Server, TupleStream};
use sr_obs::TraceSpan;
use sr_sqlgen::{generate_queries, PlanSpec};
use sr_tagger::{tag_streams_traced, RowSource, StreamInput, TagError, TagStats};
use sr_viewtree::ViewTree;

use crate::report::MaterializeReport;

/// Result of a materialization.
#[derive(Debug, Clone)]
pub struct Materialization {
    /// Number of SQL queries / tuple streams.
    pub streams: usize,
    /// The SQL text of each stream, in stream order.
    pub sql: Vec<String>,
    /// Tagger statistics (tuples, elements, bytes, peak stack).
    pub stats: TagStats,
    /// Per-stream and total cost breakdown (the paper's §4 decomposition).
    pub report: MaterializeReport,
}

/// Shared tail of every materialization: tag the streams, then assemble
/// statistics and the cost report.
#[allow(clippy::too_many_arguments)]
fn tag_and_report<W: Write>(
    tree: &ViewTree,
    server: &Server,
    sql: Vec<String>,
    inputs: Vec<StreamInput>,
    out: W,
    start: Instant,
    plan_time: std::time::Duration,
    parallel: bool,
) -> Result<(Materialization, W), TagError> {
    let streams = inputs.len();
    let tag_start = Instant::now();
    let tracer = server.tracer().map(|t| t.as_ref());
    let (stats, out) = tag_streams_traced(tree, inputs, out, false, tracer)?;
    let tag_wall = tag_start.elapsed();
    let report = MaterializeReport::assemble(
        &sql,
        &stats,
        plan_time,
        tag_wall,
        start.elapsed(),
        parallel,
        server.shards(),
    );
    Ok((
        Materialization {
            streams,
            sql,
            stats,
            report,
        },
        out,
    ))
}

/// How the component SQL queries are executed against the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Submit {
    /// Pipelined: every query is submitted immediately via
    /// [`Server::execute_sql_streaming`], so server-side execution and
    /// encoding overlap with client-side decode + tagging.
    Streaming,
    /// Sequential: each query runs to completion via
    /// [`Server::execute_sql`] before the next is submitted. Kept for
    /// apples-to-apples cost decomposition (per-stream server times are
    /// disjoint wall-clock intervals).
    Buffered,
}

/// Shared head of every materialization: generate the component queries and
/// turn each into a tagger [`StreamInput`] under the chosen execution mode.
/// Submission-time retries of transient server failures, layered on top of
/// the server's own execute-level retry budget: a component query that
/// still fails transiently is resubmitted from scratch rather than failing
/// the whole document. Each resubmission backs off and bumps
/// `materialize.retries`.
const SUBMIT_RETRIES: u32 = 1;

fn submit_with_retry(server: &Server, sql: &str, mode: Submit) -> Result<TupleStream, EngineError> {
    let submitted = Instant::now();
    let mut attempt = 0u32;
    loop {
        let result = match mode {
            Submit::Streaming => server.execute_sql_streaming(sql),
            Submit::Buffered => server.execute_sql(sql),
        };
        match result {
            Err(EngineError::Transient(_)) if attempt < SUBMIT_RETRIES => {
                attempt += 1;
                let backoff = Duration::from_millis(1 << attempt.min(6));
                // A resubmission must respect the server's deadline just as
                // the server's own execute-level retries do: if sleeping the
                // backoff would run past it, surface the timeout now rather
                // than burning a retry on a query that can no longer finish.
                if let Some(limit) = server.timeout {
                    let elapsed = submitted.elapsed();
                    if elapsed + backoff >= limit {
                        return Err(EngineError::Timeout {
                            elapsed_ms: elapsed.as_millis() as u64,
                            limit_ms: limit.as_millis() as u64,
                        });
                    }
                }
                server.metrics().counter("materialize.retries").inc();
                std::thread::sleep(backoff);
            }
            other => return other,
        }
    }
}

fn run_pipeline<W: Write>(
    tree: &ViewTree,
    server: &Server,
    queries: Vec<sr_sqlgen::GeneratedQuery>,
    out: W,
    start: Instant,
    plan_time: std::time::Duration,
    mode: Submit,
) -> Result<(Materialization, W), TagError> {
    let mut sql = Vec::with_capacity(queries.len());
    let mut inputs = Vec::with_capacity(queries.len());
    for (i, q) in queries.into_iter().enumerate() {
        let mut stream = submit_with_retry(server, &q.sql, mode)?;
        if let Some(tracer) = server.tracer() {
            stream.set_trace(tracer, &i.to_string());
        }
        sql.push(q.sql);
        inputs.push(StreamInput {
            schema: stream.schema.clone(),
            rows: RowSource::Stream(Box::new(stream)),
            reduced: q.reduced,
        });
    }
    let parallel = mode == Submit::Streaming;
    tag_and_report(tree, server, sql, inputs, out, start, plan_time, parallel)
}

/// Materialize a view into `out` using the given plan.
///
/// Execution is **pipelined** (the default since the streaming executor
/// landed): every component query is submitted up front and runs on its own
/// server worker, while the tagger consumes the resulting tuple streams in
/// document order as chunks arrive. Use [`materialize_buffered`] to force
/// the old run-to-completion-per-stream behaviour.
pub fn materialize<W: Write>(
    tree: &ViewTree,
    server: &Server,
    spec: PlanSpec,
    out: W,
) -> Result<(Materialization, W), TagError> {
    let start = Instant::now();
    let queries = {
        let _s = TraceSpan::new(server.tracer().map(|t| t.as_ref()), "plan.generate");
        generate_queries(tree, server.database(), spec)?
    };
    let plan_time = start.elapsed();
    run_pipeline(
        tree,
        server,
        queries,
        out,
        start,
        plan_time,
        Submit::Streaming,
    )
}

/// Materialize a view with each SQL query executed sequentially and fully
/// buffered before the next is submitted — the pre-pipelining behaviour.
/// Per-stream server times are disjoint wall-clock intervals under this
/// mode, which the cost-decomposition reports rely on.
pub fn materialize_buffered<W: Write>(
    tree: &ViewTree,
    server: &Server,
    spec: PlanSpec,
    out: W,
) -> Result<(Materialization, W), TagError> {
    let start = Instant::now();
    let queries = {
        let _s = TraceSpan::new(server.tracer().map(|t| t.as_ref()), "plan.generate");
        generate_queries(tree, server.database(), spec)?
    };
    let plan_time = start.elapsed();
    run_pipeline(
        tree,
        server,
        queries,
        out,
        start,
        plan_time,
        Submit::Buffered,
    )
}

/// Materialize a view with all SQL queries executed **concurrently**, one
/// server worker per stream — the middle-ware client opening several
/// connections at once. Since pipelined execution became the default this
/// is equivalent to [`materialize`]: submitting every streaming query up
/// front already overlaps all server-side work with tagging.
pub fn materialize_parallel<W: Write>(
    tree: &ViewTree,
    server: &Server,
    spec: PlanSpec,
    out: W,
) -> Result<(Materialization, W), TagError> {
    materialize(tree, server, spec, out)
}

/// Materialize only the **fragment** of the view under root elements whose
/// key variables equal the given values (paper §7: "a user query requests
/// only a subset of the XML view, and the result document is small"). The
/// filter is applied inside every component query and pushed down to base
/// scans by the server.
pub fn materialize_fragment<W: Write>(
    tree: &ViewTree,
    server: &Server,
    spec: PlanSpec,
    root_filter: &[(sr_viewtree::VarId, sr_data::Value)],
    out: W,
) -> Result<(Materialization, W), TagError> {
    let start = Instant::now();
    let queries = {
        let _s = TraceSpan::new(server.tracer().map(|t| t.as_ref()), "plan.generate");
        sr_sqlgen::generate_queries_filtered(tree, server.database(), spec, root_filter)?
    };
    let plan_time = start.elapsed();
    run_pipeline(
        tree,
        server,
        queries,
        out,
        start,
        plan_time,
        Submit::Streaming,
    )
}

/// Materialize into a `String` (convenience for tests and examples).
pub fn materialize_to_string(
    tree: &ViewTree,
    server: &Server,
    spec: PlanSpec,
) -> Result<(Materialization, String), TagError> {
    let (m, bytes) = materialize(tree, server, spec, Vec::new())?;
    let s = String::from_utf8(bytes)
        .map_err(|e| TagError::Structure(format!("non-utf8 output: {e}")))?;
    Ok((m, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{query1_tree, query2_tree};
    use sr_sqlgen::QueryStyle;
    use sr_tpch::{generate, Scale};
    use sr_viewtree::EdgeSet;
    use std::sync::Arc;

    fn server() -> Server {
        Server::new(Arc::new(generate(Scale::mb(0.1)).unwrap()))
    }

    #[test]
    fn transient_submission_failure_is_retried_at_materialize_layer() {
        // The server's own execute-level retry budget is zeroed, so the
        // first submission fails transiently and the materialize layer's
        // resubmission is what saves the document.
        let server = server()
            .with_transient_retries(0)
            .with_faults(sr_engine::FaultPlan::parse("transient@scan#1", 1).unwrap());
        let tree = query1_tree(server.database());
        // Buffered mode surfaces execution errors synchronously at
        // submission, which is where this layer's retry lives. (Streaming
        // submissions hand back a channel; their transients are retried
        // inside the server worker instead.)
        let (m, bytes) =
            materialize_buffered(&tree, &server, PlanSpec::unified(&tree), Vec::new()).unwrap();
        let xml = String::from_utf8(bytes).unwrap();
        assert_eq!(m.streams, 1);
        assert!(xml.starts_with("<supplier>"));
        let snap = server.metrics().snapshot();
        assert_eq!(snap.counter("materialize.retries"), 1);
        assert_eq!(snap.counter("server.retries"), 0);
    }

    #[test]
    fn resubmission_respects_server_deadline() {
        // The deadline (1ms) is shorter than the first backoff (2ms): the
        // materialize layer must refuse to sleep-and-resubmit past the
        // server's deadline and surface the timeout instead of burning the
        // retry on a query that can no longer finish in time.
        let server = server()
            .with_transient_retries(0)
            .with_timeout(Duration::from_millis(1))
            .with_faults(sr_engine::FaultPlan::parse("transient@scan#1", 1).unwrap());
        let tree = query1_tree(server.database());
        let err =
            materialize_buffered(&tree, &server, PlanSpec::unified(&tree), Vec::new()).unwrap_err();
        match err {
            TagError::Engine(EngineError::Timeout { limit_ms, .. }) => assert_eq!(limit_ms, 1),
            other => panic!("expected timeout, got {other}"),
        }
        let snap = server.metrics().snapshot();
        assert_eq!(snap.counter("materialize.retries"), 0, "retry not burned");
    }

    #[test]
    fn query1_materializes_under_default_plans() {
        let server = server();
        let tree = query1_tree(server.database());
        let (unified, xml_u) =
            materialize_to_string(&tree, &server, PlanSpec::unified(&tree)).unwrap();
        assert_eq!(unified.streams, 1);
        let (part, xml_p) =
            materialize_to_string(&tree, &server, PlanSpec::fully_partitioned()).unwrap();
        assert_eq!(part.streams, 10);
        assert_eq!(xml_u, xml_p, "unified and fully partitioned agree");
        assert!(xml_u.starts_with("<supplier>"));
        assert!(xml_u.contains("<order>"));
        assert!(xml_u.contains("<region>"));
        assert!(
            unified.stats.max_open_depth <= tree.max_level(),
            "constant-space bound"
        );
    }

    #[test]
    fn query2_all_default_plans_agree() {
        let server = server();
        let tree = query2_tree(server.database());
        let mut outputs = Vec::new();
        for spec in [
            PlanSpec::unified(&tree),
            PlanSpec::fully_partitioned(),
            PlanSpec::sorted_outer_union(&tree),
            PlanSpec {
                edges: EdgeSet::full(&tree),
                reduce: false,
                style: QueryStyle::OuterJoin,
            },
        ] {
            let (_, xml) = materialize_to_string(&tree, &server, spec).unwrap();
            outputs.push(xml);
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn fragment_export_selects_one_supplier() {
        let server = server();
        let tree = query1_tree(server.database());
        let (_, full) = materialize_to_string(&tree, &server, PlanSpec::unified(&tree)).unwrap();
        // Filter on the root key suppkey = 3.
        let suppkey_var = tree.node(tree.root()).key_args[0];
        let filter = [(suppkey_var, sr_data::Value::Int(1))];
        for spec in [PlanSpec::unified(&tree), PlanSpec::fully_partitioned()] {
            let (m, bytes) =
                materialize_fragment(&tree, &server, spec, &filter, Vec::new()).unwrap();
            let fragment = String::from_utf8(bytes).unwrap();
            assert_eq!(fragment.matches("<supplier>").count(), 1);
            assert!(m.stats.tuples > 0);
            // The fragment is a contiguous substring of the full document
            // (one supplier element, with all its content).
            assert!(
                full.contains(&fragment),
                "fragment not found in full document"
            );
            // The generated SQL carries the filter.
            assert!(m.sql.iter().all(|s| s.contains("= 1")), "{:?}", m.sql);
        }
    }

    #[test]
    fn fragment_filter_on_non_root_key_rejected() {
        let server = server();
        let tree = query1_tree(server.database());
        // A non-root variable (e.g. partkey) must be rejected.
        let part_node = tree
            .nodes
            .iter()
            .find(|n| n.tag == "part")
            .expect("part node");
        let partkey = *part_node.key_args.last().unwrap();
        let err = sr_sqlgen::generate_queries_filtered(
            &tree,
            server.database(),
            PlanSpec::unified(&tree),
            &[(partkey, sr_data::Value::Int(1))],
        )
        .unwrap_err();
        assert!(err.to_string().contains("not a root key"), "{err}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let server = server();
        let tree = query1_tree(server.database());
        for spec in [PlanSpec::fully_partitioned(), PlanSpec::unified(&tree)] {
            let (seq_info, seq) = materialize_to_string(&tree, &server, spec).unwrap();
            let (par_info, par_bytes) =
                materialize_parallel(&tree, &server, spec, Vec::new()).unwrap();
            let par = String::from_utf8(par_bytes).unwrap();
            assert_eq!(seq, par);
            assert_eq!(seq_info.streams, par_info.streams);
            assert_eq!(seq_info.stats.tuples, par_info.stats.tuples);
        }
    }

    #[test]
    fn streaming_default_matches_buffered() {
        let server = server();
        for tree in [
            query1_tree(server.database()),
            query2_tree(server.database()),
        ] {
            for spec in [PlanSpec::unified(&tree), PlanSpec::fully_partitioned()] {
                let (s_info, s_bytes) = materialize(&tree, &server, spec, Vec::new()).unwrap();
                let (b_info, b_bytes) =
                    materialize_buffered(&tree, &server, spec, Vec::new()).unwrap();
                assert_eq!(s_bytes, b_bytes, "pipelined output is byte-identical");
                assert_eq!(s_info.streams, b_info.streams);
                assert_eq!(s_info.stats.tuples, b_info.stats.tuples);
                assert!(s_info.report.parallel, "streaming reports as pipelined");
                assert!(!b_info.report.parallel);
            }
        }
    }

    #[test]
    fn report_breaks_down_per_stream_costs() {
        let server = server();
        let tree = query1_tree(server.database());
        // Buffered mode: streams execute sequentially, so the per-stage
        // decomposition below is guaranteed to fit inside wall time. (Under
        // the pipelined default, per-stream server times overlap and their
        // sum may exceed the wall clock.)
        let (m, _) =
            materialize_buffered(&tree, &server, PlanSpec::fully_partitioned(), Vec::new())
                .unwrap();
        let r = &m.report;
        assert_eq!(r.streams.len(), 10);
        assert_eq!(
            r.streams.iter().map(|s| s.rows).sum::<u64>(),
            m.stats.tuples,
            "per-stream rows sum to total tuples"
        );
        assert!(r.streams.iter().all(|s| s.bytes > 0));
        assert!(r.server_ms() > 0.0);
        assert!(
            r.server_ms() + r.transfer_ms() + r.tag_ms <= r.total_ms + 1.0,
            "decomposition fits inside wall time (1ms clock slack)"
        );
        let json = r.to_json().render();
        assert!(json.contains("\"totals\""), "{json}");
        // Streams appear in the same order as the SQL strings.
        for (s, sql) in r.streams.iter().zip(&m.sql) {
            assert_eq!(&s.sql, sql);
        }
    }

    #[test]
    fn sql_strings_are_reported() {
        let server = server();
        let tree = query1_tree(server.database());
        let (m, _) = materialize_to_string(&tree, &server, PlanSpec::fully_partitioned()).unwrap();
        assert_eq!(m.sql.len(), 10);
        assert!(m.sql.iter().all(|s| s.contains("ORDER BY")));
    }
}
