//! The measurement harness behind the paper's §4/§5 experiments.
//!
//! Timing model (matching the paper's definitions):
//!
//! * **query time** — server-side work per stream: parse + plan + execute +
//!   encode, summed over the plan's streams. The paper's "time until the
//!   first tuple is read" is equivalent because every generated query ends
//!   in a sort, so no tuple is available before execution finishes.
//! * **total time** — wall-clock from submitting the first SQL query until
//!   the tagger has consumed the last tuple (i.e. query time plus decode /
//!   bind / merge / tag work — the "transfer" share).
//!
//! Under the pipelined default ([`run_plan`]) all streams execute
//! concurrently and overlap with tagging, so the per-stream server times
//! are *not* disjoint wall-clock intervals: `query_ms` can exceed
//! `total_ms`. [`run_plan_buffered`] preserves the sequential model where
//! `query_ms + transfer_ms + tag_ms <= total_ms`.

use std::io;
use std::time::Duration;

use sr_engine::{EngineError, Server};
use sr_sqlgen::{PlanSpec, QueryStyle};
use sr_tagger::TagError;
use sr_viewtree::{EdgeSet, ViewTree};

use crate::materialize::{materialize, materialize_buffered};

/// One measured plan execution.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Included-edge bits of the plan.
    pub edge_bits: u64,
    /// Number of SQL queries / tuple streams.
    pub streams: usize,
    /// Whether view-tree reduction was applied.
    pub reduce: bool,
    /// `"outer-join"` or `"outer-union"`.
    pub style: String,
    /// Server-side query time, milliseconds.
    pub query_ms: f64,
    /// Client-side decode ("bind and transfer") time, milliseconds.
    pub transfer_ms: f64,
    /// Pure tagging time (merge + nest + tag, excluding decode),
    /// milliseconds.
    pub tag_ms: f64,
    /// End-to-end time (query + transfer + tagging), milliseconds.
    pub total_ms: f64,
    /// Tuples transferred.
    pub tuples: u64,
    /// Wire bytes transferred.
    pub wire_bytes: u64,
    /// XML bytes produced.
    pub xml_bytes: u64,
    /// Whether any stream hit the per-query timeout ("no time reported" in
    /// the paper's figures).
    pub timed_out: bool,
}

fn style_name(style: QueryStyle) -> String {
    match style {
        QueryStyle::OuterJoin => "outer-join".to_string(),
        QueryStyle::OuterUnion => "outer-union".to_string(),
    }
}

/// Execute one plan and measure it. Timeouts produce a `Measurement` with
/// `timed_out = true` rather than an error.
///
/// Execution is **pipelined**: every component query is submitted up front
/// via the server's streaming path and decoded as chunks arrive, so
/// server-side execution overlaps with tagging. `query_ms` still sums
/// per-stream server times, which under pipelining may exceed `total_ms`.
/// Use [`run_plan_buffered`] for the sequential (disjoint-interval)
/// decomposition.
pub fn run_plan(
    tree: &ViewTree,
    server: &Server,
    spec: PlanSpec,
    timeout: Option<Duration>,
) -> Result<Measurement, TagError> {
    run_plan_mode(tree, server, spec, timeout, true)
}

/// [`run_plan`] with each query executed sequentially to completion before
/// the next is submitted — the pre-pipelining behaviour, where
/// `query_ms + transfer_ms + tag_ms <= total_ms` holds.
pub fn run_plan_buffered(
    tree: &ViewTree,
    server: &Server,
    spec: PlanSpec,
    timeout: Option<Duration>,
) -> Result<Measurement, TagError> {
    run_plan_mode(tree, server, spec, timeout, false)
}

fn run_plan_mode(
    tree: &ViewTree,
    server: &Server,
    spec: PlanSpec,
    timeout: Option<Duration>,
    streaming: bool,
) -> Result<Measurement, TagError> {
    let timed_out = Measurement {
        edge_bits: spec.edges.bits(),
        streams: sr_viewtree::components(tree, spec.edges).len(),
        reduce: spec.reduce,
        style: style_name(spec.style),
        query_ms: f64::NAN,
        transfer_ms: f64::NAN,
        tag_ms: f64::NAN,
        total_ms: f64::NAN,
        tuples: 0,
        wire_bytes: 0,
        xml_bytes: 0,
        timed_out: true,
    };
    let run = if streaming {
        materialize(tree, server, spec, io::sink())
    } else {
        materialize_buffered(tree, server, spec, io::sink())
    };
    // Apply the per-query timeout the way the paper did: a query that
    // exceeds it voids the plan's measurement. A stream reports its server
    // time only once fully consumed, so the limit is checked after tagging;
    // the server's own deadline surfaces as `EngineError::Timeout`.
    let r = match run {
        Ok((m, _)) => m.report,
        Err(TagError::Engine(EngineError::Timeout { .. })) => return Ok(timed_out),
        Err(e) => return Err(e),
    };
    let limit_ms = timeout.map_or(f64::INFINITY, |t| t.as_secs_f64() * 1e3);
    if r.streams.iter().any(|s| s.server_ms > limit_ms) {
        return Ok(timed_out);
    }
    Ok(Measurement {
        query_ms: r.server_ms(),
        transfer_ms: r.transfer_ms(),
        tag_ms: r.tag_ms,
        // The paper's total runs from the first submission: SQL generation
        // (the report's plan time) is not part of it.
        total_ms: r.total_ms - r.plan_ms,
        tuples: r.tuples,
        wire_bytes: r.streams.iter().map(|s| s.bytes).sum(),
        xml_bytes: r.xml_bytes,
        timed_out: false,
        ..timed_out
    })
}

/// Measure every plan in the `2^|E|` space (the paper's Config-A sweeps,
/// Figs. 13–14). Returns measurements in edge-bit order.
pub fn sweep_all_plans(
    tree: &ViewTree,
    server: &Server,
    reduce: bool,
    style: QueryStyle,
    timeout: Option<Duration>,
) -> Result<Vec<Measurement>, TagError> {
    let mut out = Vec::with_capacity(1 << tree.edge_count());
    for edges in sr_viewtree::all_edge_sets(tree) {
        let spec = PlanSpec {
            edges,
            reduce,
            style,
        };
        out.push(run_plan(tree, server, spec, timeout)?);
    }
    Ok(out)
}

/// Measure one named plan family member with a fixed spec; convenience for
/// the benchmark tables.
pub fn measure(
    tree: &ViewTree,
    server: &Server,
    edges: EdgeSet,
    reduce: bool,
    style: QueryStyle,
) -> Result<Measurement, TagError> {
    run_plan(
        tree,
        server,
        PlanSpec {
            edges,
            reduce,
            style,
        },
        None,
    )
}

/// Summary statistics over a sweep, per stream count — the shape of the
/// Figs. 13–15 scatter plots.
#[derive(Debug, Clone)]
pub struct StreamBucket {
    /// Number of tuple streams.
    pub streams: usize,
    /// Plans measured (excluding timeouts).
    pub plans: usize,
    /// Timeouts.
    pub timeouts: usize,
    /// Fastest query time (ms).
    pub min_query_ms: f64,
    /// Median query time (ms).
    pub median_query_ms: f64,
    /// Fastest total time (ms).
    pub min_total_ms: f64,
    /// Median total time (ms).
    pub median_total_ms: f64,
}

/// Bucket a sweep by stream count.
pub fn bucket_by_streams(measurements: &[Measurement]) -> Vec<StreamBucket> {
    let max_streams = measurements.iter().map(|m| m.streams).max().unwrap_or(0);
    let mut buckets = Vec::new();
    for s in 1..=max_streams {
        let group: Vec<&Measurement> = measurements.iter().filter(|m| m.streams == s).collect();
        if group.is_empty() {
            continue;
        }
        let timeouts = group.iter().filter(|m| m.timed_out).count();
        let mut q: Vec<f64> = group
            .iter()
            .filter(|m| !m.timed_out)
            .map(|m| m.query_ms)
            .collect();
        let mut t: Vec<f64> = group
            .iter()
            .filter(|m| !m.timed_out)
            .map(|m| m.total_ms)
            .collect();
        if q.is_empty() {
            continue;
        }
        q.sort_by(f64::total_cmp);
        t.sort_by(f64::total_cmp);
        buckets.push(StreamBucket {
            streams: s,
            plans: q.len(),
            timeouts,
            min_query_ms: q[0],
            median_query_ms: q[q.len() / 2],
            min_total_ms: t[0],
            median_total_ms: t[t.len() / 2],
        });
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::query2_tree;
    use sr_tpch::{generate, Scale};
    use std::sync::Arc;

    fn server() -> Server {
        Server::new(Arc::new(generate(Scale::mb(0.05)).unwrap()))
    }

    #[test]
    fn run_plan_buffered_produces_sane_measurement() {
        let server = server();
        let tree = query2_tree(server.database());
        let m = run_plan_buffered(&tree, &server, PlanSpec::unified(&tree), None).unwrap();
        assert_eq!(m.streams, 1);
        assert!(!m.timed_out);
        assert!(m.query_ms >= 0.0);
        assert!(m.total_ms >= m.query_ms, "total includes query time");
        assert!(m.transfer_ms >= 0.0 && m.tag_ms >= 0.0);
        assert!(
            m.query_ms + m.transfer_ms + m.tag_ms <= m.total_ms + 1.0,
            "per-stage times fit inside wall time (1ms clock slack): \
             query={} transfer={} tag={} total={}",
            m.query_ms,
            m.transfer_ms,
            m.tag_ms,
            m.total_ms
        );
        assert!(m.tuples > 0);
        assert!(m.wire_bytes > 0);
        assert!(m.xml_bytes > 0);
    }

    #[test]
    fn run_plan_streaming_matches_buffered_volume() {
        let server = server();
        let tree = query2_tree(server.database());
        for spec in [PlanSpec::unified(&tree), PlanSpec::fully_partitioned()] {
            let s = run_plan(&tree, &server, spec, None).unwrap();
            let b = run_plan_buffered(&tree, &server, spec, None).unwrap();
            assert!(!s.timed_out && !b.timed_out);
            // The data volume is identical regardless of execution mode;
            // only the timing decomposition differs (pipelined per-stream
            // server times overlap, so query_ms may exceed total_ms).
            assert_eq!(s.tuples, b.tuples);
            assert_eq!(s.wire_bytes, b.wire_bytes);
            assert_eq!(s.xml_bytes, b.xml_bytes);
            assert!(s.query_ms >= 0.0 && s.transfer_ms >= 0.0 && s.tag_ms >= 0.0);
            assert!(s.total_ms > 0.0);
        }
    }

    #[test]
    fn zero_timeout_reports_timed_out() {
        let server = server();
        let tree = query2_tree(server.database());
        let m = run_plan(
            &tree,
            &server,
            PlanSpec::unified(&tree),
            Some(Duration::ZERO),
        )
        .unwrap();
        assert!(m.timed_out);
        assert!(m.query_ms.is_nan());
        assert_eq!(m.tuples, 0, "no partial stream survives a timeout");
        assert_eq!(m.wire_bytes, 0);
    }

    #[test]
    fn buckets_cover_stream_counts() {
        let server = server();
        let tree = query2_tree(server.database());
        // Small sub-sweep: fully partitioned, unified, and one mid plan.
        let ms = vec![
            run_plan(&tree, &server, PlanSpec::fully_partitioned(), None).unwrap(),
            run_plan(&tree, &server, PlanSpec::unified(&tree), None).unwrap(),
        ];
        let buckets = bucket_by_streams(&ms);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].streams, 1);
        assert_eq!(buckets[1].streams, 10);
    }
}
