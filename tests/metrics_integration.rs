//! Integration tests for the observability layer: the metrics a full
//! materialization reports must be internally consistent and identical
//! between sequential and parallel execution.

use std::sync::Arc;
use std::time::Instant;

use silkroute::{materialize, materialize_buffered, query1_tree, query2_tree, PlanSpec, Server};

fn server() -> Server {
    let db = sr_tpch::generate(sr_tpch::Scale::mb(0.1)).expect("tpch generation");
    Server::new(Arc::new(db))
}

/// Sequential (buffered) and parallel (pipelined) materialization must
/// report identical tuple and byte counts — parallelism changes wall-clock,
/// never the data.
#[test]
fn sequential_and_parallel_report_identical_counts() {
    let server = server();
    for tree in [
        query1_tree(server.database()),
        query2_tree(server.database()),
    ] {
        for spec in [PlanSpec::fully_partitioned(), PlanSpec::unified(&tree)] {
            let (seq, _) = materialize_buffered(&tree, &server, spec, Vec::new()).unwrap();
            let (par, _) = materialize(&tree, &server, spec, Vec::new()).unwrap();
            assert_eq!(seq.stats.tuples, par.stats.tuples);
            assert_eq!(seq.stats.bytes, par.stats.bytes);
            assert_eq!(seq.report.tuples, par.report.tuples);
            assert_eq!(seq.report.xml_bytes, par.report.xml_bytes);
            assert_eq!(seq.report.streams.len(), par.report.streams.len());
            for (s, p) in seq.report.streams.iter().zip(&par.report.streams) {
                assert_eq!(s.sql, p.sql);
                assert_eq!(s.rows, p.rows, "per-stream rows differ for {}", s.sql);
                assert_eq!(s.bytes, p.bytes, "per-stream bytes differ for {}", s.sql);
            }
        }
    }
}

/// For sequential (buffered) execution the per-stream server times are
/// disjoint slices of the same wall clock, so their sum must fit inside the
/// measured total. The pipelined default overlaps streams, so this
/// invariant only holds for `materialize_buffered`.
#[test]
fn per_stream_server_times_sum_within_total_wall_time() {
    let server = server();
    let tree = query2_tree(server.database());
    let start = Instant::now();
    let (m, _) =
        materialize_buffered(&tree, &server, PlanSpec::fully_partitioned(), Vec::new()).unwrap();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let r = &m.report;
    assert_eq!(r.streams.len(), m.streams);
    assert!(r.server_ms() > 0.0, "server time recorded");
    assert!(
        r.server_ms() <= wall_ms,
        "sum of per-stream server times ({:.3} ms) exceeds wall time ({wall_ms:.3} ms)",
        r.server_ms()
    );
    assert!(
        r.server_ms() + r.transfer_ms() + r.tag_ms <= r.total_ms + 1.0,
        "stage decomposition exceeds reported total"
    );
    assert!(r.total_ms <= wall_ms + 1.0);
}

/// The server's registry accumulates across queries; a snapshot taken after
/// a materialization reflects every stream and operator that ran.
#[test]
fn registry_snapshot_covers_all_streams() {
    let server = server();
    let tree = query1_tree(server.database());
    let (m, _) = materialize(&tree, &server, PlanSpec::fully_partitioned(), Vec::new()).unwrap();
    let snap = server.metrics().snapshot();
    assert_eq!(snap.counter("server.queries"), m.streams as u64);
    assert_eq!(
        snap.counter("server.rows"),
        m.stats.tuples,
        "every encoded row was consumed by the tagger"
    );
    assert!(
        snap.counter("exec.calls.sort") + snap.counter("exec.sorts_elided") >= m.streams as u64,
        "every stream either sorts or had its sort elided"
    );
    let h = snap.histogram("server.query_ns").expect("query histogram");
    assert_eq!(h.count, m.streams as u64);
    // The vestigial optimize phase (always zero once sort elision moved
    // into planning) is no longer recorded.
    assert!(
        snap.histogram("server.optimize_ns").is_none(),
        "server.optimize_ns was retired"
    );
    // Snapshots merge: two materializations double the counts.
    let (_, _) = materialize(&tree, &server, PlanSpec::fully_partitioned(), Vec::new()).unwrap();
    let mut merged = snap.clone();
    merged.merge(&server.metrics().snapshot());
    assert!(merged.counter("server.queries") >= 3 * m.streams as u64);
    // JSON renders without panicking and carries the counters.
    assert!(server
        .metrics()
        .snapshot()
        .to_json()
        .contains("server.queries"));
}

/// Oracle counters flow into the same registry during planning.
#[test]
fn oracle_counters_reach_registry() {
    let server = server();
    let tree = query1_tree(server.database());
    let oracle = silkroute::Oracle::new(
        &server,
        silkroute::calibrated_params(sr_tpch::Scale::mb(0.1)),
    );
    let r = silkroute::gen_plan(&tree, server.database(), &oracle, true).unwrap();
    let snap = server.metrics().snapshot();
    assert_eq!(
        snap.counter("oracle.requests"),
        r.oracle_requests as u64,
        "distinct requests mirrored"
    );
    assert_eq!(
        snap.counter("oracle.evaluations"),
        r.oracle_evaluations as u64
    );
    assert_eq!(
        snap.counter("oracle.evaluations") - snap.counter("oracle.requests"),
        snap.counter("oracle.cache_hits"),
        "evaluations = requests + cache hits"
    );
    assert_eq!(snap.counter("server.estimates"), r.oracle_requests as u64);
}
