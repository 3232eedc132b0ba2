//! End-to-end materialization: RXL view + plan → SQL → server → tagger →
//! XML document.
//!
//! This is the full middle-ware loop of the paper's Fig. 7: partition the
//! view tree and generate one SQL *string* per component, then hand the
//! strings to [`sr_serve::pipeline::publish`], which ships each to the server, reads
//! back the sorted tuple streams, and merges + tags them into the document.

use std::io::Write;
use std::time::Instant;

use sr_engine::{EngineError, Server};
use sr_obs::TraceSpan;
use sr_serve::pipeline::{publish, Publish};
use sr_sqlgen::{generate_queries, GeneratedQuery, PlanSpec};
use sr_tagger::{TagError, TagStats};
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

/// Generate the component queries under a `plan.generate` span, then
/// publish them, traced into the server's tracer if it has one.
fn run<W: Write>(
    tree: &ViewTree,
    server: &Server,
    out: W,
    streaming: bool,
    pretty: bool,
    generate: impl FnOnce() -> Result<Vec<GeneratedQuery>, EngineError>,
) -> Result<(Materialization, W), TagError> {
    let started = Instant::now();
    let queries = {
        let _s = TraceSpan::new(server.tracer().map(|t| t.as_ref()), "plan.generate");
        generate()?
    };
    let args = Publish {
        started,
        streaming,
        pretty,
        cancels: None,
        tracer: server.tracer(),
    };
    let (p, out) = publish(server, tree, queries, out, args)?;
    let report = MaterializeReport::assemble(&p, streaming);
    let m = Materialization {
        streams: p.sqls.len(),
        sql: p.sqls,
        stats: p.stats,
        report,
    };
    Ok((m, out))
}

/// Materialize a view into `out` using the given plan.
///
/// Execution is **pipelined**: every component query is submitted up front
/// and runs on its own server worker, while the tagger consumes the
/// resulting tuple streams in document order as chunks arrive. Use
/// [`materialize_buffered`] for run-to-completion-per-stream execution.
pub fn materialize<W: Write>(
    tree: &ViewTree,
    server: &Server,
    spec: PlanSpec,
    out: W,
) -> Result<(Materialization, W), TagError> {
    run(tree, server, out, true, false, || {
        generate_queries(tree, server.database(), spec)
    })
}

/// [`materialize`] with the document indented, one element per line (the
/// CLI's `--pretty`).
pub fn materialize_pretty<W: Write>(
    tree: &ViewTree,
    server: &Server,
    spec: PlanSpec,
    out: W,
) -> Result<(Materialization, W), TagError> {
    run(tree, server, out, true, true, || {
        generate_queries(tree, server.database(), spec)
    })
}

/// Materialize a view with each SQL query executed sequentially and fully
/// buffered before the next is submitted. Per-stream server times are
/// disjoint wall-clock intervals under this mode, which the
/// cost-decomposition reports rely on.
pub fn materialize_buffered<W: Write>(
    tree: &ViewTree,
    server: &Server,
    spec: PlanSpec,
    out: W,
) -> Result<(Materialization, W), TagError> {
    run(tree, server, out, false, false, || {
        generate_queries(tree, server.database(), spec)
    })
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
    run(tree, server, out, true, false, || {
        sr_sqlgen::generate_queries_filtered(tree, server.database(), spec, root_filter)
    })
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
            let (seq_info, seq) = materialize_buffered(&tree, &server, spec, Vec::new()).unwrap();
            let (par_info, par) = materialize(&tree, &server, spec, Vec::new()).unwrap();
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
