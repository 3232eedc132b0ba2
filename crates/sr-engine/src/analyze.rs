//! `EXPLAIN ANALYZE`: the optimized plan tree annotated per operator with
//! actual rows, calls, self/cumulative time, and — where the cost model
//! produced a cardinality estimate — estimated rows and the **Q-error**.
//!
//! The Q-error (`max(est/act, act/est)`) is the factor by which the
//! estimate missed, direction-free: 1 is perfect, 2 means off by 2× either
//! way. It is the accuracy measure behind the paper's §5.1 oracle
//! evaluation (Fig. 18 plots picked-plan cost against the true optimum,
//! which degrades exactly as these per-operator errors compound), so
//! tracking it per node shows *which* operators mislead `genPlan`'s greedy
//! search.

use std::time::Duration;

use crate::exec::PlanProfile;
use crate::plan::Plan;

/// The Q-error of an estimate against an actual count:
/// `max(est/act, act/est)` with both sides clamped to ≥ 1 row, so the
/// result is always finite and ≥ 1 (an estimate of 0 for an empty result
/// is perfect, not 0/0).
pub fn q_error(est: f64, act: f64) -> f64 {
    let e = est.max(1.0);
    let a = act.max(1.0);
    (e / a).max(a / e)
}

/// One operator's annotated row in an [`ExplainAnalysis`].
#[derive(Debug, Clone)]
pub struct AnalyzedNode {
    /// Preorder node id (see [`Plan::children`]).
    pub id: usize,
    /// Indentation depth in the rendered tree.
    pub depth: usize,
    /// Operator header, matching the plan's `Display` rendering.
    pub label: String,
    /// Operator kind name (`scan`, `join`, …).
    pub op: &'static str,
    /// Times the node was evaluated.
    pub calls: u64,
    /// Rows the node actually produced.
    pub actual_rows: u64,
    /// Estimated rows from the cost model (`None` if not estimated).
    pub est_rows: Option<f64>,
    /// Q-error of the estimate (`None` if not estimated).
    pub q_error: Option<f64>,
    /// Wall time including children.
    pub total_time: Duration,
    /// Wall time excluding direct children.
    pub self_time: Duration,
}

/// A complete `EXPLAIN ANALYZE` result for one query.
#[derive(Debug, Clone)]
pub struct ExplainAnalysis {
    /// The SQL text that was analyzed.
    pub sql: String,
    /// Per-operator annotations in preorder.
    pub nodes: Vec<AnalyzedNode>,
    /// Sorts elided by order-property propagation during optimization.
    pub sorts_elided: u64,
    /// Wall time of the analyzed execution.
    pub execute_time: Duration,
    /// Rows in the final result.
    pub row_count: u64,
}

impl ExplainAnalysis {
    /// Combine a plan, its per-node execution profile, and per-node
    /// cardinality estimates (indexed by preorder id; `NaN` = no estimate)
    /// into an annotated tree.
    pub fn assemble(
        plan: &Plan,
        profile: &PlanProfile,
        est_rows: &[f64],
        sorts_elided: u64,
        execute_time: Duration,
        row_count: u64,
        sql: String,
    ) -> ExplainAnalysis {
        let mut nodes = Vec::with_capacity(profile.nodes.len());
        walk(plan, 0, 0, &mut |p, id, depth| {
            let stat = &profile.nodes[id];
            let est = est_rows.get(id).copied().filter(|e| e.is_finite());
            nodes.push(AnalyzedNode {
                id,
                depth,
                label: node_label(p),
                op: stat.op,
                calls: stat.calls,
                actual_rows: stat.rows_out,
                est_rows: est,
                q_error: est.map(|e| q_error(e, stat.rows_out as f64)),
                total_time: stat.total_time,
                self_time: stat.self_time,
            });
        });
        ExplainAnalysis {
            sql,
            nodes,
            sorts_elided,
            execute_time,
            row_count,
        }
    }

    /// The node with the largest Q-error, if any node has an estimate.
    pub fn worst_offender(&self) -> Option<&AnalyzedNode> {
        self.nodes
            .iter()
            .filter(|n| n.q_error.is_some())
            .max_by(|a, b| a.q_error.unwrap().total_cmp(&b.q_error.unwrap()))
    }

    /// Human-readable annotated tree (EXPLAIN ANALYZE output).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "EXPLAIN ANALYZE  ({} rows in {:.3} ms, {} sort{} elided)",
            self.row_count,
            self.execute_time.as_secs_f64() * 1e3,
            self.sorts_elided,
            if self.sorts_elided == 1 { "" } else { "s" },
        );
        for n in &self.nodes {
            let pad = "  ".repeat(n.depth);
            let _ = write!(
                out,
                "{pad}{}  (actual rows={} calls={} self={:.3} ms total={:.3} ms",
                n.label,
                n.actual_rows,
                n.calls,
                n.self_time.as_secs_f64() * 1e3,
                n.total_time.as_secs_f64() * 1e3,
            );
            match (n.est_rows, n.q_error) {
                (Some(est), Some(q)) => {
                    let _ = write!(out, " est rows={est:.0} q-err={q:.2}");
                }
                _ => {
                    let _ = write!(out, " est rows=- q-err=-");
                }
            }
            let _ = writeln!(out, ")");
        }
        if let Some(w) = self.worst_offender() {
            let _ = writeln!(
                out,
                "worst q-error: {:.2} at node {} ({})",
                w.q_error.unwrap(),
                w.id,
                w.label
            );
        }
        out
    }

    /// Machine-readable form (one object per operator, preorder).
    pub fn to_json(&self) -> sr_obs::Json {
        use sr_obs::Json;
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                Json::obj(vec![
                    ("id", Json::UInt(n.id as u64)),
                    ("depth", Json::UInt(n.depth as u64)),
                    ("label", Json::Str(n.label.clone())),
                    ("op", Json::Str(n.op.to_string())),
                    ("calls", Json::UInt(n.calls)),
                    ("actual_rows", Json::UInt(n.actual_rows)),
                    (
                        "est_rows",
                        n.est_rows.map(Json::Float).unwrap_or(Json::Null),
                    ),
                    ("q_error", n.q_error.map(Json::Float).unwrap_or(Json::Null)),
                    ("self_ms", Json::Float(n.self_time.as_secs_f64() * 1e3)),
                    ("total_ms", Json::Float(n.total_time.as_secs_f64() * 1e3)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("sql", Json::Str(self.sql.clone())),
            ("rows", Json::UInt(self.row_count)),
            (
                "execute_ms",
                Json::Float(self.execute_time.as_secs_f64() * 1e3),
            ),
            ("sorts_elided", Json::UInt(self.sorts_elided)),
            (
                "worst_q_error",
                self.worst_offender()
                    .and_then(|n| n.q_error)
                    .map(Json::Float)
                    .unwrap_or(Json::Null),
            ),
            ("nodes", Json::Arr(nodes)),
        ])
    }
}

/// Preorder walk carrying `(node, id, depth)`, in the same id order as
/// [`Plan::children`] / the executor / the cost model. Returns the subtree
/// size so siblings can offset their ids.
fn walk(plan: &Plan, id: usize, depth: usize, f: &mut impl FnMut(&Plan, usize, usize)) -> usize {
    f(plan, id, depth);
    let mut child_id = id + 1;
    for child in plan.children() {
        child_id += walk(child, child_id, depth + 1, f);
    }
    child_id - id
}

/// One-line operator header, mirroring the plan's `Display` rendering
/// (which prints one such line per node, children indented).
fn node_label(plan: &Plan) -> String {
    match plan {
        Plan::Scan { table, alias } => format!("Scan {table} AS {alias}"),
        Plan::Filter { predicates, .. } => {
            let ps: Vec<String> = predicates.iter().map(|p| p.to_string()).collect();
            format!("Filter [{}]", ps.join(" AND "))
        }
        Plan::Project { items, .. } => {
            let is: Vec<String> = items.iter().map(|(n, e)| format!("{e} AS {n}")).collect();
            format!("Project [{}]", is.join(", "))
        }
        Plan::Join { kind, on, .. } => {
            let os: Vec<String> = on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
            format!("{kind:?}Join [{}]", os.join(" AND "))
        }
        Plan::OuterUnion { .. } => "OuterUnion".to_string(),
        Plan::Sort { keys, .. } => format!("Sort [{}]", keys.join(", ")),
        Plan::Distinct { .. } => "Distinct".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::estimate_with_nodes;
    use crate::exec::execute_analyzed;
    use crate::plan::JoinKind;
    use sr_data::{row, DataType, Database, Schema, Table};
    use std::time::Instant;

    #[test]
    fn q_error_is_finite_and_at_least_one() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(20.0, 10.0), 2.0);
        assert_eq!(q_error(10.0, 20.0), 2.0);
        // Zero actuals / estimates clamp instead of dividing by zero.
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(5.0, 0.0), 5.0);
        assert_eq!(q_error(0.0, 5.0), 5.0);
        for (e, a) in [(1e12, 1.0), (1.0, 1e12), (0.5, 0.25)] {
            let q = q_error(e, a);
            assert!(q.is_finite() && q >= 1.0, "q_error({e},{a}) = {q}");
        }
    }

    fn db() -> Database {
        let mut db = Database::new();
        let mut s = Table::new(
            "S",
            Schema::of(&[("k", DataType::Int), ("g", DataType::Int)]),
        );
        for i in 0..50i64 {
            s.insert(row![i, i % 5]).unwrap();
        }
        let mut t = Table::new("T", Schema::of(&[("k", DataType::Int)]));
        for i in 0..5i64 {
            t.insert(row![i]).unwrap();
        }
        db.add_table(s);
        db.add_table(t);
        db
    }

    #[test]
    fn assemble_lines_up_estimates_with_actuals() {
        let db = db();
        let p = Plan::scan("S", "s")
            .join(
                Plan::scan("T", "t"),
                JoinKind::Inner,
                vec![("s_g".into(), "t_k".into())],
            )
            .sort(vec!["s_k".into()]);
        let (_, est) = estimate_with_nodes(&p, &db).unwrap();
        let start = Instant::now();
        let (rs, _, pp) = execute_analyzed(&p, &db, &crate::cancel::CancelToken::none()).unwrap();
        let analysis = ExplainAnalysis::assemble(
            &p,
            &pp,
            &est,
            0,
            start.elapsed(),
            rs.len() as u64,
            "SELECT ...".into(),
        );
        assert_eq!(analysis.nodes.len(), 4);
        // Depths: Sort=0, Join=1, Scans=2.
        assert_eq!(
            analysis.nodes.iter().map(|n| n.depth).collect::<Vec<_>>(),
            vec![0, 1, 2, 2]
        );
        for n in &analysis.nodes {
            let q = n.q_error.expect("all nodes estimated");
            assert!(q.is_finite() && q >= 1.0);
        }
        // Scans are estimated exactly from table stats.
        assert_eq!(analysis.nodes[2].q_error, Some(1.0));
        assert_eq!(analysis.nodes[3].q_error, Some(1.0));
        let rendered = analysis.render();
        assert!(rendered.contains("EXPLAIN ANALYZE"), "{rendered}");
        assert!(rendered.contains("actual rows=50"), "{rendered}");
        assert!(rendered.contains("worst q-error"), "{rendered}");
        assert!(rendered.contains("  Scan S AS s"), "{rendered}");
        let json = analysis.to_json().render();
        let parsed = sr_obs::Json::parse(&json).unwrap();
        let nodes = parsed.get("nodes").and_then(sr_obs::Json::as_arr).unwrap();
        assert_eq!(nodes.len(), 4);
        assert!(parsed.get("worst_q_error").is_some());
    }

    #[test]
    fn missing_estimates_render_as_dashes() {
        let db = db();
        let p = Plan::scan("T", "t");
        let (_, _, pp) = execute_analyzed(&p, &db, &crate::cancel::CancelToken::none()).unwrap();
        // NaN = "no estimate for this node".
        let analysis =
            ExplainAnalysis::assemble(&p, &pp, &[f64::NAN], 0, Duration::ZERO, 5, "q".into());
        assert!(analysis.nodes[0].q_error.is_none());
        assert!(analysis.worst_offender().is_none());
        assert!(analysis.render().contains("q-err=-"));
    }
}
