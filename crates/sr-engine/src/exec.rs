//! Plan execution: the public entry points and the profile types.
//!
//! One executor runs every plan — the batch-at-a-time columnar operators of
//! [`crate::vexec`]. Operators are fully materializing: the paper's
//! measurements attribute query-only time to server-side work that must
//! finish before the first tuple of a *sorted* stream can be returned
//! ("the time to first tuple is comparable to the time to count all tuples
//! in the result on the server", §4) — which is exactly the behaviour of a
//! materializing executor whose final operator is a sort.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sr_data::{Database, Row, Schema};

use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::faults::FaultInjector;
use crate::plan::Plan;
use crate::vexec::{vexec, VecResultSet};
use crate::wire::CHUNK_ROWS;

/// Output statistics for one operator kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Times an operator of this kind ran.
    pub calls: u64,
    /// Rows it produced in total.
    pub rows_out: u64,
    /// Column batches it produced in total.
    pub batches: u64,
}

/// Per-operator execution profile for one (or several) plan executions:
/// how often each operator kind ran and how many rows it emitted. This is
/// the server-side half of the paper's "tuples processed" accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecProfile {
    /// Statistics keyed by operator name (`scan`, `join`, …), sorted.
    pub ops: BTreeMap<&'static str, OpStat>,
    /// Per-batch filter selectivities in ‰ (rows out × 1000 / rows in).
    pub selectivity: Vec<u64>,
}

impl ExecProfile {
    /// Account one call of operator kind `op` and its output.
    fn record(&mut self, op: &'static str, rows_out: usize, batches: usize) {
        let stat = self.ops.entry(op).or_default();
        stat.calls += 1;
        stat.rows_out += rows_out as u64;
        stat.batches += batches as u64;
    }

    /// Total column batches produced across all operators.
    pub fn total_batches(&self) -> u64 {
        self.ops.values().map(|s| s.batches).sum()
    }

    /// Mirror the profile into a metrics registry as
    /// `exec.calls.<op>` / `exec.rows.<op>` / `exec.batches.<op>` counters,
    /// the `exec.batches` total, and the `exec.selectivity` ‰ histogram.
    pub fn export_to(&self, registry: &sr_obs::MetricsRegistry) {
        for (op, stat) in &self.ops {
            registry
                .counter(&format!("exec.calls.{op}"))
                .add(stat.calls);
            registry
                .counter(&format!("exec.rows.{op}"))
                .add(stat.rows_out);
            if stat.batches > 0 {
                registry
                    .counter(&format!("exec.batches.{op}"))
                    .add(stat.batches);
            }
        }
        registry.counter("exec.batches").add(self.total_batches());
        for &sel in &self.selectivity {
            registry.histogram("exec.selectivity").record(sel);
        }
    }
}

/// Execution statistics for one *plan node* (not one operator kind),
/// addressed by the node's preorder id — see [`Plan::children`] for the id
/// scheme. This is what `EXPLAIN ANALYZE` renders per operator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStat {
    /// Operator kind name (`scan`, `join`, …); empty if the node never ran.
    pub op: &'static str,
    /// Times this node was evaluated (once per run of the plan).
    pub calls: u64,
    /// Rows this node produced in total.
    pub rows_out: u64,
    /// Wall time spent in this node *including* its children.
    pub total_time: Duration,
    /// Wall time minus the total time of direct children (computed after
    /// execution by [`execute_analyzed`]).
    pub self_time: Duration,
}

/// Per-node execution profile of one analyzed run: `nodes[i]` is the stat
/// for the plan node with preorder id `i`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanProfile {
    /// One entry per plan node, indexed by preorder id.
    pub nodes: Vec<NodeStat>,
}

/// Mutable execution context threaded through the operator recursion:
/// always the kind-level [`ExecProfile`], plus per-node stats when running
/// under [`execute_analyzed`]. Keeping the per-node vector optional means
/// the normal execution path pays only a branch per operator, not a clock
/// read.
pub(crate) struct ExecCtx<'a> {
    pub(crate) profile: &'a mut ExecProfile,
    pub(crate) nodes: Option<&'a mut Vec<NodeStat>>,
    /// Cooperative cancellation, checked once per [`CHUNK_ROWS`] rows of
    /// work: a query over its deadline stops within one chunk's worth, and
    /// one clock read per chunk is amortized to noise.
    pub(crate) cancel: &'a CancelToken,
    /// Fault injection (tests / CLI only; `None` in production).
    pub(crate) faults: Option<&'a FaultInjector>,
    /// Rows processed since the last cancellation check.
    pub(crate) ticks: u64,
}

impl ExecCtx<'_> {
    /// Account for `rows` units of work; check the cancel token once per
    /// [`CHUNK_ROWS`]. The fast path is one add and one compare.
    pub(crate) fn tick(&mut self, rows: u64) -> Result<(), EngineError> {
        self.ticks += rows;
        if self.ticks >= CHUNK_ROWS as u64 {
            self.ticks = 0;
            self.cancel.check()?;
        }
        Ok(())
    }

    /// When a node starts: a clock read, only if per-node stats are kept.
    pub(crate) fn node_start(&self) -> Option<Instant> {
        self.nodes.is_some().then(Instant::now)
    }

    /// Account one evaluation of node `id` that produced `rows` rows in
    /// `batches` batches into the kind-level profile and, under
    /// [`execute_analyzed`], into the node's own stat.
    pub(crate) fn node_done(
        &mut self,
        plan: &Plan,
        id: usize,
        start: Option<Instant>,
        rows: usize,
        batches: usize,
    ) {
        let op = op_name(plan);
        self.profile.record(op, rows, batches);
        if let (Some(start), Some(nodes)) = (start, self.nodes.as_deref_mut()) {
            let stat = &mut nodes[id];
            stat.op = op;
            stat.calls += 1;
            stat.rows_out += rows as u64;
            stat.total_time += start.elapsed();
        }
    }
}

fn op_name(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan { .. } => "scan",
        Plan::Filter { .. } => "filter",
        Plan::Project { .. } => "project",
        Plan::Join { .. } => "join",
        Plan::OuterUnion { .. } => "outer_union",
        Plan::Sort { .. } => "sort",
        Plan::Distinct { .. } => "distinct",
    }
}

/// A fully materialized query result in row form.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Output schema.
    pub schema: Schema,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total simulated wire size of all rows.
    pub fn wire_bytes(&self) -> usize {
        self.rows.iter().map(Row::wire_width).sum()
    }
}

/// Execute a plan against a database, pivoting the result to rows.
pub fn execute(plan: &Plan, db: &Database) -> Result<ResultSet, EngineError> {
    let (rs, _) = execute_profiled(plan, db)?;
    Ok(ResultSet {
        rows: rs.to_rows(),
        schema: rs.schema,
    })
}

/// Execute a plan, also collecting a per-operator [`ExecProfile`] (with
/// batch counts and filter selectivities filled in).
pub fn execute_profiled(
    plan: &Plan,
    db: &Database,
) -> Result<(VecResultSet, ExecProfile), EngineError> {
    execute_profiled_with(plan, db, &CancelToken::none(), None)
}

/// [`execute_profiled`] with cooperative cancellation and (optional) fault
/// injection: `cancel` is checked once per chunk of rows inside every
/// operator loop, and `faults` fires at the [`crate::FaultSite::Scan`]
/// site. This is the entry point every server query runs through.
pub fn execute_profiled_with(
    plan: &Plan,
    db: &Database,
    cancel: &CancelToken,
    faults: Option<&FaultInjector>,
) -> Result<(VecResultSet, ExecProfile), EngineError> {
    run(plan, db, cancel, faults, None)
}

/// Execute a plan collecting, in addition to the kind-level profile, a
/// timed per-node [`PlanProfile`] — the raw material of `EXPLAIN ANALYZE`.
/// `cancel` is checked as in [`execute_profiled_with`]. Self times (total
/// minus direct children) are filled in after the run.
pub fn execute_analyzed(
    plan: &Plan,
    db: &Database,
    cancel: &CancelToken,
) -> Result<(VecResultSet, ExecProfile, PlanProfile), EngineError> {
    let mut nodes = vec![NodeStat::default(); plan.node_count()];
    let (rs, profile) = run(plan, db, cancel, None, Some(&mut nodes))?;
    fill_self_times(plan, 0, &mut nodes);
    Ok((rs, profile, PlanProfile { nodes }))
}

fn run(
    plan: &Plan,
    db: &Database,
    cancel: &CancelToken,
    faults: Option<&FaultInjector>,
    nodes: Option<&mut Vec<NodeStat>>,
) -> Result<(VecResultSet, ExecProfile), EngineError> {
    let mut profile = ExecProfile::default();
    let mut ctx = ExecCtx {
        profile: &mut profile,
        nodes,
        cancel,
        faults,
        ticks: 0,
    };
    let rs = vexec(plan, db, &mut ctx, 0)?;
    Ok((rs, profile))
}

/// `self = total − Σ direct children's total`, per node. Saturating: on a
/// timer-granularity hiccup a child could appear to outlast its parent.
pub(crate) fn fill_self_times(plan: &Plan, id: usize, nodes: &mut [NodeStat]) {
    let mut child_id = id + 1;
    let mut children_total = Duration::ZERO;
    for child in plan.children() {
        children_total += nodes[child_id].total_time;
        fill_self_times(child, child_id, nodes);
        child_id += child.node_count();
    }
    nodes[id].self_time = nodes[id].total_time.saturating_sub(children_total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr, Predicate};
    use crate::plan::JoinKind;
    use sr_data::{row, DataType, Table, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut s = Table::new(
            "Supplier",
            Schema::of(&[("suppkey", DataType::Int), ("name", DataType::Str)]),
        );
        s.insert_all([row![1i64, "Acme"], row![2i64, "Bolt"], row![3i64, "Coil"]])
            .unwrap();
        let mut ps = Table::new(
            "PartSupp",
            Schema::of(&[("partkey", DataType::Int), ("suppkey", DataType::Int)]),
        );
        ps.insert_all([row![10i64, 1i64], row![11i64, 1i64], row![12i64, 3i64]])
            .unwrap();
        db.add_table(s);
        db.add_table(ps);
        db
    }

    #[test]
    fn scan_returns_all_rows() {
        let db = db();
        let rs = execute(&Plan::scan("Supplier", "s"), &db).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(
            rs.schema.names().collect::<Vec<_>>(),
            vec!["s_suppkey", "s_name"]
        );
    }

    #[test]
    fn filter_by_literal() {
        let db = db();
        let p = Plan::scan("Supplier", "s").filter(vec![Predicate::new(
            Expr::col("s_suppkey"),
            CmpOp::Ge,
            Expr::lit(2i64),
        )]);
        let rs = execute(&p, &db).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn inner_join_matches() {
        let db = db();
        let p = Plan::scan("Supplier", "s").join(
            Plan::scan("PartSupp", "ps"),
            JoinKind::Inner,
            vec![("s_suppkey".into(), "ps_suppkey".into())],
        );
        let rs = execute(&p, &db).unwrap();
        assert_eq!(rs.len(), 3, "supplier 1 has two parts, 3 has one");
    }

    #[test]
    fn left_outer_join_pads() {
        let db = db();
        let p = Plan::scan("Supplier", "s").join(
            Plan::scan("PartSupp", "ps"),
            JoinKind::LeftOuter,
            vec![("s_suppkey".into(), "ps_suppkey".into())],
        );
        let rs = execute(&p, &db).unwrap();
        assert_eq!(rs.len(), 4, "supplier 2 kept with NULL part");
        let padded: Vec<&Row> = rs.rows.iter().filter(|r| r.get(2).is_null()).collect();
        assert_eq!(padded.len(), 1);
        assert_eq!(padded[0].get(0), &Value::Int(2));
    }

    #[test]
    fn cross_join_when_no_keys() {
        let db = db();
        let p =
            Plan::scan("Supplier", "s").join(Plan::scan("PartSupp", "ps"), JoinKind::Inner, vec![]);
        let rs = execute(&p, &db).unwrap();
        assert_eq!(rs.len(), 9);
    }

    #[test]
    fn sort_orders_rows() {
        let db = db();
        let p = Plan::scan("PartSupp", "ps").sort(vec!["ps_suppkey".into(), "ps_partkey".into()]);
        let rs = execute(&p, &db).unwrap();
        let keys: Vec<i64> = rs.rows.iter().map(|r| r.get(1).as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 1, 3]);
    }

    #[test]
    fn outer_union_pads_missing_columns() {
        let db = db();
        let a = Plan::scan("Supplier", "s").project(vec![
            ("k".into(), Expr::col("s_suppkey")),
            ("name".into(), Expr::col("s_name")),
        ]);
        let b = Plan::scan("PartSupp", "ps").project(vec![
            ("k".into(), Expr::col("ps_suppkey")),
            ("part".into(), Expr::col("ps_partkey")),
        ]);
        let u = Plan::OuterUnion { inputs: vec![a, b] };
        let rs = execute(&u, &db).unwrap();
        assert_eq!(rs.len(), 6);
        assert_eq!(
            rs.schema.names().collect::<Vec<_>>(),
            vec!["k", "name", "part"]
        );
        // Supplier branch rows have NULL part; PartSupp branch rows NULL name.
        assert!(rs.rows[0].get(2).is_null());
        assert!(rs.rows[3].get(1).is_null());
    }

    #[test]
    fn distinct_removes_duplicates() {
        let db = db();
        let p = Plan::scan("PartSupp", "ps").project(vec![("s".into(), Expr::col("ps_suppkey"))]);
        let d = Plan::Distinct { input: Box::new(p) };
        let rs = execute(&d, &db).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn project_literals_and_nulls() {
        let db = db();
        let p = Plan::scan("Supplier", "s").project(vec![
            ("L1".into(), Expr::lit(1i64)),
            ("s".into(), Expr::col("s_suppkey")),
            ("pad".into(), Expr::TypedNull(DataType::Str)),
        ]);
        let rs = execute(&p, &db).unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Int(1));
        assert!(rs.rows[0].get(2).is_null());
    }

    #[test]
    fn null_keys_do_not_join() {
        let mut db = Database::new();
        let mut l = Table::new(
            "L",
            Schema::new(vec![sr_data::Column::nullable("k", DataType::Int)]).unwrap(),
        );
        l.insert(Row::new(vec![Value::Null])).unwrap();
        l.insert(row![1i64]).unwrap();
        let mut r = Table::new(
            "R",
            Schema::new(vec![sr_data::Column::nullable("k", DataType::Int)]).unwrap(),
        );
        r.insert(Row::new(vec![Value::Null])).unwrap();
        r.insert(row![1i64]).unwrap();
        db.add_table(l);
        db.add_table(r);
        let inner = Plan::scan("L", "l").join(
            Plan::scan("R", "r"),
            JoinKind::Inner,
            vec![("l_k".into(), "r_k".into())],
        );
        assert_eq!(execute(&inner, &db).unwrap().len(), 1, "NULL != NULL");
        let outer = Plan::scan("L", "l").join(
            Plan::scan("R", "r"),
            JoinKind::LeftOuter,
            vec![("l_k".into(), "r_k".into())],
        );
        assert_eq!(
            execute(&outer, &db).unwrap().len(),
            2,
            "NULL left row padded"
        );
    }

    #[test]
    fn float_join_keys_agree_on_nan_and_signed_zero() {
        // NaN (two payloads) and ±0.0 on BOTH build and probe sides: the
        // hash and the equality check must agree, so NaN matches NaN and
        // -0.0 matches 0.0 whichever side each lands on.
        let nan_a = f64::NAN;
        let nan_b = f64::from_bits(f64::NAN.to_bits() | 1);
        let mut db = Database::new();
        let mut l = Table::new("L", Schema::of(&[("k", DataType::Float)]));
        l.insert_all([row![nan_a], row![0.0f64], row![5.0f64]])
            .unwrap();
        let mut r = Table::new("R", Schema::of(&[("k", DataType::Float)]));
        r.insert_all([row![nan_b], row![-0.0f64], row![7.0f64]])
            .unwrap();
        db.add_table(l);
        db.add_table(r);
        let on = vec![("l_k".to_string(), "r_k".to_string())];
        let inner = Plan::scan("L", "l").join(Plan::scan("R", "r"), JoinKind::Inner, on.clone());
        let rs = execute(&inner, &db).unwrap();
        assert_eq!(rs.len(), 2, "NaN↔NaN and 0.0↔-0.0 must both match");
        let outer = Plan::scan("L", "l").join(Plan::scan("R", "r"), JoinKind::LeftOuter, on);
        let rs = execute(&outer, &db).unwrap();
        assert_eq!(rs.len(), 3, "5.0 padded, NaN and zero matched");
        let padded: Vec<&Row> = rs.rows.iter().filter(|r| r.get(1).is_null()).collect();
        assert_eq!(padded.len(), 1);
        assert_eq!(padded[0].get(0), &Value::Float(5.0));
    }

    #[test]
    fn analyzed_execution_fills_per_node_stats() {
        let db = db();
        // 0=Sort, 1=Join, 2=Scan Supplier, 3=Scan PartSupp
        let p = Plan::scan("Supplier", "s")
            .join(
                Plan::scan("PartSupp", "ps"),
                JoinKind::Inner,
                vec![("s_suppkey".into(), "ps_suppkey".into())],
            )
            .sort(vec!["s_suppkey".into()]);
        let (rs, profile, plan_profile) = execute_analyzed(&p, &db, &CancelToken::none()).unwrap();
        assert_eq!(rs.len(), 3);
        let n = &plan_profile.nodes;
        assert_eq!(n.len(), 4);
        assert_eq!(
            n.iter().map(|s| s.op).collect::<Vec<_>>(),
            vec!["sort", "join", "scan", "scan"]
        );
        assert!(n.iter().all(|s| s.calls == 1));
        assert_eq!(n[0].rows_out, 3);
        assert_eq!(n[1].rows_out, 3);
        assert_eq!(n[2].rows_out, 3);
        assert_eq!(n[3].rows_out, 3);
        // Per-node rows agree with the kind-level profile.
        assert_eq!(profile.ops["scan"].rows_out, n[2].rows_out + n[3].rows_out);
        // Totals nest: parent total >= child total; self <= total.
        assert!(n[0].total_time >= n[1].total_time);
        assert!(n[1].total_time >= n[2].total_time);
        for s in n {
            assert!(s.self_time <= s.total_time);
        }
        // Analyzed and plain execution agree on the result.
        let plain = execute(&p, &db).unwrap();
        assert_eq!(plain.rows, rs.to_rows());
    }

    /// Per-node `op` / `calls` / `rows_out` of an analyzed run equal the
    /// reference executor's on every node of both views' component plans:
    /// EXPLAIN ANALYZE counts what the one executor really did.
    #[test]
    fn analyzed_nodes_match_the_reference_on_both_views() {
        let db = std::sync::Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(0.05)).unwrap());
        let server = crate::Server::new(std::sync::Arc::clone(&db));
        let mut nodes = 0;
        for tree in [silkroute::query1_tree(&db), silkroute::query2_tree(&db)] {
            for spec in [
                silkroute::PlanSpec::unified(&tree),
                silkroute::PlanSpec::fully_partitioned(),
                silkroute::PlanSpec::sorted_outer_union(&tree),
            ] {
                for q in sr_sqlgen::generate_queries(&tree, &db, spec).unwrap() {
                    let (plan, _) = server.optimized_plan(&q.sql).unwrap();
                    let (rs, _, got) = execute_analyzed(&plan, &db, &CancelToken::none()).unwrap();
                    let (want_rs, _, want) =
                        crate::reference::execute_analyzed(&plan, &db).unwrap();
                    assert_eq!(rs.to_rows(), want_rs.rows, "{}", q.sql);
                    let key = |p: &PlanProfile| -> Vec<_> {
                        p.nodes
                            .iter()
                            .map(|s| (s.op, s.calls, s.rows_out))
                            .collect()
                    };
                    assert_eq!(key(&got), key(&want), "{}", q.sql);
                    nodes += got.nodes.len();
                }
            }
        }
        assert!(nodes > 50, "only {nodes} plan nodes compared");
    }

    #[test]
    fn wire_bytes_nonzero() {
        let db = db();
        let rs = execute(&Plan::scan("Supplier", "s"), &db).unwrap();
        assert!(rs.wire_bytes() > 0);
    }

    #[test]
    fn short_selectivity_mask_errors_instead_of_panicking() {
        use crate::reference::retain_by_mask;
        let mut rows = vec![row![1i64], row![2i64], row![3i64]];
        match retain_by_mask(&mut rows, &[true, false]) {
            Err(EngineError::Internal(m)) => {
                assert!(m.contains("2 row(s)"), "{m}");
            }
            other => panic!("expected internal error, got {other:?}"),
        }
        assert_eq!(rows.len(), 3, "rows untouched on mask mismatch");
        retain_by_mask(&mut rows, &[true, false, true]).unwrap();
        assert_eq!(rows, vec![row![1i64], row![3i64]]);
    }

    /// Seven-way cross join: enough rows to pass several cancel checks.
    fn big_cross_join() -> Plan {
        let mut p = Plan::scan("Supplier", "s");
        for alias in ["a", "b", "c", "d", "e", "f"] {
            p = p.join(Plan::scan("PartSupp", alias), JoinKind::Inner, vec![]);
        }
        p
    }

    #[test]
    fn cancelled_token_stops_execution() {
        let db = db();
        let p = Plan::scan("Supplier", "s").sort(vec!["s_suppkey".into()]);
        let token = crate::cancel::CancelToken::unbounded();
        token.cancel();
        // The per-chunk check only fires after CHUNK_ROWS of work,
        // so drive enough rows through a cross-join to guarantee a check.
        match execute_profiled_with(&big_cross_join(), &db, &token, None) {
            Err(EngineError::Cancelled) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
        // An uncancelled token executes normally.
        let (rs, _) =
            execute_profiled_with(&p, &db, &crate::cancel::CancelToken::unbounded(), None).unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn expired_deadline_stops_execution_mid_plan() {
        let db = db();
        let token = crate::cancel::CancelToken::with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        match execute_profiled_with(&big_cross_join(), &db, &token, None) {
            Err(EngineError::Timeout { limit_ms, .. }) => assert_eq!(limit_ms, 0),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn scan_fault_surfaces_as_transient() {
        use crate::faults::{FaultInjector, FaultPlan};
        let db = db();
        let inj = FaultInjector::new(FaultPlan::parse("transient@scan#1", 0).unwrap());
        let p = Plan::scan("Supplier", "s");
        match execute_profiled_with(&p, &db, &crate::cancel::CancelToken::none(), Some(&inj)) {
            Err(EngineError::Transient(m)) => assert!(m.contains("scan"), "{m}"),
            other => panic!("expected transient, got {other:?}"),
        }
        // The rule fired on hit 1; the same injector now passes.
        let (rs, _) =
            execute_profiled_with(&p, &db, &crate::cancel::CancelToken::none(), Some(&inj))
                .unwrap();
        assert_eq!(rs.len(), 3);
    }
}
