//! The cost oracle (paper §5).
//!
//! "The only reliable source of query costs is the target RDBMS. … The
//! RDBMS serves as an oracle, providing the values for the functions
//! `evaluation_cost` and `cardinality`."
//!
//! The oracle sends each candidate component query to the server's
//! estimate endpoint **as SQL text** and combines the answers with the
//! paper's linear model `cost(q, a, b) = a·evaluation_cost(q) +
//! b·data_size(q)`. Requests are cached by SQL string and counted — §5.1
//! reports the number of estimate requests (22/25 for the test queries vs.
//! the 81 worst case), which `tests/paper_claims.rs` pins from this counter.
//!
//! `genPlan` costs a component as a *named* prepared statement of the
//! server ([`Server::estimate_named`]): the name is the component's
//! literal-masked identity (`ViewShape`), so the SQL is built and printed
//! only the first time a shape is seen, and every later literal of it costs
//! a lookup.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sr_data::Database;
use sr_engine::{EngineError, Estimate, Server};
use sr_sqlgen::{generate_queries, outer_join_plan, PlanSpec};
use sr_viewtree::{
    reduce_component, Atom, BodyOperand, BodyPred, Component, EdgeSet, RuleBody, Var, ViewNode,
    ViewTree,
};

/// Cost-model parameters: coefficients and greedy thresholds.
///
/// The paper used `a = 100`, `b = 1`, `t1 = -60000`, `t2 = 6000` for all
/// experiments and notes the values depend on the database environment, not
/// the query. [`CostParams::default`] carries the paper's values; the
/// calibrated values for our engine are produced by
/// `silkroute::config::calibrated_params`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Weight of `evaluation_cost`.
    pub a: f64,
    /// Weight of `data_size`.
    pub b: f64,
    /// Maximum relative cost for a **mandatory** edge.
    pub t1: f64,
    /// Maximum relative cost for an **optional** edge (`t1 < t2`).
    pub t2: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            a: 100.0,
            b: 1.0,
            t1: -60_000.0,
            t2: 6_000.0,
        }
    }
}

/// A view tree's identity with the value of every predicate literal
/// blanked: the name scope of its components' prepared statements.
///
/// A literal compared against a field is the operand the server's
/// statement shape lifts into a slot, and the estimator never reads it, so
/// trees that differ only there get the same estimate for every
/// component. The literal's kind and operator stay in the identity (a
/// literal of another kind is another shape), and so does everything else
/// about the tree, verbatim, including a literal compared against a
/// literal.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ViewShape(String);

impl ViewShape {
    /// The identity of `tree`. Every field of every node and variable is
    /// written (the destructuring stops compiling if one is added), each
    /// list delimited so no two trees write the same text.
    pub(crate) fn of(tree: &ViewTree) -> ViewShape {
        let mut key = String::with_capacity(64 * tree.nodes.len());
        for node in &tree.nodes {
            let ViewNode {
                id,
                parent,
                children,
                tag,
                sfi,
                args,
                key_args,
                content,
                body: RuleBody { atoms, preds },
                label,
            } = node;
            let _ = write!(
                key,
                "{id}{parent:?}{children:?}{tag:?}{sfi:?}{args:?}{key_args:?}{content:?}{label}"
            );
            for Atom { table, alias } in atoms {
                let _ = write!(key, "({table:?} {alias:?})");
            }
            for BodyPred { left, op, right } in preds {
                // A literal compared against a field is the slot.
                let masked = left.as_field().is_some() != right.as_field().is_some();
                let operand = |key: &mut String, side: &BodyOperand| {
                    let _ = match side {
                        BodyOperand::Field { alias, column } => write!(key, "{alias:?}.{column:?}"),
                        BodyOperand::Int(_) if masked => write!(key, "?int"),
                        BodyOperand::Float(_) if masked => write!(key, "?float"),
                        BodyOperand::Str(_) if masked => write!(key, "?str"),
                        literal => write!(key, "{literal:?}"),
                    };
                };
                key.push('[');
                operand(&mut key, left);
                let _ = write!(key, " {op} ");
                operand(&mut key, right);
                key.push(']');
            }
            key.push(';');
        }
        for Var {
            alias,
            column,
            index,
        } in &tree.vars
        {
            let _ = write!(key, "{alias:?}.{column:?}{index:?}");
        }
        ViewShape(key)
    }

    /// The statement name of one component: the identity, the component's
    /// nodes (its query depends on them alone) and `reduce`.
    fn name(&self, component: &Component, reduce: bool) -> String {
        format!("{reduce}|{:?}|{}", component.nodes, self.0)
    }
}

/// A counting, caching cost oracle backed by the engine server.
///
/// Counts are mirrored into the server's metrics registry (`sr-obs`) as
/// `oracle.evaluations` / `oracle.requests` / `oracle.cache_hits` /
/// `oracle.sql_rendered`, so a pipeline-wide metrics snapshot shows
/// planning cost next to execution cost.
pub struct Oracle<'a> {
    server: &'a Server,
    params: CostParams,
    cache: RefCell<HashMap<String, Estimate>>,
    /// Statements requested by name ([`sr_engine::NamedEstimate::statement`]),
    /// so a shape counts as one request however many names alias it.
    named: RefCell<HashSet<Arc<str>>>,
    requests: RefCell<usize>,
    evaluations: RefCell<usize>,
    estimate_time: RefCell<Duration>,
    /// Worst observed `(sql, q_error)` reported via
    /// [`Oracle::record_actual`].
    worst: RefCell<Option<(String, f64)>>,
}

impl<'a> Oracle<'a> {
    /// Create an oracle over a server.
    pub fn new(server: &'a Server, params: CostParams) -> Self {
        Oracle {
            server,
            params,
            cache: RefCell::new(HashMap::new()),
            named: RefCell::new(HashSet::new()),
            requests: RefCell::new(0),
            evaluations: RefCell::new(0),
            estimate_time: RefCell::new(Duration::ZERO),
            worst: RefCell::new(None),
        }
    }

    /// The model parameters.
    pub fn params(&self) -> CostParams {
        self.params
    }

    /// Number of *distinct* estimate requests sent to the server: SQL
    /// texts, plus statements requested by name (a name aliasing a shape
    /// already requested is not counted again).
    pub fn requests(&self) -> usize {
        *self.requests.borrow()
    }

    /// Number of cost lookups including cache hits.
    pub fn evaluations(&self) -> usize {
        *self.evaluations.borrow()
    }

    /// Wall time spent inside the server's estimate endpoints (cache
    /// misses only — hits are answered locally; a named request's SQL
    /// rendering is not counted).
    pub fn estimate_time(&self) -> Duration {
        *self.estimate_time.borrow()
    }

    /// Estimate for a SQL string (cached).
    pub fn estimate_sql(&self, sql: &str) -> Result<Estimate, EngineError> {
        *self.evaluations.borrow_mut() += 1;
        let metrics = self.server.metrics();
        metrics.counter("oracle.evaluations").inc();
        if let Some(e) = self.cache.borrow().get(sql) {
            metrics.counter("oracle.cache_hits").inc();
            return Ok(e.clone());
        }
        *self.requests.borrow_mut() += 1;
        metrics.counter("oracle.requests").inc();
        let start = Instant::now();
        let e = self.server.estimate_sql(sql)?;
        *self.estimate_time.borrow_mut() += start.elapsed();
        self.cache.borrow_mut().insert(sql.to_string(), e.clone());
        Ok(e)
    }

    /// Once a query the oracle costed has actually run, report its real
    /// row count. Returns
    /// the Q-error of the cached cardinality estimate (`None` if this SQL
    /// was never estimated), records it into the server registry's
    /// `oracle.qerror` histogram (×1000 fixed point), and tracks the worst
    /// offender for [`Oracle::worst_qerror`]. This is the §5.1 accuracy
    /// accounting: the greedy planner is only as good as these estimates,
    /// and the histogram shows how far off they run in practice (Fig. 18).
    pub fn record_actual(&self, sql: &str, actual_rows: u64) -> Option<f64> {
        let est = self.cache.borrow().get(sql)?.cardinality;
        let q = sr_engine::q_error(est, actual_rows as f64);
        self.server
            .metrics()
            .histogram("oracle.qerror")
            .record((q * 1000.0).round() as u64);
        let mut worst = self.worst.borrow_mut();
        if worst.as_ref().is_none_or(|(_, w)| q > *w) {
            *worst = Some((sql.to_string(), q));
        }
        Some(q)
    }

    /// The worst `(sql, q_error)` seen by [`Oracle::record_actual`].
    pub fn worst_qerror(&self) -> Option<(String, f64)> {
        self.worst.borrow().clone()
    }

    /// Combined cost of a SQL query under the linear model.
    pub fn cost_sql(&self, sql: &str) -> Result<f64, EngineError> {
        let e = self.estimate_sql(sql)?;
        Ok(e.combined_cost(self.params.a, self.params.b))
    }

    /// The name scope for costing `tree`'s components as named statements
    /// ([`Oracle::named_component_cost`]), or `None` when every costing
    /// must render its SQL: a `db` other than the server's would make the
    /// server's names unsound.
    pub(crate) fn view_shape(&self, tree: &ViewTree, db: &Database) -> Option<ViewShape> {
        let own_db = std::ptr::eq(db, &**self.server.database());
        own_db.then(|| ViewShape::of(tree))
    }

    /// [`Oracle::component_cost`] through a named prepared statement of
    /// the server: the SQL is built and printed only if the server holds
    /// no statement under the component's name. `view` must be
    /// [`Oracle::view_shape`] of `tree`.
    pub(crate) fn named_component_cost(
        &self,
        view: &ViewShape,
        tree: &ViewTree,
        db: &Database,
        component: &Component,
        edges: EdgeSet,
        reduce: bool,
    ) -> Result<f64, EngineError> {
        *self.evaluations.borrow_mut() += 1;
        let metrics = self.server.metrics();
        metrics.counter("oracle.evaluations").inc();
        let start = Instant::now();
        let mut rendering = Duration::ZERO;
        let named = self
            .server
            .estimate_named(&view.name(component, reduce), || {
                let t = Instant::now();
                let sql = self.render(tree, db, component, edges, reduce);
                rendering = t.elapsed();
                sql
            })?;
        if self.named.borrow_mut().insert(named.statement) {
            *self.requests.borrow_mut() += 1;
            metrics.counter("oracle.requests").inc();
            *self.estimate_time.borrow_mut() += start.elapsed().saturating_sub(rendering);
        } else {
            metrics.counter("oracle.cache_hits").inc();
        }
        Ok(named.estimate.combined_cost(self.params.a, self.params.b))
    }

    /// The SQL text of one component under an edge set
    /// (`oracle.sql_rendered`).
    fn render(
        &self,
        tree: &ViewTree,
        db: &Database,
        component: &Component,
        edges: EdgeSet,
        reduce: bool,
    ) -> Result<String, EngineError> {
        self.server.metrics().counter("oracle.sql_rendered").inc();
        let plan = self.component_plan(tree, db, component, edges, reduce)?;
        sr_engine::sql::to_sql(&plan, db)
    }

    /// The outer-join plan of one component under an edge set (the
    /// structure SilkRoute generates while planning).
    pub fn component_plan(
        &self,
        tree: &ViewTree,
        db: &Database,
        component: &Component,
        edges: EdgeSet,
        reduce: bool,
    ) -> Result<sr_engine::Plan, EngineError> {
        let rc = reduce_component(tree, component, edges, reduce);
        outer_join_plan(tree, &rc, db)
    }

    /// Combined cost of one component under an edge set (outer-join style).
    pub fn component_cost(
        &self,
        tree: &ViewTree,
        db: &Database,
        component: &Component,
        edges: EdgeSet,
        reduce: bool,
    ) -> Result<f64, EngineError> {
        let sql = self.render(tree, db, component, edges, reduce)?;
        self.cost_sql(&sql)
    }

    /// Total combined cost of a full plan: the sum over the SQL it runs,
    /// in the plan's own style (`oracle.sql_rendered` per query).
    pub fn plan_cost(
        &self,
        tree: &ViewTree,
        db: &Database,
        spec: PlanSpec,
    ) -> Result<f64, EngineError> {
        let queries = generate_queries(tree, db, spec)?;
        let rendered = self.server.metrics().counter("oracle.sql_rendered");
        let mut total = 0.0;
        for q in &queries {
            rendered.inc();
            total += self.cost_sql(&q.sql)?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_tpch::{generate, Scale};
    use sr_viewtree::build;
    use std::sync::Arc;

    fn setup() -> (ViewTree, Server) {
        let db = generate(Scale::mb(0.05)).unwrap();
        let q = sr_rxl::parse(
            "from Supplier $s construct <supplier>\
               <name>$s.name</name>\
               { from PartSupp $ps where $s.suppkey = $ps.suppkey \
                 construct <part>$ps.partkey</part> }\
             </supplier>",
        )
        .unwrap();
        let tree = build(&q, &db).unwrap();
        (tree, Server::new(Arc::new(db)))
    }

    #[test]
    fn requests_are_cached() {
        let (tree, server) = setup();
        let oracle = Oracle::new(&server, CostParams::default());
        let db = server.database();
        let unified = PlanSpec::unified(&tree);
        let c1 = oracle.plan_cost(&tree, db, unified).unwrap();
        let r1 = oracle.requests();
        let c2 = oracle.plan_cost(&tree, db, unified).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(oracle.requests(), r1, "second evaluation fully cached");
        assert!(oracle.evaluations() > r1);
    }

    #[test]
    fn costs_are_positive_and_monotone_in_b() {
        let (tree, server) = setup();
        let db = server.database();
        let cheap = Oracle::new(
            &server,
            CostParams {
                a: 1.0,
                b: 0.0,
                ..Default::default()
            },
        );
        let heavy = Oracle::new(
            &server,
            CostParams {
                a: 1.0,
                b: 10.0,
                ..Default::default()
            },
        );
        let unified = PlanSpec::unified(&tree);
        let c1 = cheap.plan_cost(&tree, db, unified).unwrap();
        let c2 = heavy.plan_cost(&tree, db, unified).unwrap();
        assert!(c1 > 0.0);
        assert!(c2 > c1, "adding data-size weight increases cost");
    }

    #[test]
    fn record_actual_tracks_qerror_and_worst_offender() {
        let (_, server) = setup();
        let oracle = Oracle::new(&server, CostParams::default());
        let sql = "SELECT s.suppkey AS k FROM Supplier s";
        let est = oracle.estimate_sql(sql).unwrap();
        // Unknown SQL was never estimated: no feedback possible.
        assert!(oracle.record_actual("SELECT 1", 5).is_none());
        assert!(oracle.worst_qerror().is_none());
        // Perfectly estimated: q-error 1.
        let q = oracle
            .record_actual(sql, est.cardinality.round() as u64)
            .unwrap();
        assert!((q - 1.0).abs() < 0.01, "q = {q}");
        // A 10x miss becomes the worst offender.
        let q10 = oracle
            .record_actual(sql, (est.cardinality * 10.0).round() as u64)
            .unwrap();
        assert!(q10 > 9.0 && q10 < 11.0, "q10 = {q10}");
        let (wsql, wq) = oracle.worst_qerror().unwrap();
        assert_eq!(wsql, sql);
        assert_eq!(wq, q10);
        let snap = server.metrics().snapshot();
        let h = snap.histogram("oracle.qerror").expect("histogram recorded");
        assert_eq!(h.count, 2);
        assert!(h.min >= 1000, "×1000 fixed point, q >= 1");
    }

    #[test]
    fn qerror_zero_cases_stay_finite() {
        // The standard Q-error convention clamps both sides to ≥ 1 row, so
        // zero/zero, zero/nonzero, and huge-ratio cases all stay finite.
        assert_eq!(sr_engine::q_error(0.0, 0.0), 1.0);
        let q = sr_engine::q_error(0.0, 1_000.0);
        assert!(q.is_finite() && (q - 1_000.0).abs() < 1e-9, "q = {q}");
        let q = sr_engine::q_error(1e18, 0.0);
        assert!(q.is_finite() && q >= 1e17, "q = {q}");
    }

    #[test]
    fn record_actual_zero_rows_does_not_poison_worst() {
        let (_, server) = setup();
        let oracle = Oracle::new(&server, CostParams::default());
        let sql = "SELECT s.suppkey AS k FROM Supplier s";
        oracle.estimate_sql(sql).unwrap();
        let q = oracle.record_actual(sql, 0).unwrap();
        assert!(q.is_finite() && q >= 1.0, "q = {q}");
        let (_, wq) = oracle.worst_qerror().unwrap();
        assert!(wq.is_finite());
        // A huge-ratio observation stays finite too.
        let q = oracle.record_actual(sql, u64::MAX).unwrap();
        assert!(q.is_finite(), "q = {q}");
        let snap = server.metrics().snapshot();
        let h = snap.histogram("oracle.qerror").expect("recorded");
        assert_eq!(h.count, 2);
    }

    #[test]
    fn plan_cost_prices_the_sql_of_the_plan_it_is_given() {
        let (tree, server) = setup();
        let db = server.database();
        let oracle = Oracle::new(&server, CostParams::default());
        let own_sql = |spec: PlanSpec| -> f64 {
            let queries = generate_queries(&tree, db, spec).unwrap();
            queries
                .iter()
                .map(|q| oracle.cost_sql(&q.sql).unwrap())
                .sum()
        };
        let outer_union = PlanSpec::sorted_outer_union(&tree);
        let non_reduced_unified = PlanSpec {
            style: sr_sqlgen::QueryStyle::OuterJoin,
            ..outer_union
        };
        let cost = oracle.plan_cost(&tree, db, outer_union).unwrap();
        assert_eq!(cost, own_sql(outer_union));
        assert_ne!(
            cost,
            oracle.plan_cost(&tree, db, non_reduced_unified).unwrap(),
            "the outer-union plan is priced as its own SQL"
        );
        // An outer-join plan costs what genPlan's per-component costing
        // says, so the ranking of the plan space does not move.
        for edges in [EdgeSet::empty(), EdgeSet::full(&tree)] {
            let spec = PlanSpec {
                edges,
                ..PlanSpec::unified(&tree)
            };
            let per_component: f64 = sr_viewtree::components(&tree, edges)
                .iter()
                .map(|c| oracle.component_cost(&tree, db, c, edges, true).unwrap())
                .sum();
            assert_eq!(oracle.plan_cost(&tree, db, spec).unwrap(), per_component);
        }
    }

    #[test]
    fn view_shapes_blank_only_literals_facing_a_field() {
        let db = generate(Scale::mb(0.05)).unwrap();
        let query1 = silkroute::query1_tree(&db);
        let shape = |xpath: &str| {
            let path = sr_xpath::parse(xpath).unwrap();
            ViewShape::of(&sr_xpath::compose(&query1, &path).unwrap().tree)
        };
        let lt = shape("//order[orderkey < 100]");
        assert_eq!(lt, shape("//order[orderkey < -7]"), "the value is blanked");
        assert_ne!(lt, shape("//order[orderkey <= 100]"), "the operator stays");
        assert_ne!(lt, shape("//order[orderkey < 1.5]"), "the kind stays");
        assert_ne!(lt, shape("//order[orderkey < 100][orderkey < 5]"));
        let name = shape("/supplier/part[name = \"a\"]/order");
        assert_eq!(name, shape("/supplier/part[name = \"O'Brien\"]/order"));
        assert_ne!(name, lt);
        // A literal compared against a literal is priced by value: verbatim.
        let with = |k: i64| {
            let mut tree = query1.clone();
            tree.nodes[1].body.preds.push(sr_viewtree::BodyPred {
                left: BodyOperand::Int(1),
                op: sr_rxl::RxlCmp::Eq,
                right: BodyOperand::Int(k),
            });
            tree
        };
        let (tree, other) = (with(1), with(2));
        assert_ne!(ViewShape::of(&tree), ViewShape::of(&other));
    }

    #[test]
    fn default_params_match_paper() {
        let p = CostParams::default();
        assert_eq!(p.a, 100.0);
        assert_eq!(p.b, 1.0);
        assert_eq!(p.t1, -60_000.0);
        assert_eq!(p.t2, 6_000.0);
    }
}
