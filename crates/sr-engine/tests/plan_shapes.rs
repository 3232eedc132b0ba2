//! The prepared-plan cache is keyed by statement shape — the statement with
//! its comparison literals lifted into typed slots — so one prepared plan
//! serves every literal. These tests pin that the sharing is invisible: for
//! the component queries of both paper views and of the benchmark's XPath
//! shapes, under many literals, a default server and one built with
//! `with_plan_cache(false)` agree on the optimized plan, bit for bit on the
//! estimate, and byte for byte on the executed wire stream. The last two
//! tests pin what column pruning leaves of one greedy stream's scans, and
//! that it folds every chain of `Project`s into one.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sr_data::{Database, Value};
use sr_engine::{EngineError, Estimate, Expr, FaultPlan, Plan, Server};
use sr_plan::{gen_plan, Oracle};
use sr_sqlgen::{generate_queries, PlanSpec};
use sr_viewtree::ViewTree;

const SCALE_MB: f64 = 0.05;

/// Silence the default panic hook for injected panics only.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.starts_with("injected fault") {
                prev(info);
            }
        }));
    });
}

fn database() -> Arc<Database> {
    Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(SCALE_MB)).expect("tpch"))
}

/// A seeded xorshift stream, so every run draws the same literals.
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// `n` part-name literals: real names (so predicates match), names with
/// quotes, multi-byte UTF-8, and the empty string.
fn string_literals(db: &Arc<Database>, rng: &mut Seeded, n: usize) -> Vec<String> {
    let names: Vec<String> = Server::new(Arc::clone(db))
        .execute_sql("SELECT p.name AS n FROM Part p")
        .expect("part names")
        .collect_rows()
        .expect("rows")
        .iter()
        .map(|r| match r.get(0) {
            Value::Str(s) => s.to_string(),
            other => other.to_string(),
        })
        .collect();
    let mut out = vec![
        String::new(),
        "O'Brien".into(),
        "it''s".into(),
        "Zürich–東京 🚚".into(),
        "  two  spaces  ".into(),
    ];
    while out.len() < n {
        let k = rng.next();
        out.push(match k % 4 {
            0 => format!("{}'{}", names[k as usize % names.len()], k % 97),
            1 => format!("ß{}東", k % 1000),
            _ => names[k as usize % names.len()].clone(),
        });
    }
    out
}

/// `n` order-key bounds: the extremes, zero, negatives and seeded values
/// around the key range.
fn int_literals(rng: &mut Seeded, n: usize) -> Vec<i64> {
    let mut out = vec![i64::MIN, i64::MAX, 0, -1, -7];
    while out.len() < n {
        out.push((rng.next() % 400) as i64 - 20);
    }
    out
}

/// Floats whose natural spelling is exponent form, as decimal text.
fn float_literals(rng: &mut Seeded, n: usize) -> Vec<String> {
    let mut values = vec![1e-7, -2.5e-12, 1e20, 6.02e23, -0.0];
    while values.len() < n {
        values.push((rng.next() % 100_000) as f64 * 1e-3);
    }
    values
        .into_iter()
        .map(|x: f64| {
            let s = x.to_string();
            if s.contains('.') {
                s
            } else {
                format!("{s}.0")
            }
        })
        .collect()
}

/// The component SQL of a tree under each of `specs`.
fn component_sql(tree: &ViewTree, db: &Database, specs: &[PlanSpec]) -> Vec<String> {
    specs
        .iter()
        .flat_map(|&spec| generate_queries(tree, db, spec).expect("component queries"))
        .map(|q| q.sql)
        .collect()
}

/// Every component query of `xpath` over `view`, fully partitioned and
/// under `genPlan`'s recommended plan — the streams the benchmark's XPath
/// requests run. (The unified plan of these pruned trees is left out: one
/// execution of it takes up to a second even at this scale.)
fn xpath_sql(view: &ViewTree, xpath: &str, server: &Server) -> Vec<String> {
    let db = server.database();
    let path = sr_xpath::parse(xpath).expect("xpath parses");
    let tree = sr_xpath::compose(view, &path).expect("xpath composes").tree;
    let params = silkroute::calibrated_params(sr_tpch::Scale::mb(SCALE_MB));
    let greedy = gen_plan(&tree, db, &Oracle::new(server, params), true).expect("genPlan");
    let recommended = PlanSpec {
        edges: greedy.recommended(),
        ..PlanSpec::fully_partitioned()
    };
    component_sql(&tree, db, &[PlanSpec::fully_partitioned(), recommended])
}

type EstimateBits = (u64, u64, BTreeMap<String, (u64, u64)>);

fn bits(e: &Estimate) -> EstimateBits {
    let cols = e
        .columns
        .iter()
        .map(|(n, c)| (n.clone(), (c.distinct.to_bits(), c.width.to_bits())))
        .collect();
    (e.cardinality.to_bits(), e.eval_cost.to_bits(), cols)
}

fn wire(server: &Server, sql: &str) -> Result<Vec<u8>, EngineError> {
    let mut stream = server.execute_sql(sql)?;
    let mut out = Vec::new();
    while let Some(chunk) = stream.next_chunk()? {
        out.extend_from_slice(&chunk);
    }
    Ok(out)
}

/// Everything a statement yields on one server.
type Outcome = (
    Result<(String, usize), EngineError>,
    Result<EstimateBits, EngineError>,
    Result<Vec<u8>, EngineError>,
);

fn outcome(server: &Server, sql: &str) -> Outcome {
    let plan = server
        .optimized_plan(sql)
        .and_then(|(p, elided)| Ok((sr_engine::sql::to_sql(&p, server.database())?, elided)));
    let estimate = server.estimate_sql(sql).map(|e| bits(&e));
    (plan, estimate, wire(server, sql))
}

fn assert_invisible(cached: &Server, reference: &Server, sql: &str) {
    assert_eq!(
        outcome(cached, sql),
        outcome(reference, sql),
        "shape cache changed the outcome of {sql}"
    );
}

fn prepared(server: &Server) -> u64 {
    server.metrics().counter("server.plan_cache_prepared").get()
}

#[test]
fn shapes_are_invisible_across_views_and_literals() {
    let db = database();
    let cached = Server::new(Arc::clone(&db));
    let reference = Server::new(Arc::clone(&db)).with_plan_cache(false);
    let query1 = silkroute::query1_tree(&db);
    let query2 = silkroute::query2_tree(&db);
    let mut rng = Seeded(0x511c_6007);

    let mut xpaths = vec!["/supplier/name".to_string()];
    for s in string_literals(&db, &mut rng, 50) {
        xpaths.push(format!("/supplier/part[name = \"{s}\"]/order"));
    }
    for k in int_literals(&mut rng, 50) {
        xpaths.push(format!("//order[orderkey < {k}]"));
    }
    for x in float_literals(&mut rng, 50) {
        xpaths.push(format!("//order[orderkey < {x}]"));
    }
    let mut sqls = Vec::new();
    for view in [&query1, &query2] {
        let specs = [
            PlanSpec::unified(view),
            PlanSpec::fully_partitioned(),
            PlanSpec::sorted_outer_union(view),
        ];
        sqls.extend(component_sql(view, &db, &specs));
    }
    for xpath in &xpaths {
        sqls.extend(xpath_sql(&query1, xpath, &cached));
    }
    for sql in &sqls {
        assert_invisible(&cached, &reference, sql);
    }
    let hits = cached.metrics().counter("server.plan_cache_hits").get();
    assert!(hits > 0, "literals of one shape share a prepared plan");
}

#[test]
fn a_literal_of_another_class_is_another_shape() {
    let db = database();
    let cached = Server::new(Arc::clone(&db));
    let reference = Server::new(Arc::clone(&db)).with_plan_cache(false);
    let query1 = silkroute::query1_tree(&db);
    let mut before = prepared(&cached);
    for bound in ["5", "5.5", "'5'"] {
        for sql in &xpath_sql(&query1, &format!("//order[orderkey < {bound}]"), &cached) {
            assert_invisible(&cached, &reference, sql);
        }
        let now = prepared(&cached);
        assert!(now > before, "{bound}: a new class prepares a new shape");
        before = now;
    }
}

#[test]
fn a_shape_is_prepared_once_for_every_literal() {
    let db = database();
    let server = Server::new(Arc::clone(&db));
    let query1 = silkroute::query1_tree(&db);
    let mut rng = Seeded(7);
    let shapes = |s: &str, k: i64| {
        let mut sqls = xpath_sql(
            &query1,
            &format!("/supplier/part[name = \"{s}\"]/order"),
            &server,
        );
        sqls.extend(xpath_sql(
            &query1,
            &format!("//order[orderkey < {k}]"),
            &server,
        ));
        sqls
    };
    for sql in shapes("first", 1) {
        let _ = outcome(&server, &sql);
    }
    let after_first = prepared(&server);
    assert!(after_first > 0);
    let strings = string_literals(&db, &mut rng, 200);
    for (i, s) in strings.iter().enumerate() {
        let k = 2 + i as i64;
        for sql in shapes(&format!("{s}#{i}"), k) {
            let (plan, estimate, bytes) = outcome(&server, &sql);
            assert!(plan.is_ok() && estimate.is_ok() && bytes.is_ok(), "{sql}");
        }
    }
    assert_eq!(
        prepared(&server),
        after_first,
        "200 never-repeated literals prepared nothing new"
    );
}

#[test]
fn faults_surface_typed_on_a_plan_from_a_shape_hit() {
    quiet_injected_panics();
    let db = database();
    let reference = Server::new(Arc::clone(&db)).with_plan_cache(false);
    let sql =
        |k: i64| format!("SELECT o.orderkey AS k FROM Orders o WHERE o.orderkey < {k} ORDER BY k");
    for rule in ["panic@scan", "transient@scan#1"] {
        let server = Server::new(Arc::clone(&db)).with_faults(FaultPlan::parse(rule, 1).unwrap());
        // Prepare the shape without executing, then run another literal.
        server.optimized_plan(&sql(10)).unwrap();
        let hits = server.metrics().counter("server.plan_cache_hits").get();
        let got = wire(&server, &sql(40));
        assert_eq!(
            server.metrics().counter("server.plan_cache_hits").get(),
            hits + 1,
            "{rule}: the execution planned from the shape"
        );
        match rule {
            "panic@scan" => assert!(matches!(got, Err(EngineError::Internal(_))), "{got:?}"),
            _ => {
                assert_eq!(
                    got,
                    wire(&reference, &sql(40)),
                    "{rule}: retried to the same bytes"
                );
                assert_eq!(server.metrics().counter("server.retries").get(), 1);
            }
        }
    }
}

fn counter(server: &Server, name: &str) -> u64 {
    server.metrics().counter(name).get()
}

/// A render that must not run: the name should answer.
fn unreachable_render() -> Result<String, EngineError> {
    panic!("a kept name rendered its statement")
}

/// An order-key range statement; its literal faces a column, so its shape
/// is generic.
fn orders_below(k: i64) -> String {
    format!("SELECT o.orderkey AS k FROM Orders o WHERE o.orderkey < {k} ORDER BY k")
}

/// Push-down through the constant projection turns `q.one = k` into the
/// literal comparison `1 = k`, which the estimator prices by value.
fn literal_sensitive(k: i64) -> String {
    format!("SELECT q.k AS k FROM (SELECT 1 AS one, o.orderkey AS k FROM Orders o) AS q WHERE q.one = {k}")
}

#[test]
fn a_name_is_kept_only_for_a_generic_shape() {
    let db = database();
    let server = Server::new(Arc::clone(&db));
    let reference = Server::new(Arc::clone(&db)).with_plan_cache(false);
    let first = server
        .estimate_named("below", || Ok(orders_below(10)))
        .unwrap();
    assert_eq!(counter(&server, "server.named_kept"), 1);
    assert_eq!(
        bits(&first.estimate),
        bits(&reference.estimate_sql(&orders_below(10)).unwrap())
    );
    // The kept name answers without rendering, from the same statement.
    let again = server.estimate_named("below", unreachable_render).unwrap();
    assert_eq!(bits(&again.estimate), bits(&first.estimate));
    assert_eq!(again.statement, first.statement);
    assert_eq!(counter(&server, "server.named_hits"), 1);
    // Another name rendered to another literal of the shape aliases the
    // same statement, and every literal of it estimates the same.
    let other = server
        .estimate_named("below-other", || Ok(orders_below(9_999)))
        .unwrap();
    assert_eq!(other.statement, first.statement);
    assert_eq!(
        bits(&other.estimate),
        bits(&reference.estimate_sql(&orders_below(9_999)).unwrap())
    );
    assert_eq!(counter(&server, "server.named_kept"), 2);
    assert_eq!(counter(&server, "server.estimates"), 3);
}

#[test]
fn a_non_generic_statement_is_rendered_on_every_call() {
    let db = database();
    let server = Server::new(Arc::clone(&db));
    let reference = Server::new(Arc::clone(&db)).with_plan_cache(false);
    let mut renders = 0;
    let mut cardinalities = Vec::new();
    for k in [1, 2, 1] {
        let named = server
            .estimate_named("sensitive", || {
                renders += 1;
                Ok(literal_sensitive(k))
            })
            .unwrap();
        let sql = literal_sensitive(k);
        assert_eq!(
            bits(&named.estimate),
            bits(&reference.estimate_sql(&sql).unwrap()),
            "k = {k}"
        );
        assert_eq!(&*named.statement, sql.as_str(), "not an alias: the text");
        cardinalities.push(named.estimate.cardinality);
    }
    assert_eq!(renders, 3);
    assert_ne!(cardinalities[0], cardinalities[1], "priced by value");
    assert_eq!(counter(&server, "server.named_kept"), 0);
    assert_eq!(counter(&server, "server.named_hits"), 0);
}

#[test]
fn without_the_plan_cache_no_name_is_kept() {
    let db = database();
    let server = Server::new(Arc::clone(&db)).with_plan_cache(false);
    let mut renders = 0;
    for _ in 0..3 {
        let named = server
            .estimate_named("below", || {
                renders += 1;
                Ok(orders_below(10))
            })
            .unwrap();
        assert_eq!(&*named.statement, orders_below(10).as_str());
    }
    assert_eq!(renders, 3);
    assert_eq!(counter(&server, "server.named_kept"), 0);
    assert_eq!(counter(&server, "server.plan_cache_prepared"), 0);
    // A render that fails surfaces its own error, and keeps nothing.
    let got = server.estimate_named("broken", || Err(EngineError::Internal("render".into())));
    assert!(matches!(got, Err(EngineError::Internal(m)) if m == "render"));
}

#[test]
fn faults_surface_typed_on_a_plan_from_a_named_hit() {
    quiet_injected_panics();
    let db = database();
    let reference = Server::new(Arc::clone(&db)).with_plan_cache(false);
    for rule in ["panic@scan", "transient@scan#1"] {
        let server = Server::new(Arc::clone(&db)).with_faults(FaultPlan::parse(rule, 1).unwrap());
        server
            .estimate_named("below", || Ok(orders_below(10)))
            .unwrap();
        // A named hit estimates without executing: no fault site is hit.
        server.estimate_named("below", unreachable_render).unwrap();
        let injector = server.fault_injector().unwrap();
        assert!(injector.hits().iter().all(|&(_, n)| n == 0), "{rule}");
        // Executing another literal of the named shape plans from the
        // entry the name aliases, and the fault surfaces typed.
        let hits = counter(&server, "server.plan_cache_hits");
        let got = wire(&server, &orders_below(40));
        assert_eq!(
            counter(&server, "server.plan_cache_hits"),
            hits + 1,
            "{rule}"
        );
        match rule {
            "panic@scan" => assert!(matches!(got, Err(EngineError::Internal(_))), "{got:?}"),
            _ => {
                assert_eq!(got, wire(&reference, &orders_below(40)), "{rule}");
                assert_eq!(counter(&server, "server.retries"), 1);
            }
        }
    }
}

/// Column names an operator reads from its input.
fn reads(plan: &Plan, db: &Database) -> Vec<String> {
    let col = |e: &Expr| match e {
        Expr::Col(c) => Some(c.clone()),
        _ => None,
    };
    match plan {
        Plan::Scan { .. } | Plan::OuterUnion { .. } => Vec::new(),
        Plan::Filter { predicates, .. } => predicates
            .iter()
            .flat_map(|p| [col(&p.left), col(&p.right)])
            .flatten()
            .collect(),
        Plan::Project { items, .. } => items.iter().filter_map(|(_, e)| col(e)).collect(),
        Plan::Join { on, .. } => on
            .iter()
            .flat_map(|(l, r)| [l.clone(), r.clone()])
            .collect(),
        Plan::Sort { keys, .. } => keys.clone(),
        Plan::Distinct { input } => input
            .schema(db)
            .expect("schema")
            .names()
            .map(str::to_string)
            .collect(),
    }
}

/// Each scan's alias and the columns it exposes — through the `Project`
/// right above it, if there is one — checking that some operator above
/// reads every one of them (`above` is what the ancestors read).
fn exposed_scans(
    plan: &Plan,
    db: &Database,
    above: &BTreeSet<String>,
    out: &mut BTreeMap<String, Vec<String>>,
) {
    let scan = match plan {
        Plan::Scan { alias, .. } => Some((alias, plan.schema(db).expect("schema"))),
        Plan::Project { input, .. } => match &**input {
            Plan::Scan { alias, .. } => Some((alias, plan.schema(db).expect("schema"))),
            _ => None,
        },
        _ => None,
    };
    if let Some((alias, schema)) = scan {
        let names: Vec<String> = schema.names().map(str::to_string).collect();
        for n in &names {
            assert!(
                above.contains(n),
                "scan {alias} exposes {n}, read by nothing above"
            );
        }
        out.insert(alias.clone(), names);
        return;
    }
    let mut read = above.clone();
    read.extend(reads(plan, db));
    for child in plan.children() {
        exposed_scans(child, db, &read, out);
    }
}

#[test]
fn a_greedy_stream_scans_only_the_columns_its_parents_read() {
    let db = Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(1.0)).expect("tpch"));
    let server = Server::new(Arc::clone(&db));
    let tree = silkroute::query1_tree(&db);
    let params = silkroute::calibrated_params(sr_tpch::Scale::mb(1.0));
    let greedy = gen_plan(&tree, &db, &Oracle::new(&server, params), true).expect("genPlan");
    let spec = PlanSpec {
        edges: greedy.recommended(),
        ..PlanSpec::fully_partitioned()
    };
    let queries = generate_queries(&tree, &db, spec).expect("component queries");
    let sql = &queries[2].sql;
    let (plan, elided) = server.optimized_plan(sql).expect("plan");

    let unpruned = sr_engine::push_filters(sr_engine::sql::plan_sql(sql, &db).unwrap(), &db);
    assert_eq!(elided, sr_engine::elide_sorts(unpruned.unwrap(), &db).1);
    assert_eq!(elided, 1, "{plan}");

    let root: BTreeSet<String> = plan
        .schema(&db)
        .unwrap()
        .names()
        .map(str::to_string)
        .collect();
    let mut scans = BTreeMap::new();
    exposed_scans(&plan, &db, &root, &mut scans);
    assert_eq!(scans.len(), 8, "{plan}");
    assert_eq!(
        scans["l"],
        ["l_orderkey", "l_partkey", "l_suppkey"],
        "{plan}"
    );
}

/// Whether some `Project` in `plan` reads straight from another `Project`.
fn project_over_project(plan: &Plan) -> bool {
    let here =
        matches!(plan, Plan::Project { input, .. } if matches!(**input, Plan::Project { .. }));
    here || plan.children().into_iter().any(project_over_project)
}

#[test]
fn no_prepared_stream_renames_twice() {
    let db = Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(1.0)).expect("tpch"));
    let server = Server::new(Arc::clone(&db));
    let params = silkroute::calibrated_params(sr_tpch::Scale::mb(1.0));
    for tree in [silkroute::query1_tree(&db), silkroute::query2_tree(&db)] {
        let greedy = gen_plan(&tree, &db, &Oracle::new(&server, params), true).expect("genPlan");
        let specs = [
            PlanSpec {
                edges: greedy.recommended(),
                ..PlanSpec::fully_partitioned()
            },
            PlanSpec::unified(&tree),
            PlanSpec::sorted_outer_union(&tree),
            PlanSpec::fully_partitioned(),
        ];
        for sql in component_sql(&tree, &db, &specs) {
            let (plan, _) = server.optimized_plan(&sql).expect("plan");
            assert!(!project_over_project(&plan), "{sql}\n{plan}");
        }
    }
}
