//! Cost and cardinality estimation — the "RDBMS oracle".
//!
//! The paper's greedy planner (§5) asks the target database for two numbers
//! per candidate query: `evaluation_cost(q)` and `cardinality(q)`, then
//! combines them as `cost(q, a, b) = a·evaluation_cost(q) + b·data_size(q)`
//! with `data_size = f(|attrs(q)| · cardinality(q))`. Commercial optimizers
//! answer such requests from catalog statistics; this module is the
//! equivalent for our engine: textbook System-R-style estimation from table
//! statistics (row counts, per-column distinct counts and widths).

use std::collections::{BTreeMap, HashMap};

use sr_data::{DataType, Database, Value};

use crate::error::EngineError;
use crate::expr::{CmpOp, Expr};
use crate::plan::{JoinKind, Plan};

/// Per-column derived statistics carried through the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColInfo {
    /// Estimated distinct values.
    pub distinct: f64,
    /// Estimated average wire width in bytes.
    pub width: f64,
}

/// The estimate for a (sub)plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Estimated output row count.
    pub cardinality: f64,
    /// Abstract evaluation work units (rows touched, with an n·log n term
    /// for sorts).
    pub eval_cost: f64,
    /// Per-output-column statistics, in name order so every sum over them
    /// (row width, distinct products) adds up in the same order each time.
    pub columns: BTreeMap<String, ColInfo>,
}

impl Estimate {
    /// Average output row width in bytes.
    pub fn row_width(&self) -> f64 {
        self.columns.values().map(|c| c.width).sum()
    }

    /// The paper's `data_size(q) = f(|attrs(q)| * cardinality(q))`,
    /// instantiated as estimated total result bytes.
    pub fn data_size(&self) -> f64 {
        self.cardinality * self.row_width()
    }

    /// The paper's linear cost combination
    /// `cost(q, a, b) = a·evaluation_cost(q) + b·data_size(q)`.
    pub fn combined_cost(&self, a: f64, b: f64) -> f64 {
        a * self.eval_cost + b * self.data_size()
    }
}

/// Evaluation-cost units charged per materialized output byte. Calibrated
/// against the in-memory executor, whose per-operator materialization makes
/// byte volume — not just row count — the dominant cost driver.
const BYTE_COST: f64 = 0.0625;

/// Default assumed width per type when no statistic is available.
fn default_width(t: DataType) -> f64 {
    match t {
        DataType::Int | DataType::Float => 9.0,
        DataType::Str => 20.0,
    }
}

/// Estimate a plan bottom-up.
pub fn estimate(plan: &Plan, db: &Database) -> Result<Estimate, EngineError> {
    estimate_node(plan, db, 0, &mut Vec::new())
}

/// Estimate a plan, also reporting the estimated cardinality of **every**
/// node, indexed by preorder id (see [`Plan::children`] for the scheme).
/// This is how `EXPLAIN ANALYZE` lines up estimated against actual rows
/// per operator. Nodes the estimator never visits keep `NAN` (none today,
/// but the contract is "NaN = no estimate", surfaced as a missing Q-error).
pub fn estimate_with_nodes(
    plan: &Plan,
    db: &Database,
) -> Result<(Estimate, Vec<f64>), EngineError> {
    let mut nodes = vec![f64::NAN; plan.node_count()];
    let e = estimate_node(plan, db, 0, &mut nodes)?;
    Ok((e, nodes))
}

/// Wrapper around [`estimate_op`] that records the node's estimated
/// cardinality into `nodes[id]` when a per-node vector is in use (the
/// plain [`estimate`] entry point passes an empty vector, making the
/// recording a no-op).
fn estimate_node(
    plan: &Plan,
    db: &Database,
    id: usize,
    nodes: &mut Vec<f64>,
) -> Result<Estimate, EngineError> {
    let e = estimate_op(plan, db, id, nodes)?;
    if let Some(slot) = nodes.get_mut(id) {
        *slot = e.cardinality;
    }
    Ok(e)
}

fn estimate_op(
    plan: &Plan,
    db: &Database,
    id: usize,
    nodes: &mut Vec<f64>,
) -> Result<Estimate, EngineError> {
    match plan {
        Plan::Scan { table, alias } => {
            let stats = db.stats(table)?;
            let n = stats.row_count as f64;
            let columns = stats
                .columns
                .iter()
                .map(|c| {
                    (
                        format!("{alias}_{}", c.name),
                        ColInfo {
                            distinct: (c.distinct as f64).max(1.0),
                            width: c.avg_width.max(1.0),
                        },
                    )
                })
                .collect();
            Ok(Estimate {
                cardinality: n,
                eval_cost: n,
                columns,
            })
        }
        Plan::Filter { input, predicates } => {
            let mut e = estimate_node(input, db, id + 1, nodes)?;
            e.eval_cost += e.cardinality;
            for p in predicates {
                let sel = selectivity(&p.left, p.op, &p.right, &e);
                e.cardinality *= sel;
            }
            clamp_distincts(&mut e);
            Ok(e)
        }
        Plan::Project { input, items } => {
            let inner = estimate_node(input, db, id + 1, nodes)?;
            let schema = plan.schema(db)?;
            let mut columns = BTreeMap::new();
            for ((name, expr), col) in items.iter().zip(schema.columns()) {
                let info = match expr {
                    Expr::Col(c) => inner.columns.get(c).copied().unwrap_or(ColInfo {
                        distinct: inner.cardinality.max(1.0),
                        width: default_width(col.dtype),
                    }),
                    Expr::Lit(v) => ColInfo {
                        distinct: 1.0,
                        width: v.wire_width() as f64,
                    },
                    // Slots are comparison operands and never projected.
                    Expr::TypedNull(_) | Expr::Param(..) => ColInfo {
                        distinct: 1.0,
                        width: 1.0,
                    },
                };
                columns.insert(name.clone(), info);
            }
            let mut e = Estimate {
                cardinality: inner.cardinality,
                eval_cost: inner.eval_cost,
                columns,
            };
            // The executor materializes projected rows: charge output bytes.
            e.eval_cost += e.cardinality * e.row_width() * BYTE_COST;
            Ok(e)
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let le = estimate_node(left, db, id + 1, nodes)?;
            let re = estimate_node(right, db, id + 1 + left.node_count(), nodes)?;
            // Containment assumption with *joint* key distincts: treating
            // each key pair independently grossly underestimates multi-key
            // joins whose key columns are correlated (e.g. (suppkey,
            // partkey) pairs), so the joint distinct count is the product
            // of per-column distincts clamped by the relation cardinality.
            let mut card = le.cardinality * re.cardinality;
            if !on.is_empty() {
                let joint = |ds: Vec<f64>, cap: f64| -> f64 {
                    // Exponential backoff (à la SQL Server): key columns are
                    // usually correlated, so the joint distinct count is the
                    // largest per-column distinct times damped contributions
                    // of the rest, clamped by the relation cardinality.
                    let mut ds = ds;
                    ds.sort_by(|a, b| b.total_cmp(a));
                    let mut joint = 1.0;
                    let mut exp = 1.0;
                    for d in ds {
                        joint *= d.max(1.0).powf(exp);
                        exp *= 0.5;
                    }
                    joint.min(cap.max(1.0))
                };
                let dl = joint(
                    on.iter()
                        .map(|(l, _)| {
                            le.columns
                                .get(l)
                                .map(|c| c.distinct)
                                .unwrap_or(le.cardinality.max(1.0))
                        })
                        .collect(),
                    le.cardinality,
                );
                let dr = joint(
                    on.iter()
                        .map(|(_, r)| {
                            re.columns
                                .get(r)
                                .map(|c| c.distinct)
                                .unwrap_or(re.cardinality.max(1.0))
                        })
                        .collect(),
                    re.cardinality,
                );
                card /= dl.max(dr).max(1.0);
            }
            if *kind == JoinKind::LeftOuter {
                card = card.max(le.cardinality);
            }
            let eval_cost = le.eval_cost + re.eval_cost + le.cardinality + re.cardinality + card;
            let mut columns = le.columns.clone();
            columns.extend(re.columns.clone());
            let mut e = Estimate {
                cardinality: card,
                eval_cost,
                columns,
            };
            clamp_distincts(&mut e);
            // Join output rows are freshly materialized (concatenated):
            // charge output bytes, which penalizes wide NULL-padded results.
            e.eval_cost += e.cardinality * e.row_width() * BYTE_COST;
            Ok(e)
        }
        Plan::OuterUnion { inputs } => {
            let schema = plan.schema(db)?;
            let mut card = 0.0;
            let mut eval_cost = 0.0;
            let mut width_acc: HashMap<String, f64> = HashMap::new();
            let mut distinct_acc: HashMap<String, f64> = HashMap::new();
            let mut estimates = Vec::with_capacity(inputs.len());
            let mut child_id = id + 1;
            for i in inputs {
                estimates.push(estimate_node(i, db, child_id, nodes)?);
                child_id += i.node_count();
            }
            for e in &estimates {
                card += e.cardinality;
                eval_cost += e.eval_cost + e.cardinality;
                for col in schema.columns() {
                    // Width contribution of this branch: the column's width
                    // when present, one NULL byte when padded. Distincts
                    // combine with `max`, not `+`: union branches share
                    // their ancestor-key values (every branch carries the
                    // same suppliers), and those are the columns whose
                    // distinct counts drive the enclosing join estimates.
                    let (w, d) = match e.columns.get(&col.name) {
                        Some(ci) => (ci.width, ci.distinct),
                        None => (1.0, 0.0),
                    };
                    *width_acc.entry(col.name.clone()).or_insert(0.0) += w * e.cardinality;
                    let slot = distinct_acc.entry(col.name.clone()).or_insert(0.0);
                    *slot = slot.max(d);
                }
            }
            let columns = schema
                .columns()
                .iter()
                .map(|c| {
                    (
                        c.name.clone(),
                        ColInfo {
                            distinct: distinct_acc[&c.name].max(1.0),
                            width: if card > 0.0 {
                                width_acc[&c.name] / card
                            } else {
                                1.0
                            },
                        },
                    )
                })
                .collect();
            let mut e = Estimate {
                cardinality: card,
                eval_cost,
                columns,
            };
            clamp_distincts(&mut e);
            // Union rows are rebuilt column-aligned: charge output bytes.
            e.eval_cost += e.cardinality * e.row_width() * BYTE_COST;
            Ok(e)
        }
        Plan::Sort { input, keys: _ } => {
            let mut e = estimate_node(input, db, id + 1, nodes)?;
            let n = e.cardinality.max(1.0);
            e.eval_cost += n * n.log2().max(1.0);
            Ok(e)
        }
        Plan::Distinct { input } => {
            let mut e = estimate_node(input, db, id + 1, nodes)?;
            e.eval_cost += e.cardinality;
            // Upper-bounded by the product of column distincts.
            let product: f64 = e
                .columns
                .values()
                .map(|c| c.distinct)
                .fold(1.0, |a, b| (a * b).min(1e18));
            e.cardinality = e.cardinality.min(product);
            Ok(e)
        }
    }
}

/// Predicate selectivity, System-R style.
fn selectivity(left: &Expr, op: CmpOp, right: &Expr, e: &Estimate) -> f64 {
    let distinct_of = |ex: &Expr| -> Option<f64> {
        match ex {
            Expr::Col(c) => Some(
                e.columns
                    .get(c)
                    .map(|ci| ci.distinct)
                    .unwrap_or(e.cardinality.max(1.0)),
            ),
            _ => None,
        }
    };
    match op {
        CmpOp::Eq => match (distinct_of(left), distinct_of(right)) {
            (Some(dl), Some(dr)) => 1.0 / dl.max(dr).max(1.0),
            (Some(d), None) | (None, Some(d)) => 1.0 / d.max(1.0),
            (None, None) => equal_literals(left, right),
        },
        CmpOp::Ne => 1.0 - selectivity(left, CmpOp::Eq, right, e),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => 1.0 / 3.0,
    }
}

fn equal_literals(left: &Expr, right: &Expr) -> f64 {
    match (left, right) {
        (Expr::Lit(a), Expr::Lit(b)) => {
            if a == b && !matches!(a, Value::Null) {
                1.0
            } else {
                0.0
            }
        }
        _ => 1.0,
    }
}

/// No column can have more distinct values than the relation has rows.
fn clamp_distincts(e: &mut Estimate) {
    let card = e.cardinality.max(1.0);
    for ci in e.columns.values_mut() {
        ci.distinct = ci.distinct.min(card);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Predicate;
    use sr_data::{row, Schema, Table};

    fn db() -> Database {
        let mut db = Database::new();
        let mut s = Table::new(
            "S",
            Schema::of(&[("k", DataType::Int), ("g", DataType::Int)]),
        );
        for i in 0..100i64 {
            s.insert(row![i, i % 10]).unwrap();
        }
        let mut t = Table::new("T", Schema::of(&[("k", DataType::Int)]));
        for i in 0..10i64 {
            t.insert(row![i]).unwrap();
        }
        db.add_table(s);
        db.add_table(t);
        db
    }

    #[test]
    fn scan_estimate_matches_stats() {
        let db = db();
        let e = estimate(&Plan::scan("S", "s"), &db).unwrap();
        assert_eq!(e.cardinality, 100.0);
        assert_eq!(e.columns["s_k"].distinct, 100.0);
        assert_eq!(e.columns["s_g"].distinct, 10.0);
    }

    #[test]
    fn eq_filter_selectivity_uses_distinct() {
        let db = db();
        let p = Plan::scan("S", "s").filter(vec![Predicate::new(
            Expr::col("s_g"),
            CmpOp::Eq,
            Expr::lit(3i64),
        )]);
        let e = estimate(&p, &db).unwrap();
        assert!(
            (e.cardinality - 10.0).abs() < 1e-6,
            "100/10 = 10, got {}",
            e.cardinality
        );
    }

    #[test]
    fn join_estimate_divides_by_max_distinct() {
        let db = db();
        let p = Plan::scan("S", "s").join(
            Plan::scan("T", "t"),
            JoinKind::Inner,
            vec![("s_g".into(), "t_k".into())],
        );
        let e = estimate(&p, &db).unwrap();
        // 100*10 / max(10,10) = 100
        assert!((e.cardinality - 100.0).abs() < 1e-6);
        assert!(e.eval_cost > 110.0);
    }

    #[test]
    fn left_outer_join_preserves_left_cardinality() {
        let db = db();
        // Join on s_k (100 distinct) vs t_k (10 distinct): inner estimate is
        // 100*10/100 = 10, but outer keeps all 100 left rows.
        let p = Plan::scan("S", "s").join(
            Plan::scan("T", "t"),
            JoinKind::LeftOuter,
            vec![("s_k".into(), "t_k".into())],
        );
        let e = estimate(&p, &db).unwrap();
        assert!(e.cardinality >= 100.0);
    }

    #[test]
    fn sort_adds_nlogn() {
        let db = db();
        let base = estimate(&Plan::scan("S", "s"), &db).unwrap();
        let sorted = estimate(&Plan::scan("S", "s").sort(vec!["s_k".into()]), &db).unwrap();
        assert!(sorted.eval_cost > base.eval_cost + 100.0);
        assert_eq!(sorted.cardinality, base.cardinality);
    }

    #[test]
    fn union_width_averages_null_padding() {
        let db = db();
        let a = Plan::scan("S", "s").project(vec![
            ("k".into(), Expr::col("s_k")),
            ("g".into(), Expr::col("s_g")),
        ]);
        let b = Plan::scan("T", "t").project(vec![("k".into(), Expr::col("t_k"))]);
        let u = Plan::OuterUnion { inputs: vec![a, b] };
        let e = estimate(&u, &db).unwrap();
        assert!((e.cardinality - 110.0).abs() < 1e-6);
        // g: 9 bytes for 100 rows, 1 byte for 10 padded rows.
        let g = e.columns["g"];
        let expected = (9.0 * 100.0 + 1.0 * 10.0) / 110.0;
        assert!((g.width - expected).abs() < 1e-6, "got {}", g.width);
    }

    #[test]
    fn data_size_and_combined_cost() {
        let db = db();
        let e = estimate(&Plan::scan("T", "t"), &db).unwrap();
        assert!((e.data_size() - 90.0).abs() < 1e-6, "10 rows * 9 bytes");
        let c = e.combined_cost(100.0, 1.0);
        assert!((c - (100.0 * 10.0 + 90.0)).abs() < 1e-6);
    }

    #[test]
    fn projection_of_literal_has_unit_distinct() {
        let db = db();
        let p = Plan::scan("T", "t").project(vec![
            ("L".into(), Expr::lit(1i64)),
            ("k".into(), Expr::col("t_k")),
        ]);
        let e = estimate(&p, &db).unwrap();
        assert_eq!(e.columns["L"].distinct, 1.0);
    }

    #[test]
    fn distinct_bounds_cardinality() {
        let db = db();
        let p = Plan::scan("S", "s").project(vec![("g".into(), Expr::col("s_g"))]);
        let d = Plan::Distinct { input: Box::new(p) };
        let e = estimate(&d, &db).unwrap();
        assert!(e.cardinality <= 10.0 + 1e-9);
    }

    #[test]
    fn per_node_estimates_follow_preorder_ids() {
        let db = db();
        // 0=Sort, 1=Join, 2=Scan S, 3=Scan T
        let p = Plan::scan("S", "s")
            .join(
                Plan::scan("T", "t"),
                JoinKind::Inner,
                vec![("s_g".into(), "t_k".into())],
            )
            .sort(vec!["s_k".into()]);
        let (e, nodes) = estimate_with_nodes(&p, &db).unwrap();
        assert_eq!(nodes.len(), 4);
        assert!(nodes.iter().all(|n| n.is_finite()), "{nodes:?}");
        assert_eq!(nodes[0], e.cardinality, "root slot = overall estimate");
        assert_eq!(nodes[0], nodes[1], "sort preserves cardinality");
        assert_eq!(nodes[2], 100.0);
        assert_eq!(nodes[3], 10.0);
    }

    #[test]
    fn estimates_track_reality_on_join() {
        // Sanity: estimated cardinality within 2x of actual for a key join.
        let db = db();
        let p = Plan::scan("S", "s").join(
            Plan::scan("T", "t"),
            JoinKind::Inner,
            vec![("s_g".into(), "t_k".into())],
        );
        let est = estimate(&p, &db).unwrap().cardinality;
        let actual = crate::exec::execute(&p, &db).unwrap().len() as f64;
        assert!(
            est <= actual * 2.0 && est >= actual / 2.0,
            "est {est} vs actual {actual}"
        );
    }
}
