//! The row-at-a-time reference executor (tests only).
//!
//! The engine's one executor is the columnar one in [`crate::vexec`]. This
//! is the simple executor it replaced, kept as the reference the columnar
//! operators are checked against: every operator materializes a
//! `Vec<Row>`, a sort clones its key per row, a join concatenates rows.
//! Semantics — total value order for sorts, SQL NULL rules for filters,
//! `join_hash`/`join_eq` for join keys, first-occurrence-wins dedup — are
//! the ones the columnar executor must reproduce down to the wire bytes.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use sr_data::{Database, Row, Value};

use crate::cancel::CancelToken;
use crate::error::EngineError;
use crate::exec::{fill_self_times, ExecCtx, ExecProfile, NodeStat, PlanProfile, ResultSet};
use crate::plan::{JoinKind, Plan};

/// Execute a plan row at a time.
pub(crate) fn execute(plan: &Plan, db: &Database) -> Result<ResultSet, EngineError> {
    Ok(run(plan, db, None)?.0)
}

/// [`execute`] with the per-node profile `EXPLAIN ANALYZE` is built from.
pub(crate) fn execute_analyzed(
    plan: &Plan,
    db: &Database,
) -> Result<(ResultSet, ExecProfile, PlanProfile), EngineError> {
    let mut nodes = vec![NodeStat::default(); plan.node_count()];
    let (rs, profile) = run(plan, db, Some(&mut nodes))?;
    fill_self_times(plan, 0, &mut nodes);
    Ok((rs, profile, PlanProfile { nodes }))
}

fn run(
    plan: &Plan,
    db: &Database,
    nodes: Option<&mut Vec<NodeStat>>,
) -> Result<(ResultSet, ExecProfile), EngineError> {
    let mut profile = ExecProfile::default();
    let cancel = CancelToken::none();
    let mut ctx = ExecCtx {
        profile: &mut profile,
        nodes,
        cancel: &cancel,
        faults: None,
        ticks: 0,
    };
    let rs = execute_node(plan, db, &mut ctx, 0)?;
    Ok((rs, profile))
}

/// Execute one node, timing it into `ctx`. `id` is the node's preorder id,
/// meaningful only when `ctx.nodes` is set.
fn execute_node(
    plan: &Plan,
    db: &Database,
    ctx: &mut ExecCtx<'_>,
    id: usize,
) -> Result<ResultSet, EngineError> {
    let start = ctx.node_start();
    let rs = execute_op(plan, db, ctx, id)?;
    ctx.node_done(plan, id, start, rs.len(), 0);
    Ok(rs)
}

fn execute_op(
    plan: &Plan,
    db: &Database,
    ctx: &mut ExecCtx<'_>,
    id: usize,
) -> Result<ResultSet, EngineError> {
    match plan {
        Plan::Scan { table, alias: _ } => Ok(ResultSet {
            schema: plan.schema(db)?,
            rows: db.table(table)?.rows(),
        }),
        Plan::Filter { input, predicates } => {
            let mut rs = execute_node(input, db, ctx, id + 1)?;
            let bound = predicates
                .iter()
                .map(|p| p.bind(&rs.schema))
                .collect::<Result<Vec<_>, _>>()?;
            rs.rows.retain(|r| bound.iter().all(|p| p.eval(r)));
            Ok(rs)
        }
        Plan::Project { input, items } => {
            let rs = execute_node(input, db, ctx, id + 1)?;
            let bound = items
                .iter()
                .map(|(_, e)| e.bind(&rs.schema))
                .collect::<Result<Vec<_>, _>>()?;
            let rows = rs
                .rows
                .iter()
                .map(|r| Row::new(bound.iter().map(|e| e.eval(r).clone()).collect()))
                .collect();
            Ok(ResultSet {
                schema: plan.schema(db)?,
                rows,
            })
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let lrs = execute_node(left, db, ctx, id + 1)?;
            let rrs = execute_node(right, db, ctx, id + 1 + left.node_count())?;
            Ok(ResultSet {
                schema: plan.schema(db)?,
                rows: hash_join(&lrs, &rrs, *kind, on)?,
            })
        }
        Plan::OuterUnion { inputs } => {
            let schema = plan.schema(db)?;
            let mut rows = Vec::new();
            let mut child_id = id + 1;
            for input in inputs {
                let rs = execute_node(input, db, ctx, child_id)?;
                child_id += input.node_count();
                // Map union position -> branch position (None = NULL pad).
                let mapping: Vec<Option<usize>> =
                    schema.names().map(|n| rs.schema.position(n)).collect();
                rows.extend(rs.rows.iter().map(|r| {
                    Row::new(
                        mapping
                            .iter()
                            .map(|m| m.map_or(Value::Null, |i| r.get(i).clone()))
                            .collect(),
                    )
                }));
            }
            Ok(ResultSet { schema, rows })
        }
        Plan::Sort { input, keys } => {
            let mut rs = execute_node(input, db, ctx, id + 1)?;
            let idx: Vec<usize> = keys
                .iter()
                .map(|k| rs.schema.require(k).map_err(EngineError::from))
                .collect::<Result<_, _>>()?;
            // Stable — sort elision relies on stability (an already ordered
            // input must pass through as the identity).
            rs.rows.sort_by_cached_key(|r| {
                idx.iter()
                    .map(|&i| r.get(i).clone())
                    .collect::<Vec<Value>>()
            });
            Ok(rs)
        }
        Plan::Distinct { input } => {
            let mut rs = execute_node(input, db, ctx, id + 1)?;
            // Dedup on row hashes with bucket verification, first
            // occurrence wins (preserving input order).
            let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
            let mut keep = Vec::with_capacity(rs.rows.len());
            for (i, r) in rs.rows.iter().enumerate() {
                let mut hasher = DefaultHasher::new();
                r.hash(&mut hasher);
                let bucket = seen.entry(hasher.finish()).or_default();
                let fresh = !bucket.iter().any(|&j| rs.rows[j] == *r);
                if fresh {
                    bucket.push(i);
                }
                keep.push(fresh);
            }
            retain_by_mask(&mut rs.rows, &keep)?;
            Ok(rs)
        }
    }
}

/// Drop every row whose mask entry is `false`. The mask must cover the
/// row set exactly — a shorter or longer mask is surfaced as a typed
/// error, never a panic mid-query.
pub(crate) fn retain_by_mask(rows: &mut Vec<Row>, keep: &[bool]) -> Result<(), EngineError> {
    if keep.len() != rows.len() {
        return Err(EngineError::Internal(format!(
            "selectivity mask covers {} row(s) but the row set has {}",
            keep.len(),
            rows.len()
        )));
    }
    let mut it = keep.iter().copied();
    rows.retain(|_| it.next().unwrap_or(false));
    Ok(())
}

/// Hash equi-join. Builds on the right input, probes from the left. NULL
/// join keys never match (SQL semantics); for [`JoinKind::LeftOuter`],
/// unmatched left rows are padded with NULLs on the right.
fn hash_join(
    left: &ResultSet,
    right: &ResultSet,
    kind: JoinKind,
    on: &[(String, String)],
) -> Result<Vec<Row>, EngineError> {
    let lidx: Vec<usize> = on
        .iter()
        .map(|(l, _)| left.schema.require(l).map_err(EngineError::from))
        .collect::<Result<_, _>>()?;
    let ridx: Vec<usize> = on
        .iter()
        .map(|(_, r)| right.schema.require(r).map_err(EngineError::from))
        .collect::<Result<_, _>>()?;
    let pad = Row::nulls(right.schema.arity());

    // Cross join when there are no equality pairs.
    if on.is_empty() {
        let mut out = Vec::new();
        for l in &left.rows {
            if right.rows.is_empty() && kind == JoinKind::LeftOuter {
                out.push(l.concat(&pad));
            }
            out.extend(right.rows.iter().map(|r| l.concat(r)));
        }
        return Ok(out);
    }

    // Join keys use `join_hash`/`join_eq`, not the total-order Hash/Eq:
    // ±0.0 must land in one bucket and any NaN must match any NaN.
    let hash_key = |row: &Row, idx: &[usize]| -> u64 {
        let mut hasher = DefaultHasher::new();
        for &c in idx {
            row.get(c).join_hash(&mut hasher);
        }
        hasher.finish()
    };
    let mut build: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, r) in right.rows.iter().enumerate() {
        if ridx.iter().all(|&c| !r.get(c).is_null()) {
            // Bucket order is insertion order — probe rows emit their
            // matches in right-input order.
            build.entry(hash_key(r, &ridx)).or_default().push(i);
        }
    }

    let mut out = Vec::new();
    for l in &left.rows {
        let mut matched = false;
        if lidx.iter().all(|&c| !l.get(c).is_null()) {
            for &i in build.get(&hash_key(l, &lidx)).into_iter().flatten() {
                let r = &right.rows[i];
                if lidx
                    .iter()
                    .zip(&ridx)
                    .all(|(&lc, &rc)| l.get(lc).join_eq(r.get(rc)))
                {
                    out.push(l.concat(r));
                    matched = true;
                }
            }
        }
        if !matched && kind == JoinKind::LeftOuter {
            out.push(l.concat(&pad));
        }
    }
    Ok(out)
}
