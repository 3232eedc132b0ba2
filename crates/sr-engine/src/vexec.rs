//! Vectorized (batch-at-a-time) plan execution — the engine's executor.
//!
//! Operators consume and produce [`ColumnBatch`]es of up to [`BATCH_ROWS`]
//! rows instead of paying per-row costs (enum dispatch per cell, an
//! `Arc<[Value]>` allocation per output row, `Arc<str>` refcount traffic in
//! every projection and union). Filters produce selection vectors instead
//! of moving rows, integer filters prune whole batches via per-batch
//! min/max zone maps (so a range predicate over a clustered key reads
//! only the batches it keeps), and values are only materialized at the wire
//! encoder ([`crate::wire::encode_batch_into`]) — late materialization.
//!
//! Semantics are SQL's as the row-at-a-time reference executor (tests
//! only) spells them: the same total value order for sorts, the same NULL
//! comparison rules for filters, the same `join_hash`/`join_eq` key
//! semantics for joins, and the same first-occurrence-wins dedup — so the
//! encoded result bytes are identical, which the conformance goldens and a
//! proptest against the reference enforce.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use sr_data::column::{Column, ColumnBatch, ColumnData, BATCH_ROWS};
use sr_data::{DataType, Database, Row, Schema, Value};

use crate::error::EngineError;
use crate::exec::{ExecCtx, ExecProfile};
use crate::expr::{BoundExpr, BoundPredicate, CmpOp};
use crate::faults::FaultSite;
use crate::plan::{JoinKind, Plan};

/// A query result in column-major form. Batches hold at most
/// [`BATCH_ROWS`] rows.
#[derive(Debug, Clone)]
pub struct VecResultSet {
    /// Output schema.
    pub schema: Schema,
    /// Output batches, in row order. Never contains empty batches.
    pub batches: Vec<ColumnBatch>,
}

impl VecResultSet {
    /// Total number of rows across batches.
    pub fn len(&self) -> usize {
        self.batches.iter().map(ColumnBatch::len).sum()
    }

    /// `true` iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Materialize every row.
    pub fn to_rows(&self) -> Vec<Row> {
        self.batches.iter().flat_map(ColumnBatch::to_rows).collect()
    }
}

/// A multiply-xor hash (FxHash, the rustc hash): a couple of arithmetic
/// ops per word where SipHash pays full rounds plus per-hash finish cost.
/// Join build/probe and dedup hash one key per row on the hot path and
/// only need both sides of the *same* in-memory map to agree — hash
/// choice never reaches the wire — so DoS resistance buys nothing here.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashMap` keyed through [`FxHasher`] — the hash-bucket tables the
/// vectorized join and dedup build per query.
type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// One cell viewed in place inside a batch — no allocation, no `Arc`
/// traffic. The vectorized operators compare/hash these directly.
#[derive(Clone, Copy)]
enum CellRef<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a [u8]),
}

#[inline]
fn cell(col: &Column, i: usize) -> CellRef<'_> {
    if !col.is_valid(i) {
        return CellRef::Null;
    }
    match col.data() {
        ColumnData::Int64(v) => CellRef::Int(v[i]),
        ColumnData::Float64(v) => CellRef::Float(v[i]),
        ColumnData::Utf8 { offsets, bytes } => {
            CellRef::Str(&bytes[offsets[i] as usize..offsets[i + 1] as usize])
        }
    }
}

#[inline]
fn lit_cell(v: &Value) -> CellRef<'_> {
    match v {
        Value::Null => CellRef::Null,
        Value::Int(i) => CellRef::Int(*i),
        Value::Float(x) => CellRef::Float(*x),
        Value::Str(s) => CellRef::Str(s.as_bytes()),
    }
}

#[inline]
fn expr_cell<'a>(e: &'a BoundExpr, batch: &'a ColumnBatch, i: usize) -> CellRef<'a> {
    match e {
        BoundExpr::Col(c) => cell(batch.column(*c), i),
        BoundExpr::Lit(v) => lit_cell(v),
    }
}

/// Total order over cells, mirroring [`Value`]'s `Ord` exactly:
/// `NULL < Int/Float (numeric, total_cmp) < Str (byte-lexicographic)`.
/// Byte order equals `str` order for UTF-8, so sorts agree with `Value`
/// order bit for bit.
fn cmp_cells(a: CellRef<'_>, b: CellRef<'_>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    use CellRef::*;
    match (a, b) {
        (Null, Null) => Ordering::Equal,
        (Null, _) => Ordering::Less,
        (_, Null) => Ordering::Greater,
        (Int(a), Int(b)) => a.cmp(&b),
        (Float(a), Float(b)) => a.total_cmp(&b),
        (Int(a), Float(b)) => (a as f64).total_cmp(&b),
        (Float(a), Int(b)) => a.total_cmp(&(b as f64)),
        (Str(a), Str(b)) => a.cmp(b),
        (Int(_) | Float(_), Str(_)) => Ordering::Less,
        (Str(_), Int(_) | Float(_)) => Ordering::Greater,
    }
}

/// SQL comparison over cells: any NULL operand ⇒ false, matching
/// [`CmpOp::apply`] on `Value`s.
#[inline]
fn apply_cmp(op: CmpOp, a: CellRef<'_>, b: CellRef<'_>) -> bool {
    use std::cmp::Ordering;
    if matches!(a, CellRef::Null) || matches!(b, CellRef::Null) {
        return false;
    }
    let ord = cmp_cells(a, b);
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Hash mirroring `Value`'s total-order `Hash` impl (dedup keys).
fn total_hash_cell<H: Hasher>(c: CellRef<'_>, state: &mut H) {
    match c {
        CellRef::Null => 0u8.hash(state),
        CellRef::Int(i) => {
            1u8.hash(state);
            i.hash(state);
        }
        CellRef::Float(x) => {
            let x = if x == 0.0 { 0.0f64 } else { x };
            if x.fract() == 0.0 && x >= i64::MIN as f64 && x <= i64::MAX as f64 {
                1u8.hash(state);
                (x as i64).hash(state);
            } else {
                2u8.hash(state);
                x.to_bits().hash(state);
            }
        }
        CellRef::Str(s) => {
            3u8.hash(state);
            // Invariant: column bytes are valid UTF-8; hash through `str`
            // to match `Value::Str`'s hash exactly.
            std::str::from_utf8(s).unwrap_or("").hash(state);
        }
    }
}

/// Hash mirroring [`Value::join_hash`] (join keys: canonical NaN, -0.0→0.0).
fn join_hash_cell<H: Hasher>(c: CellRef<'_>, state: &mut H) {
    match c {
        CellRef::Float(x) => total_hash_cell(CellRef::Float(Value::canonical_join_float(x)), state),
        other => total_hash_cell(other, state),
    }
}

/// Equality mirroring [`Value::join_eq`]: NULL never matches, numeric
/// cross-type matches, floats canonicalized.
fn join_eq_cells(a: CellRef<'_>, b: CellRef<'_>) -> bool {
    use CellRef::*;
    match (a, b) {
        (Null, _) | (_, Null) => false,
        (Int(a), Int(b)) => a == b,
        (Float(a), Float(b)) => {
            Value::canonical_join_float(a).to_bits() == Value::canonical_join_float(b).to_bits()
        }
        (Int(a), Float(b)) => (a as f64)
            .total_cmp(&Value::canonical_join_float(b))
            .is_eq(),
        (Float(a), Int(b)) => Value::canonical_join_float(a)
            .total_cmp(&(b as f64))
            .is_eq(),
        (Str(a), Str(b)) => a == b,
        _ => false,
    }
}

/// Execute `plan`, recording per-operator rows and batch counts into the
/// shared [`ExecProfile`]. `id` is the
/// node's preorder id (see [`Plan::children`]), under which its per-node
/// stat is kept when `ctx.nodes` is set.
pub(crate) fn vexec(
    plan: &Plan,
    db: &Database,
    ctx: &mut ExecCtx<'_>,
    id: usize,
) -> Result<VecResultSet, EngineError> {
    let start = ctx.node_start();
    let rs = vexec_op(plan, db, ctx, id)?;
    ctx.node_done(plan, id, start, rs.len(), rs.batches.len());
    Ok(rs)
}

fn vexec_op(
    plan: &Plan,
    db: &Database,
    ctx: &mut ExecCtx<'_>,
    id: usize,
) -> Result<VecResultSet, EngineError> {
    match plan {
        Plan::Scan { table, alias: _ } => {
            if let Some(f) = ctx.faults {
                f.hit(FaultSite::Scan)?;
            }
            let t = db.table(table)?;
            let columnar = t.columnar();
            ctx.tick(columnar.row_count() as u64)?;
            let schema = plan.schema(db)?;
            // Re-aliasing reuses the stored columns by `Arc` — the scan is
            // O(batches), not O(rows).
            let batches = columnar
                .batches()
                .iter()
                .filter(|b| !b.is_empty())
                .map(|b| b.renamed(schema.clone()).map_err(EngineError::from))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(VecResultSet { schema, batches })
        }
        Plan::Filter { input, predicates } => {
            let rs = vexec(input, db, ctx, id + 1)?;
            let bound = predicates
                .iter()
                .map(|p| p.bind(&rs.schema))
                .collect::<Result<Vec<_>, _>>()?;
            let mut batches = Vec::with_capacity(rs.batches.len());
            for batch in &rs.batches {
                ctx.tick(batch.len() as u64)?;
                if let Some(out) = filter_batch(batch, &bound, ctx.profile)? {
                    batches.push(out);
                }
            }
            Ok(VecResultSet {
                schema: rs.schema,
                batches,
            })
        }
        Plan::Project { input, items } => {
            let rs = vexec(input, db, ctx, id + 1)?;
            let bound = items
                .iter()
                .map(|(_, e)| e.bind(&rs.schema))
                .collect::<Result<Vec<_>, _>>()?;
            let schema = plan.schema(db)?;
            let mut batches = Vec::with_capacity(rs.batches.len());
            for batch in &rs.batches {
                ctx.tick(batch.len() as u64)?;
                let columns = bound
                    .iter()
                    .enumerate()
                    .map(|(o, e)| match e {
                        // Column forwarding is an Arc clone — no row work.
                        BoundExpr::Col(i) => Ok(batch.column(*i).clone()),
                        BoundExpr::Lit(Value::Null) => {
                            Ok(Column::nulls(schema.column(o).dtype, batch.len()))
                        }
                        BoundExpr::Lit(v) => {
                            Column::repeated(v, schema.column(o).dtype, batch.len())
                                .map_err(EngineError::from)
                        }
                    })
                    .collect::<Result<Vec<_>, EngineError>>()?;
                batches.push(ColumnBatch::from_columns(schema.clone(), columns)?);
            }
            Ok(VecResultSet { schema, batches })
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let lrs = vexec(left, db, ctx, id + 1)?;
            let rrs = vexec(right, db, ctx, id + 1 + left.node_count())?;
            let schema = plan.schema(db)?;
            let batches = vec_hash_join(&lrs, &rrs, *kind, on, &schema, ctx)?;
            Ok(VecResultSet { schema, batches })
        }
        Plan::OuterUnion { inputs } => {
            let schema = plan.schema(db)?;
            let mut batches = Vec::new();
            let mut child_id = id + 1;
            for input in inputs {
                let rs = vexec(input, db, ctx, child_id)?;
                child_id += input.node_count();
                // Union position -> branch position (None = NULL pad), one
                // mapping per branch; each output column is either an Arc
                // clone or an all-NULL vector.
                let mapping: Vec<Option<usize>> =
                    schema.names().map(|n| rs.schema.position(n)).collect();
                for batch in &rs.batches {
                    ctx.tick(batch.len() as u64)?;
                    let columns = mapping
                        .iter()
                        .enumerate()
                        .map(|(o, m)| match m {
                            Some(i) => batch.column(*i).clone(),
                            None => Column::nulls(schema.column(o).dtype, batch.len()),
                        })
                        .collect();
                    batches.push(ColumnBatch::from_columns(schema.clone(), columns)?);
                }
            }
            Ok(VecResultSet { schema, batches })
        }
        Plan::Sort { input, keys } => {
            let rs = vexec(input, db, ctx, id + 1)?;
            let idx: Vec<usize> = keys
                .iter()
                .map(|k| rs.schema.require(k).map_err(EngineError::from))
                .collect::<Result<_, _>>()?;
            let total: usize = rs.batches.iter().map(ColumnBatch::len).sum();
            ctx.tick(total as u64)?;
            if total == 0 {
                return Ok(VecResultSet {
                    schema: rs.schema,
                    batches: Vec::new(),
                });
            }
            // One global gather source, then a stable index sort with an
            // allocation-free comparator. Stable — sort elision relies on it
            // (an already ordered input must pass through as the identity).
            let big = ColumnBatch::concat(&rs.schema, &rs.batches)?;
            let key_cols: Vec<&Column> = idx.iter().map(|&i| big.column(i)).collect();
            let mut order: Vec<u32> = (0..total as u32).collect();
            order.sort_by(|&a, &b| {
                for col in &key_cols {
                    let o = cmp_cells(cell(col, a as usize), cell(col, b as usize));
                    if !o.is_eq() {
                        return o;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let batches = order
                .chunks(BATCH_ROWS)
                .map(|sel| big.gather(sel).map_err(EngineError::from))
                .collect::<Result<_, _>>()?;
            Ok(VecResultSet {
                schema: rs.schema,
                batches,
            })
        }
        Plan::Distinct { input } => {
            let rs = vexec(input, db, ctx, id + 1)?;
            // Global dedup across batches: hash buckets with cell-wise
            // verification, first occurrence wins (input order preserved).
            let mut seen: FxMap<u64, Vec<(usize, u32)>> = FxMap::default();
            let mut batches = Vec::with_capacity(rs.batches.len());
            for (bi, batch) in rs.batches.iter().enumerate() {
                ctx.tick(batch.len() as u64)?;
                let mut keep: Vec<u32> = Vec::new();
                for i in 0..batch.len() {
                    let mut hasher = FxHasher::default();
                    for col in batch.columns() {
                        total_hash_cell(cell(col, i), &mut hasher);
                    }
                    let bucket = seen.entry(hasher.finish()).or_default();
                    let fresh = !bucket.iter().any(|&(pb, pi)| {
                        let prev = &rs.batches[pb];
                        (0..batch.columns().len()).all(|c| {
                            cmp_cells(cell(batch.column(c), i), cell(prev.column(c), pi as usize))
                                .is_eq()
                        })
                    });
                    if fresh {
                        bucket.push((bi, i as u32));
                        keep.push(i as u32);
                    }
                }
                if keep.len() == batch.len() {
                    batches.push(batch.clone());
                } else if !keep.is_empty() {
                    batches.push(batch.gather(&keep)?);
                }
            }
            Ok(VecResultSet {
                schema: rs.schema,
                batches,
            })
        }
    }
}

/// Zone-map verdict for one predicate over one batch.
enum ZoneVerdict {
    /// Every row fails — drop the batch without touching a cell.
    AllFalse,
    /// Every row passes — skip the predicate (requires a NULL-free column).
    AllTrue,
    /// Must look at the rows.
    Unknown,
}

/// Consult the Int zone map for `col op k` (already normalized so the
/// column is on the left). NULL cells make a predicate false, so AllFalse
/// verdicts are safe with NULLs present, while AllTrue additionally
/// requires a NULL-free column.
fn zone_verdict(col: &Column, op: CmpOp, k: i64) -> ZoneVerdict {
    let Some((min, max)) = col.zone() else {
        return ZoneVerdict::Unknown;
    };
    let all_false = match op {
        CmpOp::Eq => k < min || k > max,
        CmpOp::Ne => min == max && min == k,
        CmpOp::Lt => min >= k,
        CmpOp::Le => min > k,
        CmpOp::Gt => max <= k,
        CmpOp::Ge => max < k,
    };
    if all_false {
        return ZoneVerdict::AllFalse;
    }
    if col.null_count() == 0 {
        let all_true = match op {
            CmpOp::Eq => min == max && min == k,
            CmpOp::Ne => k < min || k > max,
            CmpOp::Lt => max < k,
            CmpOp::Le => max <= k,
            CmpOp::Gt => min > k,
            CmpOp::Ge => min >= k,
        };
        if all_true {
            return ZoneVerdict::AllTrue;
        }
    }
    ZoneVerdict::Unknown
}

/// `col op Int-literal` shape of a bound predicate, normalized so the
/// column is on the left (mirroring the operator when the literal was).
fn int_col_lit(batch: &ColumnBatch, p: &BoundPredicate) -> Option<(usize, CmpOp, i64)> {
    let mirrored = |op: CmpOp| match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    };
    let (c, op, k) = match (&p.left, &p.right) {
        (BoundExpr::Col(c), BoundExpr::Lit(Value::Int(k))) => (*c, p.op, *k),
        (BoundExpr::Lit(Value::Int(k)), BoundExpr::Col(c)) => (*c, mirrored(p.op), *k),
        _ => return None,
    };
    (batch.column(c).dtype() == DataType::Int).then_some((c, op, k))
}

/// Filter one batch through all predicates; returns `None` when no row
/// survives. Records the batch's selectivity (rows out ‰) in the profile.
fn filter_batch(
    batch: &ColumnBatch,
    bound: &[BoundPredicate],
    profile: &mut ExecProfile,
) -> Result<Option<ColumnBatch>, EngineError> {
    // `None` = all rows still candidates (common case: zone maps resolve
    // the pushed-down range predicates without building a vector).
    let mut sel: Option<Vec<u32>> = None;
    for p in bound {
        if let Some((c, op, k)) = int_col_lit(batch, p) {
            match zone_verdict(batch.column(c), op, k) {
                ZoneVerdict::AllFalse => {
                    profile.selectivity.push(0);
                    return Ok(None);
                }
                ZoneVerdict::AllTrue => continue,
                ZoneVerdict::Unknown => {
                    // Tight loop over the int vector for the pushed-range
                    // shape; validity checked per cell.
                    let col = batch.column(c);
                    let ColumnData::Int64(v) = col.data() else {
                        unreachable!("int_col_lit checked the dtype");
                    };
                    let pass = |i: u32| {
                        let i = i as usize;
                        col.is_valid(i) && apply_cmp(op, CellRef::Int(v[i]), CellRef::Int(k))
                    };
                    sel = Some(match sel.take() {
                        None => (0..batch.len() as u32).filter(|&i| pass(i)).collect(),
                        Some(old) => old.into_iter().filter(|&i| pass(i)).collect(),
                    });
                }
            }
        } else {
            let pass = |i: u32| {
                apply_cmp(
                    p.op,
                    expr_cell(&p.left, batch, i as usize),
                    expr_cell(&p.right, batch, i as usize),
                )
            };
            sel = Some(match sel.take() {
                None => (0..batch.len() as u32).filter(|&i| pass(i)).collect(),
                Some(old) => old.into_iter().filter(|&i| pass(i)).collect(),
            });
        }
        if sel.as_ref().is_some_and(Vec::is_empty) {
            profile.selectivity.push(0);
            return Ok(None);
        }
    }
    match sel {
        None => {
            profile.selectivity.push(1000);
            Ok(Some(batch.clone()))
        }
        Some(sel) => {
            profile
                .selectivity
                .push((sel.len() * 1000 / batch.len().max(1)) as u64);
            Ok(Some(batch.gather(&sel)?))
        }
    }
}

/// Vectorized hash equi-join: build on the right, probe left batches,
/// verify candidates cell-wise, emit gathered output in [`BATCH_ROWS`]
/// chunks. NULL keys never match; [`JoinKind::LeftOuter`] pads unmatched
/// left rows by gathering the right side at `u32::MAX`.
fn vec_hash_join(
    left: &VecResultSet,
    right: &VecResultSet,
    kind: JoinKind,
    on: &[(String, String)],
    out_schema: &Schema,
    ctx: &mut ExecCtx<'_>,
) -> Result<Vec<ColumnBatch>, EngineError> {
    let lidx: Vec<usize> = on
        .iter()
        .map(|(l, _)| left.schema.require(l).map_err(EngineError::from))
        .collect::<Result<_, _>>()?;
    let ridx: Vec<usize> = on
        .iter()
        .map(|(_, r)| right.schema.require(r).map_err(EngineError::from))
        .collect::<Result<_, _>>()?;

    // One contiguous right side to probe into / gather from.
    let rbatch = if right.batches.is_empty() {
        ColumnBatch::from_rows(&right.schema, &[])?
    } else {
        ColumnBatch::concat(&right.schema, &right.batches)?
    };

    let mut out = Vec::new();
    let mut emit = |lbatch: &ColumnBatch, lsel: &[u32], rsel: &[u32]| -> Result<(), EngineError> {
        for (ls, rs) in lsel.chunks(BATCH_ROWS).zip(rsel.chunks(BATCH_ROWS)) {
            let mut columns = lbatch.gather(ls)?.columns().to_vec();
            columns.extend_from_slice(rbatch.gather(rs)?.columns());
            out.push(ColumnBatch::from_columns(out_schema.clone(), columns)?);
        }
        Ok(())
    };

    // Cross join when there are no equality pairs.
    if on.is_empty() {
        for lbatch in &left.batches {
            let mut lsel = Vec::new();
            let mut rsel = Vec::new();
            if rbatch.is_empty() && kind == JoinKind::LeftOuter {
                lsel.extend(0..lbatch.len() as u32);
                rsel.resize(lbatch.len(), u32::MAX);
            } else {
                ctx.tick(lbatch.len() as u64 * rbatch.len() as u64)?;
                for i in 0..lbatch.len() as u32 {
                    for j in 0..rbatch.len() as u32 {
                        lsel.push(i);
                        rsel.push(j);
                    }
                }
            }
            emit(lbatch, &lsel, &rsel)?;
        }
        return Ok(out);
    }

    // Build side: bucket right-row indices by key hash, skipping NULL keys.
    // Bucket order is insertion order, so probes emit matches in
    // right-input order, which order-property propagation relies on.
    let rkey_cols: Vec<&Column> = ridx.iter().map(|&c| rbatch.column(c)).collect();
    let mut build: FxMap<u64, Vec<u32>> =
        FxMap::with_capacity_and_hasher(rbatch.len(), BuildHasherDefault::default());
    ctx.tick(rbatch.len() as u64)?;
    'rrows: for i in 0..rbatch.len() {
        let mut hasher = FxHasher::default();
        for col in &rkey_cols {
            let c = cell(col, i);
            if matches!(c, CellRef::Null) {
                continue 'rrows;
            }
            join_hash_cell(c, &mut hasher);
        }
        build.entry(hasher.finish()).or_default().push(i as u32);
    }

    for lbatch in &left.batches {
        let lkey_cols: Vec<&Column> = lidx.iter().map(|&c| lbatch.column(c)).collect();
        let mut lsel: Vec<u32> = Vec::new();
        let mut rsel: Vec<u32> = Vec::new();
        ctx.tick(lbatch.len() as u64)?;
        'probe: for i in 0..lbatch.len() {
            let mut hasher = FxHasher::default();
            for col in &lkey_cols {
                let c = cell(col, i);
                if matches!(c, CellRef::Null) {
                    if kind == JoinKind::LeftOuter {
                        lsel.push(i as u32);
                        rsel.push(u32::MAX);
                    }
                    continue 'probe;
                }
                join_hash_cell(c, &mut hasher);
            }
            let mut matched = false;
            if let Some(candidates) = build.get(&hasher.finish()) {
                for &j in candidates {
                    let verified = lkey_cols
                        .iter()
                        .zip(&rkey_cols)
                        .all(|(lc, rc)| join_eq_cells(cell(lc, i), cell(rc, j as usize)));
                    if verified {
                        lsel.push(i as u32);
                        rsel.push(j);
                        matched = true;
                    }
                }
            }
            if !matched && kind == JoinKind::LeftOuter {
                lsel.push(i as u32);
                rsel.push(u32::MAX);
            }
        }
        emit(lbatch, &lsel, &rsel)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::exec::{execute, execute_profiled, execute_profiled_with};
    use crate::expr::{Expr, Predicate};
    use crate::reference;
    use proptest::prelude::*;
    use sr_data::{row, Table};

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

    /// The executor and the row-at-a-time reference must produce identical
    /// rows (hence identical bytes).
    fn assert_paths_agree(plan: &Plan, db: &Database) {
        let tuple = reference::execute(plan, db).unwrap();
        let (vec, _) = execute_profiled(plan, db).unwrap();
        assert_eq!(vec.schema, tuple.schema);
        assert_eq!(vec.to_rows(), tuple.rows, "plan: {plan:?}");
        let mut batch_bytes = Vec::new();
        for b in &vec.batches {
            batch_bytes.extend_from_slice(&crate::wire::encode_batch(b));
        }
        assert_eq!(
            crate::wire::encode_rows(&tuple.rows).as_ref(),
            batch_bytes.as_slice(),
            "wire bytes must be identical"
        );
    }

    #[test]
    fn scan_filter_project_agree() {
        let db = db();
        assert_paths_agree(&Plan::scan("Supplier", "s"), &db);
        assert_paths_agree(
            &Plan::scan("Supplier", "s").filter(vec![Predicate::new(
                Expr::col("s_suppkey"),
                CmpOp::Ge,
                Expr::lit(2i64),
            )]),
            &db,
        );
        assert_paths_agree(
            &Plan::scan("Supplier", "s").project(vec![
                ("L1".into(), Expr::lit(1i64)),
                ("k".into(), Expr::col("s_suppkey")),
                ("pad".into(), Expr::TypedNull(DataType::Str)),
            ]),
            &db,
        );
    }

    #[test]
    fn joins_agree() {
        let db = db();
        let on = vec![("s_suppkey".to_string(), "ps_suppkey".to_string())];
        assert_paths_agree(
            &Plan::scan("Supplier", "s").join(
                Plan::scan("PartSupp", "ps"),
                JoinKind::Inner,
                on.clone(),
            ),
            &db,
        );
        assert_paths_agree(
            &Plan::scan("Supplier", "s").join(
                Plan::scan("PartSupp", "ps"),
                JoinKind::LeftOuter,
                on,
            ),
            &db,
        );
        // Cross join.
        assert_paths_agree(
            &Plan::scan("Supplier", "s").join(
                Plan::scan("PartSupp", "ps"),
                JoinKind::Inner,
                vec![],
            ),
            &db,
        );
    }

    #[test]
    fn union_sort_distinct_agree() {
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
        assert_paths_agree(&u, &db);
        assert_paths_agree(&u.clone().sort(vec!["k".into(), "part".into()]), &db);
        let d = Plan::Distinct {
            input: Box::new(
                Plan::scan("PartSupp", "ps").project(vec![("s".into(), Expr::col("ps_suppkey"))]),
            ),
        };
        assert_paths_agree(&d, &db);
    }

    #[test]
    fn float_join_keys_agree_on_nan_and_signed_zero_vectorized() {
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
        assert_paths_agree(&outer, &db);
    }

    #[test]
    fn zone_maps_prune_pushed_ranges() {
        // A clustered-key range predicate pushed to the scan
        // must resolve mostly via zone maps: full batches pass or are
        // dropped without a selection vector.
        let mut db = Database::new();
        let mut t = Table::new("T", Schema::of(&[("k", DataType::Int)]));
        for i in 0..5000i64 {
            t.insert(row![i]).unwrap();
        }
        db.add_table(t);
        let p = Plan::scan("T", "t").filter(vec![
            Predicate::new(Expr::col("t_k"), CmpOp::Ge, Expr::lit(1024i64)),
            Predicate::new(Expr::col("t_k"), CmpOp::Lt, Expr::lit(2048i64)),
        ]);
        let (rs, profile) = execute_profiled(&p, &db).unwrap();
        assert_eq!(rs.len(), 1024);
        // 5 input batches: 1 all-in (selectivity 1000), 4 pruned or
        // partially selected. The all-in batch must have passed through
        // without a gather (clone of the scan batch).
        assert!(
            profile.selectivity.contains(&1000),
            "{:?}",
            profile.selectivity
        );
        assert!(
            profile.selectivity.contains(&0),
            "{:?}",
            profile.selectivity
        );
        assert_paths_agree(&p, &db);
    }

    #[test]
    fn profile_counts_batches() {
        let db = db();
        let (_, profile) = execute_profiled(&Plan::scan("Supplier", "s"), &db).unwrap();
        assert_eq!(profile.ops["scan"].batches, 1);
        assert_eq!(profile.ops["scan"].rows_out, 3);
        assert_eq!(profile.total_batches(), 1);
    }

    #[test]
    fn empty_tables_yield_empty_results() {
        let mut db = Database::new();
        db.add_table(Table::new("E", Schema::of(&[("k", DataType::Int)])));
        let p = Plan::scan("E", "e").sort(vec!["e_k".into()]);
        let (rs, _) = execute_profiled(&p, &db).unwrap();
        assert!(rs.is_empty());
        assert_eq!(rs.len(), 0);
        assert_paths_agree(&p, &db);
    }

    #[test]
    fn vectorized_scan_fault_fires() {
        use crate::faults::{FaultInjector, FaultPlan};
        let db = db();
        let inj = FaultInjector::new(FaultPlan::parse("transient@scan#1", 0).unwrap());
        let p = Plan::scan("Supplier", "s");
        match execute_profiled_with(&p, &db, &CancelToken::none(), Some(&inj)) {
            Err(EngineError::Transient(m)) => assert!(m.contains("scan"), "{m}"),
            other => panic!("expected transient, got {other:?}"),
        }
    }

    fn random_db() -> Database {
        let mut db = Database::new();
        let mut a = Table::new(
            "A",
            Schema::of(&[
                ("id", DataType::Int),
                ("g", DataType::Int),
                ("s", DataType::Str),
            ]),
        );
        for i in 0..20i64 {
            a.insert(row![i, i % 4, format!("a{}", i % 3)]).unwrap();
        }
        let mut b = Table::new(
            "B",
            Schema::of(&[
                ("id", DataType::Int),
                ("aid", DataType::Int),
                ("v", DataType::Float),
            ]),
        );
        for i in 0..30i64 {
            b.insert(Row::new(vec![
                Value::Int(i),
                Value::Int(i % 25),
                Value::Float(i as f64 / 4.0),
            ]))
            .unwrap();
        }
        db.add_table(a);
        db.add_table(b);
        db
    }

    /// A random-plan generation recipe; aliases and output names are assigned
    /// during conversion so they stay globally unique within one plan. (Same
    /// recipe the SQL round-trip proptest uses.)
    #[derive(Debug, Clone)]
    enum Gen {
        ScanA,
        ScanB,
        FilterFirstIntGt(Box<Gen>, i64),
        ProjectFirstTwo(Box<Gen>),
        Join(Box<Gen>, Box<Gen>, bool),
        UnionFirstInt(Box<Gen>, Box<Gen>),
        SortAll(Box<Gen>),
        Distinct(Box<Gen>),
    }

    fn gen_strategy() -> impl Strategy<Value = Gen> {
        let leaf = prop_oneof![Just(Gen::ScanA), Just(Gen::ScanB)];
        leaf.prop_recursive(3, 12, 3, |inner| {
            prop_oneof![
                (inner.clone(), 0i64..20).prop_map(|(p, n)| Gen::FilterFirstIntGt(Box::new(p), n)),
                inner
                    .clone()
                    .prop_map(|p| Gen::ProjectFirstTwo(Box::new(p))),
                (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(l, r, outer)| Gen::Join(
                    Box::new(l),
                    Box::new(r),
                    outer
                )),
                (inner.clone(), inner.clone())
                    .prop_map(|(l, r)| Gen::UnionFirstInt(Box::new(l), Box::new(r))),
                inner.clone().prop_map(|p| Gen::SortAll(Box::new(p))),
                inner.prop_map(|p| Gen::Distinct(Box::new(p))),
            ]
        })
    }

    struct Builder<'a> {
        db: &'a Database,
        counter: usize,
    }

    impl<'a> Builder<'a> {
        fn fresh(&mut self) -> usize {
            self.counter += 1;
            self.counter
        }

        fn build(&mut self, g: &Gen) -> Plan {
            match g {
                Gen::ScanA => Plan::scan("A", format!("t{}", self.fresh())),
                Gen::ScanB => Plan::scan("B", format!("t{}", self.fresh())),
                Gen::FilterFirstIntGt(inner, n) => {
                    let p = self.build(inner);
                    match self.first_int_col(&p) {
                        Some(col) => p.filter(vec![Predicate::new(
                            Expr::col(col),
                            CmpOp::Gt,
                            Expr::lit(*n),
                        )]),
                        None => p,
                    }
                }
                Gen::ProjectFirstTwo(inner) => {
                    let p = self.build(inner);
                    let schema = p.schema(self.db).expect("schema");
                    let n = self.fresh();
                    let items: Vec<(String, Expr)> = schema
                        .names()
                        .take(2)
                        .enumerate()
                        .map(|(i, c)| (format!("p{n}_{i}"), Expr::col(c.to_string())))
                        .collect();
                    p.project(items)
                }
                Gen::Join(l, r, outer) => {
                    let lp = self.build(l);
                    let rp = self.build(r);
                    let (Some(lc), Some(rc)) = (self.first_int_col(&lp), self.first_int_col(&rp))
                    else {
                        return lp;
                    };
                    let kind = if *outer {
                        JoinKind::LeftOuter
                    } else {
                        JoinKind::Inner
                    };
                    lp.join(rp, kind, vec![(lc, rc)])
                }
                Gen::UnionFirstInt(l, r) => {
                    let n = self.fresh();
                    let mut branches = Vec::new();
                    for g in [l, r] {
                        let p = self.build(g);
                        match self.first_int_col(&p) {
                            Some(c) => {
                                branches.push(p.project(vec![(format!("u{n}"), Expr::col(c))]));
                            }
                            None => return self.build(g),
                        }
                    }
                    Plan::OuterUnion { inputs: branches }
                }
                Gen::SortAll(inner) => {
                    let p = self.build(inner);
                    let keys: Vec<String> = p
                        .schema(self.db)
                        .expect("schema")
                        .names()
                        .map(str::to_string)
                        .collect();
                    p.sort(keys)
                }
                Gen::Distinct(inner) => Plan::Distinct {
                    input: Box::new(self.build(inner)),
                },
            }
        }

        fn first_int_col(&self, p: &Plan) -> Option<String> {
            let schema = p.schema(self.db).ok()?;
            schema
                .columns()
                .iter()
                .find(|c| c.dtype == DataType::Int)
                .map(|c| c.name.clone())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// For random plans the executor's wire encoding is byte-for-byte the
        /// reference's: any divergence in bytes (not just rows) is a bug.
        #[test]
        fn vectorized_matches_tuple_bytes_for_random_plans(g in gen_strategy()) {
            let db = random_db();
            let plan = Builder { db: &db, counter: 0 }.build(&g);
            let tuple = reference::execute(&plan, &db).expect("reference executor");
            let (vector, _) = execute_profiled(&plan, &db).expect("executor");
            prop_assert_eq!(&tuple.schema, &vector.schema);
            prop_assert_eq!(tuple.rows.len(), vector.len());
            let want = crate::wire::encode_rows(&tuple.rows);
            let mut got = Vec::with_capacity(want.len());
            for b in &vector.batches {
                got.extend_from_slice(&crate::wire::encode_batch(b));
            }
            prop_assert_eq!(
                got.as_slice(),
                want.as_ref(),
                "wire bytes diverge between executors"
            );
        }
    }
}
