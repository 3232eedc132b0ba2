//! Order-property propagation and sort elision.
//!
//! Every SQL query SilkRoute ships ends in an `ORDER BY` over the paper's
//! §3.2 sort-key layout, yet most plans already produce rows in exactly that
//! order: base tables are clustered by their leading key, the executor's
//! hash join preserves probe-side order, and projections merely rename
//! columns. Following Simmen et al.'s *Fundamental Techniques for Order
//! Optimization* (SIGMOD '96), each operator derives an [`OrderInfo`] —
//! the ordering its output satisfies plus the constants, column
//! equivalences, and functional dependencies needed to *reduce* a
//! requested order — and [`elide_sorts`] removes every `Sort` whose keys
//! are already satisfied.
//!
//! Soundness notes (all load-bearing, matched to `vexec.rs` semantics):
//!
//! * The executor's `Sort` is stable, so on already-ordered input it is the
//!   identity; eliding such a node changes neither row order nor content.
//! * The hash join probes with the **left** input in order and emits each
//!   probe row's matches in build-**insertion** order; a left-outer padded
//!   row takes the place of the (empty) match list. Hence left order is
//!   always preserved, and when the left ordering pins every left column
//!   (via FDs/constants) *and* left rows are distinct, the concatenated
//!   ordering `left ++ right` holds as well.
//! * `Value::cmp` treats `NULL = NULL` as equal, so equivalence classes
//!   survive the NULL-padding of a left outer join.

use std::collections::{BTreeMap, BTreeSet};

use sr_data::{Database, FunctionalDependency, Schema, Value};

use crate::expr::{CmpOp, Expr, Predicate};
use crate::plan::{JoinKind, Plan};

/// Order properties of a plan node's output, in the sense of Simmen et al.:
/// what ordering the rows satisfy, plus the side knowledge (constants,
/// equivalences, functional dependencies, duplicate-freeness) used to test
/// whether a requested sort order is already met.
#[derive(Debug, Clone, Default)]
pub struct OrderInfo {
    /// Columns the output is non-decreasing on, major first (lexicographic
    /// [`sr_data::Value`] order, `NULL` first). Empty means "unknown".
    pub ordering: Vec<String>,
    /// Columns known to hold a single value across all rows.
    pub constants: BTreeSet<String>,
    /// Column equivalence classes (from equi-join and filter predicates).
    pub classes: Vec<BTreeSet<String>>,
    /// Functional dependencies that hold on the output.
    pub fds: Vec<FunctionalDependency>,
    /// Whether the output provably contains no duplicate rows.
    pub no_dup: bool,
    /// Known literal values for constant columns projected from a constant
    /// (a subset of [`Self::constants`], e.g. `4 AS L2`). Used to order
    /// `UNION ALL` branches by their discriminator literals.
    pub lits: BTreeMap<String, Value>,
    /// Per-branch order properties of a `UNION ALL` ancestor: within each
    /// group of rows agreeing on all of [`Self::ordering`] (plus the
    /// constants), the rows come from a *single* branch, in that branch's
    /// relative order. [`Self::satisfies`] delegates trailing sort keys to
    /// every branch once the global ordering is exhausted.
    pub segments: Vec<OrderInfo>,
}

impl OrderInfo {
    /// The bottom element: nothing known about the output order.
    pub fn unknown() -> Self {
        OrderInfo::default()
    }

    /// Record that columns `a` and `b` hold equal values in every row.
    fn add_equiv(&mut self, a: &str, b: &str) {
        if a == b {
            return;
        }
        let ia = self.classes.iter().position(|c| c.contains(a));
        let ib = self.classes.iter().position(|c| c.contains(b));
        match (ia, ib) {
            (Some(x), Some(y)) if x == y => {}
            (Some(x), Some(y)) => {
                let donor = self.classes.swap_remove(x.max(y));
                self.classes[x.min(y)].extend(donor);
            }
            (Some(x), None) => {
                self.classes[x].insert(b.to_string());
            }
            (None, Some(y)) => {
                self.classes[y].insert(a.to_string());
            }
            (None, None) => {
                self.classes
                    .push([a.to_string(), b.to_string()].into_iter().collect());
            }
        }
    }

    /// All columns functionally determined by `seed`: the seed plus every
    /// constant, saturated under equivalence classes and FDs to a fixpoint
    /// (attribute sets here are tiny, so the simple loop suffices).
    pub fn closure(&self, seed: &[String]) -> BTreeSet<String> {
        let mut set: BTreeSet<String> = seed.iter().cloned().collect();
        set.extend(self.constants.iter().cloned());
        loop {
            let before = set.len();
            for class in &self.classes {
                if class.iter().any(|c| set.contains(c)) {
                    set.extend(class.iter().cloned());
                }
            }
            for fd in &self.fds {
                if fd.determinant.iter().all(|d| set.contains(d)) {
                    set.extend(fd.dependent.iter().cloned());
                }
            }
            if set.len() == before {
                return set;
            }
        }
    }

    /// `true` iff `a` and `b` are known equal in every row.
    fn equivalent(&self, a: &str, b: &str) -> bool {
        a == b || self.classes.iter().any(|c| c.contains(a) && c.contains(b))
    }

    /// Simmen-style order reduction: does this output already satisfy
    /// `ORDER BY keys`? Walks the requested keys against [`Self::ordering`];
    /// a key functionally determined by the keys consumed so far is skipped,
    /// and an ordering column determined by consumed keys is transparent.
    pub fn satisfies(&self, keys: &[String]) -> bool {
        let mut consumed: Vec<String> = Vec::new();
        let mut pos = 0usize;
        'keys: for (i, key) in keys.iter().enumerate() {
            if self.closure(&consumed).contains(key) {
                // Single-valued given what precedes it: no constraint.
                consumed.push(key.clone());
                continue;
            }
            while pos < self.ordering.len() {
                let col = &self.ordering[pos];
                pos += 1;
                if self.equivalent(col, key) {
                    consumed.push(key.clone());
                    continue 'keys;
                }
                if self.closure(&consumed).contains(col) {
                    // This ordering column is constant within the current
                    // group; it imposes no further ordering, keep scanning.
                    continue;
                }
                return false;
            }
            // The global ordering is exhausted, so every column of it is
            // fixed within the current group — and by the segment
            // invariant, each such group holds rows of a single union
            // branch in branch order. The remaining keys are satisfied iff
            // every branch satisfies them with the group-fixed columns
            // treated as constants.
            return !self.segments.is_empty()
                && self.segments.iter().all(|seg| {
                    let mut s = seg.clone();
                    s.constants.extend(consumed.iter().cloned());
                    s.constants.extend(self.constants.iter().cloned());
                    s.constants.extend(self.ordering.iter().cloned());
                    s.satisfies(&keys[i..])
                });
        }
        true
    }
}

/// Derive the [`OrderInfo`] of a plan's output. Conservative: anything not
/// provable returns towards [`OrderInfo::unknown`].
pub fn order_info(plan: &Plan, db: &Database) -> OrderInfo {
    derive(plan, db).0
}

/// Bottom-up driver for [`order_info`]: derives each node's [`OrderInfo`]
/// together with its output [`Schema`] in one traversal, so the
/// schema-dependent rules (projection survival, join pinning, NULL-padding)
/// don't re-walk the subtree at every node — that made the pass quadratic
/// in plan depth, and it runs on every query execution. A `None` schema
/// means the subtree doesn't type-check; analysis degrades to
/// [`OrderInfo::unknown`] wherever the schema is needed.
fn derive(plan: &Plan, db: &Database) -> (OrderInfo, Option<Schema>) {
    match plan {
        Plan::Scan { table, alias } => {
            let ordering = db
                .clustered_by(table)
                .iter()
                .map(|c| format!("{alias}_{c}"))
                .collect();
            let rename = |cols: &[String]| -> Vec<String> {
                cols.iter().map(|c| format!("{alias}_{c}")).collect()
            };
            let fds = db
                .fds_of(table)
                .iter()
                .map(|fd| FunctionalDependency {
                    determinant: rename(&fd.determinant),
                    dependent: rename(&fd.dependent),
                })
                .collect();
            let info = OrderInfo {
                ordering,
                fds,
                no_dup: !db.key_of(table).is_empty(),
                ..OrderInfo::default()
            };
            (info, plan.output_schema(db, &[]).ok())
        }
        Plan::Filter { input, predicates } => {
            let (mut info, schema) = derive(input, db);
            apply_filter_predicates(&mut info, predicates);
            (info, schema)
        }
        Plan::Project { input, items } => {
            let (inner, in_schema) = derive(input, db);
            let Some(in_schema) = in_schema else {
                return (OrderInfo::unknown(), None);
            };
            let info = project_over(&inner, &in_schema, items);
            let out = plan
                .output_schema(db, std::slice::from_ref(&in_schema))
                .ok();
            (info, out)
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let (l, ls) = derive(left, db);
            let (r, rs) = derive(right, db);
            let (Some(ls), Some(rs)) = (ls, rs) else {
                return (OrderInfo::unknown(), None);
            };
            let info = join_over(&l, &r, &ls, &rs, *kind, on);
            let kids = [ls, rs];
            (info, plan.output_schema(db, &kids).ok())
        }
        Plan::Sort { input, keys } => {
            let (mut info, schema) = derive(input, db);
            info.ordering = keys.clone();
            // Within an equal-keys group the (stable) sort keeps *input*
            // order across branch blocks, so segment claims no longer hold.
            info.segments.clear();
            (info, schema)
        }
        Plan::Distinct { input } => {
            // The executor keeps the first occurrence of each row in input
            // order, so ordering/constants/FDs all survive.
            let (mut info, schema) = derive(input, db);
            info.no_dup = true;
            (info, schema)
        }
        Plan::OuterUnion { inputs } if inputs.len() == 1 => {
            // A single branch passes through unchanged (the union schema of
            // one input is that input's schema).
            derive(&inputs[0], db)
        }
        Plan::OuterUnion { inputs } => {
            let mut branches = Vec::with_capacity(inputs.len());
            let mut schemas = Vec::with_capacity(inputs.len());
            for p in inputs {
                let (b, s) = derive(p, db);
                let Some(s) = s else {
                    return (OrderInfo::unknown(), None);
                };
                branches.push(b);
                schemas.push(s);
            }
            let info = union_over(branches, &schemas[0]);
            (info, plan.output_schema(db, &schemas).ok())
        }
        Plan::With { body, .. } => derive(body, db),
        Plan::CteScan { .. } => (OrderInfo::unknown(), plan.output_schema(db, &[]).ok()),
    }
}

/// Propagate equality predicates into an [`OrderInfo`] — and into its
/// union segments, since a predicate holding on all rows holds within each
/// branch. `col = literal` pins `col` but leaves [`OrderInfo::lits`] alone:
/// one prepared plan serves every value of that literal.
fn apply_filter_predicates(info: &mut OrderInfo, predicates: &[Predicate]) {
    for p in predicates {
        if p.op != CmpOp::Eq {
            continue;
        }
        match (&p.left, &p.right) {
            (Expr::Col(a), Expr::Col(b)) => info.add_equiv(a, b),
            (Expr::Col(c), Expr::Lit(_) | Expr::Param(..))
            | (Expr::Lit(_) | Expr::Param(..), Expr::Col(c)) => {
                info.constants.insert(c.clone());
            }
            _ => {}
        }
    }
    for seg in &mut info.segments {
        apply_filter_predicates(seg, predicates);
    }
}

/// Order properties of a multi-branch `UNION ALL` (the executor emits each
/// branch's rows in full, in branch order). When every branch pins a
/// discriminator column to a known literal and those literals strictly
/// ascend across branches — the §3.2 level columns `4 AS L2`, `5 AS L2` —
/// the concatenation is globally ordered by that column, and each branch's
/// own [`OrderInfo`] survives as a segment valid within its block.
fn union_over(branches: Vec<OrderInfo>, schema: &Schema) -> OrderInfo {
    let mut ordering: Vec<String> = Vec::new();
    let mut constants: BTreeSet<String> = BTreeSet::new();
    let mut lits: BTreeMap<String, Value> = BTreeMap::new();
    for name in schema.names() {
        let vals: Option<Vec<&Value>> = branches.iter().map(|b| b.lits.get(name)).collect();
        let Some(vals) = vals else { continue };
        if vals
            .windows(2)
            .all(|w| w[0].cmp(w[1]) == std::cmp::Ordering::Less)
        {
            ordering.push(name.to_string());
        } else if vals.windows(2).all(|w| w[0] == w[1]) {
            // Same literal in every branch: a global constant.
            constants.insert(name.to_string());
            lits.insert(name.to_string(), vals[0].clone());
        }
    }
    if ordering.is_empty() {
        return OrderInfo::unknown();
    }
    OrderInfo {
        ordering,
        constants,
        lits,
        segments: branches,
        ..OrderInfo::default()
    }
}

/// Order properties through a projection (rename / drop / literal columns —
/// [`Expr`] has no computed forms); recursive so union segments project
/// through the same expression list.
fn project_over(inner: &OrderInfo, in_schema: &Schema, items: &[(String, Expr)]) -> OrderInfo {
    // Input column → output names carrying it.
    let mut out_names: Vec<(&str, Vec<&str>)> = Vec::new();
    let mut constants: BTreeSet<String> = BTreeSet::new();
    let mut lits: BTreeMap<String, Value> = BTreeMap::new();
    for (name, expr) in items {
        match expr {
            Expr::Col(c) => match out_names.iter_mut().find(|(k, _)| k == c) {
                Some((_, outs)) => outs.push(name),
                None => out_names.push((c, vec![name])),
            },
            Expr::Lit(v) => {
                constants.insert(name.clone());
                lits.insert(name.clone(), v.clone());
            }
            Expr::TypedNull(_) => {
                constants.insert(name.clone());
                lits.insert(name.clone(), Value::Null);
            }
            Expr::Param(..) => {
                constants.insert(name.clone());
            }
        }
    }
    let direct = |col: &str| -> Option<&str> {
        out_names
            .iter()
            .find(|(k, _)| *k == col)
            .map(|(_, outs)| outs[0])
    };
    // Representative output column for an input column: a direct mapping, or
    // one via an equivalent input column.
    let rep = |col: &str| -> Option<String> {
        if let Some(o) = direct(col) {
            return Some(o.to_string());
        }
        for class in &inner.classes {
            if class.contains(col) {
                for member in class {
                    if let Some(o) = direct(member) {
                        return Some(o.to_string());
                    }
                }
            }
        }
        None
    };

    // Input-side constants stay constant under their new names, carrying
    // their known literal values along.
    let const_closure = inner.closure(&[]);
    for (name, expr) in items {
        if let Expr::Col(c) = expr {
            if const_closure.contains(c) {
                constants.insert(name.clone());
            }
            if let Some(v) = inner.lits.get(c) {
                lits.insert(name.clone(), v.clone());
            }
        }
    }

    // Equivalence classes: outputs sourced from one equivalence class (or
    // copies of one column) are pairwise equal.
    let mut groups: Vec<(String, BTreeSet<String>)> = Vec::new();
    for (name, expr) in items {
        if let Expr::Col(c) = expr {
            let key = match inner.classes.iter().position(|cl| cl.contains(c.as_str())) {
                Some(i) => format!("class#{i}"),
                None => format!("col#{c}"),
            };
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, set)) => {
                    set.insert(name.clone());
                }
                None => {
                    groups.push((key, [name.clone()].into_iter().collect()));
                }
            }
        }
    }
    let classes: Vec<BTreeSet<String>> = groups
        .into_iter()
        .map(|(_, set)| set)
        .filter(|set| set.len() > 1)
        .collect();

    // FDs: widen each determinant to its full closure first, so chains that
    // pass through *dropped* columns (e.g. join keys projected away) still
    // surface as output-to-output dependencies; then rename both sides.
    let mut fds: Vec<FunctionalDependency> = Vec::new();
    // Each FD's determinant closure, computed once up front — both the main
    // loop and the pseudo-transitivity search below consult them, and
    // recomputing inside the search made this loop quadratic in FD count.
    let fd_closures: Vec<BTreeSet<String>> = inner
        .fds
        .iter()
        .map(|fd| inner.closure(&fd.determinant))
        .collect();
    for (fd, dependents) in inner.fds.iter().zip(&fd_closures) {
        let mut det_out: Vec<String> = Vec::new();
        let mut representable = true;
        for d in &fd.determinant {
            if const_closure.contains(d) {
                continue; // constant determinant columns are free
            }
            if let Some(r) = rep(d) {
                if !det_out.contains(&r) {
                    det_out.push(r);
                }
                continue;
            }
            // Pseudo-transitivity: a dropped determinant column may be
            // replaced by the (representable) determinant of an FD that
            // derives it — e.g. a projected-away right join key derived
            // from the surviving left one.
            let substitute = inner.fds.iter().zip(&fd_closures).find_map(|(g, gcl)| {
                if !gcl.contains(d) {
                    return None;
                }
                g.determinant
                    .iter()
                    .filter(|c| !const_closure.contains(*c))
                    .map(|c| rep(c))
                    .collect::<Option<Vec<String>>>()
            });
            match substitute {
                Some(cols) => {
                    for r in cols {
                        if !det_out.contains(&r) {
                            det_out.push(r);
                        }
                    }
                }
                None => {
                    representable = false;
                    break;
                }
            }
        }
        if !representable {
            continue;
        }
        let dep_out: Vec<String> = dependents
            .iter()
            .filter(|d| !fd.determinant.contains(d))
            .filter_map(|d| rep(d))
            .filter(|o| !det_out.contains(o))
            .collect();
        if dep_out.is_empty() {
            continue;
        }
        if det_out.is_empty() {
            // Determined entirely by constants.
            constants.extend(dep_out);
        } else {
            fds.push(FunctionalDependency {
                determinant: det_out,
                dependent: dep_out,
            });
        }
    }

    // Ordering: keep the maximal prefix that survives the projection. A
    // column determined by the prefix kept so far is transparent (it cannot
    // break ties the prefix has not already broken).
    let mut ordering: Vec<String> = Vec::new();
    let mut kept: Vec<String> = Vec::new();
    for col in &inner.ordering {
        if inner.closure(&kept).contains(col) {
            continue;
        }
        match rep(col) {
            Some(o) => {
                ordering.push(o);
                kept.push(col.clone());
            }
            None => break,
        }
    }

    // Duplicate-freeness survives iff the surviving input columns determine
    // every input column (then distinct input rows stay distinct).
    let surviving: Vec<String> = in_schema
        .names()
        .filter(|n| rep(n).is_some())
        .map(str::to_string)
        .collect();
    let no_dup = inner.no_dup && {
        let cl = inner.closure(&surviving);
        in_schema.names().all(|n| cl.contains(n))
    };

    // Union segments project through the same expression list. Globally
    // valid knowledge (constants, classes, FDs, literals) holds within
    // each branch too, so fold it in before projecting — a branch column
    // only representable via a global equivalence still survives.
    let segments = inner
        .segments
        .iter()
        .map(|seg| {
            let mut s = seg.clone();
            s.constants.extend(inner.constants.iter().cloned());
            s.classes.extend(inner.classes.iter().cloned());
            s.fds.extend(inner.fds.iter().cloned());
            for (k, v) in &inner.lits {
                s.lits.entry(k.clone()).or_insert_with(|| v.clone());
            }
            project_over(&s, in_schema, items)
        })
        .collect();

    OrderInfo {
        ordering,
        constants,
        classes,
        fds,
        no_dup,
        lits,
        segments,
    }
}

/// Order properties through the executor's hash join (see module docs for
/// the execution-order guarantees this relies on).
fn join_over(
    l: &OrderInfo,
    r: &OrderInfo,
    lschema: &Schema,
    rschema: &Schema,
    kind: JoinKind,
    on: &[(String, String)],
) -> OrderInfo {
    let mut info = OrderInfo {
        ordering: l.ordering.clone(),
        constants: l.constants.clone(),
        classes: l.classes.iter().chain(r.classes.iter()).cloned().collect(),
        fds: l.fds.clone(),
        no_dup: l.no_dup && r.no_dup,
        lits: l.lits.clone(),
        segments: Vec::new(),
    };

    // When the left ordering pins every left column and left rows are
    // distinct, each probe row forms its own contiguous group, inside which
    // matches arrive in build-insertion (= right input) order — so the
    // right ordering extends the left one.
    let lclosure = l.closure(&l.ordering);
    if l.no_dup && lschema.names().all(|c| lclosure.contains(c)) {
        info.ordering.extend(r.ordering.iter().cloned());
        // Right-side union segments ride along: a group of equal ordering
        // values is one probe row's match list — a subset of one branch in
        // branch order. The join equalities hold on every matched row (a
        // left-outer padded group is a singleton, trivially ordered), so
        // they may strengthen each segment.
        info.segments = r
            .segments
            .iter()
            .map(|seg| {
                let mut s = seg.clone();
                for (lc, rc) in on {
                    s.add_equiv(lc, rc);
                }
                s
            })
            .collect();
    }

    match kind {
        JoinKind::Inner => {
            info.constants.extend(r.constants.iter().cloned());
            info.fds.extend(r.fds.iter().cloned());
            for (k, v) in &r.lits {
                info.lits.entry(k.clone()).or_insert_with(|| v.clone());
            }
            for (lc, rc) in on {
                info.add_equiv(lc, rc);
            }
        }
        JoinKind::LeftOuter => {
            // Padded rows break `l = r` pairwise equivalence and right-side
            // constants, but rows agreeing on all left join columns are
            // either all matched (same matches) or all padded — so the left
            // join columns determine the right ones.
            let lcols: Vec<String> = on.iter().map(|(a, _)| a.clone()).collect();
            let rcols: Vec<String> = on.iter().map(|(_, b)| b.clone()).collect();
            if !on.is_empty() {
                info.fds.push(FunctionalDependency {
                    determinant: lcols,
                    dependent: rcols.clone(),
                });
            }
            // A right FD survives NULL-padding if some determinant column
            // was non-nullable *before* padding: padded rows then all carry
            // NULL there, a value no matched row can carry.
            let non_nullable = |c: &String| {
                rschema
                    .position(c)
                    .map(|i| !rschema.column(i).nullable)
                    .unwrap_or(false)
            };
            for fd in &r.fds {
                if fd.determinant.iter().any(&non_nullable) {
                    info.fds.push(fd.clone());
                }
            }
            // A right-side constant becomes "determined by the join columns":
            // matched rows carry the constant, padded rows carry NULL.
            if !on.is_empty() && rcols.iter().any(&non_nullable) {
                for c in &r.constants {
                    info.fds.push(FunctionalDependency {
                        determinant: rcols.clone(),
                        dependent: vec![c.clone()],
                    });
                }
            }
        }
    }
    info
}

/// Remove every `Sort` whose keys are already satisfied by its input's
/// derived order properties. Returns the rewritten plan and the number of
/// sorts elided. Because the executor's sort is stable, an elided sort is
/// exactly the identity — row content *and* order are unchanged.
pub fn elide_sorts(plan: Plan, db: &Database) -> (Plan, usize) {
    match plan {
        Plan::Sort { input, keys } => {
            let (input, mut n) = elide_sorts(*input, db);
            if order_info(&input, db).satisfies(&keys) {
                n += 1;
                (input, n)
            } else {
                (
                    Plan::Sort {
                        input: Box::new(input),
                        keys,
                    },
                    n,
                )
            }
        }
        Plan::Filter { input, predicates } => {
            let (input, n) = elide_sorts(*input, db);
            (
                Plan::Filter {
                    input: Box::new(input),
                    predicates,
                },
                n,
            )
        }
        Plan::Project { input, items } => {
            let (input, n) = elide_sorts(*input, db);
            (
                Plan::Project {
                    input: Box::new(input),
                    items,
                },
                n,
            )
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let (left, nl) = elide_sorts(*left, db);
            let (right, nr) = elide_sorts(*right, db);
            (
                Plan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    kind,
                    on,
                },
                nl + nr,
            )
        }
        Plan::OuterUnion { inputs } => {
            let mut n = 0;
            let inputs = inputs
                .into_iter()
                .map(|p| {
                    let (p, k) = elide_sorts(p, db);
                    n += k;
                    p
                })
                .collect();
            (Plan::OuterUnion { inputs }, n)
        }
        Plan::Distinct { input } => {
            let (input, n) = elide_sorts(*input, db);
            (
                Plan::Distinct {
                    input: Box::new(input),
                },
                n,
            )
        }
        Plan::With { ctes, body } => {
            let mut n = 0;
            let ctes = ctes
                .into_iter()
                .map(|(name, def)| {
                    let (def, k) = elide_sorts(def, db);
                    n += k;
                    (name, def)
                })
                .collect();
            let (body, k) = elide_sorts(*body, db);
            n += k;
            (
                Plan::With {
                    ctes,
                    body: Box::new(body),
                },
                n,
            )
        }
        leaf @ (Plan::Scan { .. } | Plan::CteScan { .. }) => (leaf, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::expr::Predicate;
    use sr_data::{row, DataType, Schema, Table, Value};

    /// Supplier(suppkey, name, nationkey) clustered+keyed by suppkey;
    /// PartSupp(partkey, suppkey, qty) keyed by (partkey, suppkey),
    /// clustered by partkey.
    fn db() -> Database {
        let mut db = Database::new();
        let mut s = Table::new(
            "Supplier",
            Schema::of(&[
                ("suppkey", DataType::Int),
                ("name", DataType::Str),
                ("nationkey", DataType::Int),
            ]),
        );
        s.insert_all([
            row![1i64, "S1", 10i64],
            row![2i64, "S2", 11i64],
            row![3i64, "S3", 10i64],
        ])
        .unwrap();
        let mut ps = Table::new(
            "PartSupp",
            Schema::of(&[
                ("partkey", DataType::Int),
                ("suppkey", DataType::Int),
                ("qty", DataType::Int),
            ]),
        );
        ps.insert_all([
            row![100i64, 1i64, 5i64],
            row![100i64, 3i64, 6i64],
            row![101i64, 1i64, 7i64],
            row![102i64, 2i64, 8i64],
        ])
        .unwrap();
        db.add_table(s);
        db.add_table(ps);
        db.declare_key("Supplier", &["suppkey"]).unwrap();
        db.declare_key("PartSupp", &["partkey", "suppkey"]).unwrap();
        db.declare_clustered_by("Supplier", &["suppkey"]).unwrap();
        db.declare_clustered_by("PartSupp", &["partkey"]).unwrap();
        db
    }

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scan_reports_clustering_and_key_fd() {
        let db = db();
        let info = order_info(&Plan::scan("Supplier", "s"), &db);
        assert_eq!(info.ordering, strs(&["s_suppkey"]));
        assert!(info.no_dup);
        assert!(info.satisfies(&strs(&["s_suppkey"])));
        // The key FD lets trailing determined columns ride along.
        assert!(info.satisfies(&strs(&["s_suppkey", "s_name", "s_nationkey"])));
        assert!(!info.satisfies(&strs(&["s_name"])));
    }

    #[test]
    fn filter_constants_make_leading_keys_free() {
        let db = db();
        let plan = Plan::scan("Supplier", "s").filter(vec![Predicate::new(
            Expr::col("s_nationkey"),
            CmpOp::Eq,
            Expr::lit(10i64),
        )]);
        let info = order_info(&plan, &db);
        // A constant column satisfies any position in the requested order.
        assert!(info.satisfies(&strs(&["s_nationkey", "s_suppkey"])));
    }

    #[test]
    fn project_renames_and_literals_are_constants() {
        let db = db();
        let plan = Plan::scan("Supplier", "s").project(vec![
            ("l1".into(), Expr::lit(1i64)),
            ("k".into(), Expr::col("s_suppkey")),
            ("n".into(), Expr::col("s_name")),
        ]);
        let info = order_info(&plan, &db);
        assert_eq!(info.ordering, strs(&["k"]));
        assert!(info.constants.contains("l1"));
        assert!(info.no_dup, "key survived the projection");
        // The §3.2 layout: leading literal level column, then the key, then
        // a key-determined payload column.
        assert!(info.satisfies(&strs(&["l1", "k", "n"])));
    }

    #[test]
    fn project_dropping_key_loses_no_dup() {
        let db = db();
        let plan =
            Plan::scan("Supplier", "s").project(vec![("n".into(), Expr::col("s_nationkey"))]);
        let info = order_info(&plan, &db);
        assert!(!info.no_dup);
        assert!(info.ordering.is_empty());
    }

    #[test]
    fn join_extends_ordering_when_left_is_pinned() {
        let db = db();
        let plan = Plan::scan("Supplier", "s").join(
            Plan::scan("PartSupp", "ps"),
            JoinKind::LeftOuter,
            vec![("s_suppkey".into(), "ps_suppkey".into())],
        );
        let info = order_info(&plan, &db);
        // Left scan is unique and its ordering (the key) pins all left
        // columns, so the right clustering rides along.
        assert_eq!(info.ordering, strs(&["s_suppkey", "ps_partkey"]));
        assert!(info.satisfies(&strs(&["s_suppkey", "ps_partkey"])));
        // …and the executor agrees.
        let sorted = Plan::Sort {
            input: Box::new(plan.clone()),
            keys: strs(&["s_suppkey", "ps_partkey"]),
        };
        assert_eq!(
            execute(&plan, &db).unwrap().rows,
            execute(&sorted, &db).unwrap().rows
        );
    }

    #[test]
    fn inner_join_equivalence_substitutes_in_satisfies() {
        let db = db();
        let plan = Plan::scan("Supplier", "s").join(
            Plan::scan("PartSupp", "ps"),
            JoinKind::Inner,
            vec![("s_suppkey".into(), "ps_suppkey".into())],
        );
        let info = order_info(&plan, &db);
        // ps_suppkey is equivalent to s_suppkey, the leading order column.
        assert!(info.satisfies(&strs(&["ps_suppkey"])));
    }

    #[test]
    fn unpinned_left_does_not_extend() {
        let db = db();
        // Probe PartSupp (clustered by partkey only — suppkey within a part
        // is unordered), build Supplier: right ordering must NOT ride along.
        let plan = Plan::scan("PartSupp", "ps").join(
            Plan::scan("Supplier", "s"),
            JoinKind::Inner,
            vec![("ps_suppkey".into(), "s_suppkey".into())],
        );
        let info = order_info(&plan, &db);
        assert_eq!(info.ordering, strs(&["ps_partkey"]));
        assert!(!info.satisfies(&strs(&["ps_partkey", "ps_suppkey"])));
    }

    #[test]
    fn elide_removes_satisfied_sort_only() {
        let db = db();
        let satisfied = Plan::scan("Supplier", "s").sort(strs(&["s_suppkey", "s_name"]));
        let (plan, n) = elide_sorts(satisfied, &db);
        assert_eq!(n, 1);
        assert_eq!(plan, Plan::scan("Supplier", "s"));

        let needed = Plan::scan("Supplier", "s").sort(strs(&["s_nationkey"]));
        let (plan, n) = elide_sorts(needed.clone(), &db);
        assert_eq!(n, 0);
        assert_eq!(plan, needed);
    }

    #[test]
    fn elision_preserves_rows_exactly() {
        let db = db();
        // §3.2-shaped query: constant level column, join, rename, sort.
        let plan = Plan::scan("Supplier", "s")
            .join(
                Plan::scan("PartSupp", "ps"),
                JoinKind::LeftOuter,
                vec![("s_suppkey".into(), "ps_suppkey".into())],
            )
            .project(vec![
                ("L1".into(), Expr::lit(1i64)),
                ("v1".into(), Expr::col("s_suppkey")),
                ("v2".into(), Expr::col("s_name")),
                ("v3".into(), Expr::col("ps_partkey")),
                ("v4".into(), Expr::col("ps_qty")),
            ])
            .sort(strs(&["L1", "v1", "v2", "v3", "v4"]));
        let (elided, n) = elide_sorts(plan.clone(), &db);
        assert_eq!(n, 1, "top sort elided:\n{elided}");
        let mut has_sort = false;
        elided.visit(&mut |p| has_sort |= matches!(p, Plan::Sort { .. }));
        assert!(!has_sort);
        assert_eq!(
            execute(&plan, &db).unwrap().rows,
            execute(&elided, &db).unwrap().rows
        );
    }

    #[test]
    fn union_of_discriminated_branches_orders_by_level() {
        let db = db();
        // Two §3.2-style branches: ascending level literals discriminate.
        let b1 = Plan::scan("Supplier", "s").project(vec![
            ("lvl".into(), Expr::lit(1i64)),
            ("k".into(), Expr::col("s_suppkey")),
            ("pk".into(), Expr::TypedNull(DataType::Int)),
        ]);
        let b2 = Plan::scan("PartSupp", "ps").project(vec![
            ("lvl".into(), Expr::lit(2i64)),
            ("k".into(), Expr::col("ps_suppkey")),
            ("pk".into(), Expr::col("ps_partkey")),
        ]);
        let union = Plan::OuterUnion {
            inputs: vec![b1, b2],
        };
        let info = order_info(&union, &db);
        assert_eq!(info.ordering, strs(&["lvl"]));
        assert_eq!(info.segments.len(), 2);
        // Within block 1 `pk` is a NULL constant; within block 2 it is the
        // clustering column — so [lvl, pk] is satisfied…
        assert!(info.satisfies(&strs(&["lvl", "pk"])));
        // …but [lvl, k] is not: block 2 is ordered by pk, not k.
        assert!(!info.satisfies(&strs(&["lvl", "k"])));
        // The executor agrees that sorting by [lvl, pk] is the identity.
        let (elided, n) = elide_sorts(union.clone().sort(strs(&["lvl", "pk"])), &db);
        assert_eq!(n, 1);
        assert_eq!(
            execute(&union, &db).unwrap().rows,
            execute(&elided, &db).unwrap().rows
        );
        // Descending discriminators give no global ordering.
        let descending = Plan::OuterUnion {
            inputs: vec![
                Plan::scan("Supplier", "s").project(vec![
                    ("lvl".into(), Expr::lit(2i64)),
                    ("k".into(), Expr::col("s_suppkey")),
                ]),
                Plan::scan("Supplier", "s2").project(vec![
                    ("lvl".into(), Expr::lit(1i64)),
                    ("k".into(), Expr::col("s2_suppkey")),
                ]),
            ],
        };
        assert!(order_info(&descending, &db).ordering.is_empty());
    }

    #[test]
    fn satisfies_handles_null_equal_classes() {
        // Regression guard for the LeftOuter class argument: NULL == NULL
        // under Value::cmp, which the class-survival rule relies on.
        assert_eq!(Value::Null.cmp(&Value::Null), std::cmp::Ordering::Equal);
    }
}
