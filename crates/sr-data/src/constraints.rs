//! Declared database constraints: keys, foreign keys, functional and
//! inclusion dependencies.
//!
//! The paper's §3.5 derives view-tree edge labels from two predicates:
//!
//! * **C1** — a functional dependency `Rc: x1..xm → xm+1..xn` holds on the
//!   child query's relation, and
//! * **C2** — an inclusion dependency `Rp[x1..xm] ⊆ Rc[x1..xm]` holds.
//!
//! SilkRoute reads these from a *source description* of the target database
//! (or derives them from key and referential constraints). This module models
//! that source description. The FD-implication check is the classical
//! linear-time membership algorithm of Beeri & Bernstein (paper ref. \[2\]) —
//! it deliberately ignores inclusion dependencies when deriving FDs, matching
//! the paper's restriction that keeps the check decidable and linear.

use std::collections::HashSet;

use crate::error::DataError;

/// A functional dependency `determinant → dependent` over one relation's
/// columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalDependency {
    /// Left-hand side columns.
    pub determinant: Vec<String>,
    /// Right-hand side columns.
    pub dependent: Vec<String>,
}

impl FunctionalDependency {
    /// `lhs → rhs`.
    pub fn new(lhs: &[&str], rhs: &[&str]) -> Self {
        FunctionalDependency {
            determinant: lhs.iter().map(|s| s.to_string()).collect(),
            dependent: rhs.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// An inclusion dependency `from_table[from_cols] ⊆ to_table[to_cols]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionDependency {
    /// Referencing table.
    pub from_table: String,
    /// Referencing columns.
    pub from_cols: Vec<String>,
    /// Referenced table.
    pub to_table: String,
    /// Referenced columns.
    pub to_cols: Vec<String>,
}

impl InclusionDependency {
    /// `from[fc] ⊆ to[tc]`.
    pub fn new(from: &str, fc: &[&str], to: &str, tc: &[&str]) -> Self {
        InclusionDependency {
            from_table: from.to_string(),
            from_cols: fc.iter().map(|s| s.to_string()).collect(),
            to_table: to.to_string(),
            to_cols: tc.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// A foreign key: a special inclusion dependency whose target is a key, plus
/// non-nullability information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing table.
    pub table: String,
    /// Referencing columns.
    pub columns: Vec<String>,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced (key) columns.
    pub ref_columns: Vec<String>,
    /// If `false`, every row of `table` has a non-NULL reference, so the
    /// inclusion is total — this is what makes a `1` label (vs. `?`).
    pub nullable: bool,
}

impl ForeignKey {
    /// A non-nullable foreign key.
    pub fn new(table: &str, cols: &[&str], ref_table: &str, ref_cols: &[&str]) -> Self {
        ForeignKey {
            table: table.to_string(),
            columns: cols.iter().map(|s| s.to_string()).collect(),
            ref_table: ref_table.to_string(),
            ref_columns: ref_cols.iter().map(|s| s.to_string()).collect(),
            nullable: false,
        }
    }

    /// View as an inclusion dependency.
    pub fn as_inclusion(&self) -> InclusionDependency {
        InclusionDependency {
            from_table: self.table.clone(),
            from_cols: self.columns.clone(),
            to_table: self.ref_table.clone(),
            to_cols: self.ref_columns.clone(),
        }
    }
}

/// All declared constraints for one table.
#[derive(Debug, Clone, Default)]
pub struct TableConstraints {
    /// Primary key columns (empty = no declared key).
    pub key: Vec<String>,
    /// Extra functional dependencies beyond the key.
    pub fds: Vec<FunctionalDependency>,
}

impl TableConstraints {
    /// Constraints with the given primary key.
    pub fn with_key(key: &[&str]) -> Self {
        TableConstraints {
            key: key.iter().map(|s| s.to_string()).collect(),
            fds: Vec::new(),
        }
    }
}

/// Compute the attribute closure `attrs+` under a set of FDs.
///
/// Linear-time in the total size of the FDs (Beeri–Bernstein); used to decide
/// FD membership: `X → Y` follows iff `Y ⊆ closure(X)`.
pub fn fd_closure(attrs: &[String], fds: &[FunctionalDependency]) -> HashSet<String> {
    let mut closure: HashSet<String> = attrs.iter().cloned().collect();
    // Count of unsatisfied LHS attributes per FD.
    let mut remaining: Vec<usize> = fds
        .iter()
        .map(|fd| {
            fd.determinant
                .iter()
                .filter(|a| !closure.contains(*a))
                .count()
        })
        .collect();
    let mut queue: Vec<usize> = remaining
        .iter()
        .enumerate()
        .filter(|(_, &r)| r == 0)
        .map(|(i, _)| i)
        .collect();
    let mut fired = vec![false; fds.len()];
    while let Some(i) = queue.pop() {
        if fired[i] {
            continue;
        }
        fired[i] = true;
        for a in &fds[i].dependent {
            if closure.insert(a.clone()) {
                for (j, fd) in fds.iter().enumerate() {
                    if !fired[j] && fd.determinant.iter().any(|d| d == a) {
                        remaining[j] = remaining[j].saturating_sub(1);
                        if remaining[j] == 0 {
                            queue.push(j);
                        }
                    }
                }
            }
        }
    }
    closure
}

/// Decide whether `lhs → rhs` is implied by `fds` (membership problem).
pub fn fd_implies(fds: &[FunctionalDependency], lhs: &[String], rhs: &[String]) -> bool {
    let closure = fd_closure(lhs, fds);
    rhs.iter().all(|a| closure.contains(a))
}

/// Validate that constraint column references exist in the given column set.
pub fn validate_columns(
    table: &str,
    cols: &[String],
    available: &HashSet<&str>,
) -> Result<(), DataError> {
    for c in cols {
        if !available.contains(c.as_str()) {
            return Err(DataError::BadConstraint(format!(
                "constraint on {table} references unknown column {c}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn closure_basic_chain() {
        // a → b, b → c ⇒ closure(a) = {a,b,c}
        let fds = vec![
            FunctionalDependency::new(&["a"], &["b"]),
            FunctionalDependency::new(&["b"], &["c"]),
        ];
        let cl = fd_closure(&s(&["a"]), &fds);
        assert!(cl.contains("a") && cl.contains("b") && cl.contains("c"));
        assert_eq!(cl.len(), 3);
    }

    #[test]
    fn closure_needs_full_lhs() {
        // ab → c: closure(a) must not include c
        let fds = vec![FunctionalDependency::new(&["a", "b"], &["c"])];
        let cl = fd_closure(&s(&["a"]), &fds);
        assert!(!cl.contains("c"));
        let cl2 = fd_closure(&s(&["a", "b"]), &fds);
        assert!(cl2.contains("c"));
    }

    #[test]
    fn implies_is_reflexive_and_augmented() {
        let fds = vec![FunctionalDependency::new(&["k"], &["x", "y"])];
        assert!(fd_implies(&fds, &s(&["k"]), &s(&["k"])));
        assert!(fd_implies(&fds, &s(&["k"]), &s(&["x"])));
        assert!(fd_implies(&fds, &s(&["k", "z"]), &s(&["y", "z"])));
        assert!(!fd_implies(&fds, &s(&["x"]), &s(&["k"])));
    }

    #[test]
    fn closure_is_idempotent_and_monotone() {
        let fds = vec![
            FunctionalDependency::new(&["a"], &["b"]),
            FunctionalDependency::new(&["b", "c"], &["d"]),
        ];
        let c1 = fd_closure(&s(&["a", "c"]), &fds);
        let c1v: Vec<String> = c1.iter().cloned().collect();
        let c2 = fd_closure(&c1v, &fds);
        assert_eq!(c1, c2, "idempotent");
        let small = fd_closure(&s(&["a"]), &fds);
        assert!(small.is_subset(&c1), "monotone");
    }

    #[test]
    fn fk_as_inclusion() {
        let fk = ForeignKey::new("Supplier", &["nationkey"], "Nation", &["nationkey"]);
        let inc = fk.as_inclusion();
        assert_eq!(inc.from_table, "Supplier");
        assert_eq!(inc.to_table, "Nation");
        assert!(!fk.nullable);
    }

    #[test]
    fn validate_columns_reports_bad_ref() {
        let avail: HashSet<&str> = ["a", "b"].into_iter().collect();
        assert!(validate_columns("T", &s(&["a"]), &avail).is_ok());
        assert!(validate_columns("T", &s(&["z"]), &avail).is_err());
    }

    #[test]
    fn self_looping_fd_terminates() {
        let fds = vec![FunctionalDependency::new(&["a"], &["a", "b"])];
        let cl = fd_closure(&s(&["a"]), &fds);
        assert!(cl.contains("b"));
    }
}
