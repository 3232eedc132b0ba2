//! The database catalog: named tables plus the *source description* —
//! declared keys, foreign keys, and dependencies — that SilkRoute's
//! middle-ware layer consults (paper §3.5: "the database constraints are
//! specified in a source description file, but they could be derived from key
//! constraints and referential constraints extracted from the schema").

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use crate::constraints::{
    validate_columns, ForeignKey, FunctionalDependency, InclusionDependency, TableConstraints,
};
use crate::error::DataError;
use crate::stats::TableStats;
use crate::table::Table;

/// A database: tables, constraints, and lazily computed statistics.
///
/// `Database` is `Sync` (each table keeps its statistics in a `OnceLock`)
/// so the engine "server" can execute queries from multiple streams
/// concurrently.
///
/// ```
/// use sr_data::{row, Database, DataType, Schema, Table};
/// let mut db = Database::new();
/// let mut t = Table::new("Region", Schema::of(&[
///     ("regionkey", DataType::Int), ("name", DataType::Str)]));
/// t.insert(row![1i64, "EUROPE"]).unwrap();
/// db.add_table(t);
/// db.declare_key("Region", &["regionkey"]).unwrap();
/// assert_eq!(db.stats("Region").unwrap().row_count, 1);
/// ```
pub struct Database {
    tables: BTreeMap<String, Table>,
    constraints: BTreeMap<String, TableConstraints>,
    clustering: BTreeMap<String, Vec<String>>,
    foreign_keys: Vec<ForeignKey>,
    inclusions: Vec<InclusionDependency>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database {
            tables: BTreeMap::new(),
            constraints: BTreeMap::new(),
            clustering: BTreeMap::new(),
            foreign_keys: Vec::new(),
            inclusions: Vec::new(),
        }
    }

    /// Add (or replace) a table.
    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Declare a table's primary key.
    pub fn declare_key(&mut self, table: &str, key: &[&str]) -> Result<(), DataError> {
        let t = self.table(table)?;
        let avail: HashSet<&str> = t.schema().names().collect();
        let tc = TableConstraints::with_key(key);
        validate_columns(table, &tc.key, &avail)?;
        self.constraints.insert(table.to_string(), tc);
        Ok(())
    }

    /// Declare that a table's rows are physically stored in non-decreasing
    /// order of the given columns (lexicographically, `NULL` first). Part of
    /// the source description: the engine's order-property reasoning uses it
    /// to elide sorts over base-table scans. The declaration is validated
    /// against the current data.
    pub fn declare_clustered_by(&mut self, table: &str, cols: &[&str]) -> Result<(), DataError> {
        let t = self.table(table)?;
        let avail: HashSet<&str> = t.schema().names().collect();
        let cols_owned: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
        validate_columns(table, &cols_owned, &avail)?;
        t.check_clustered(cols)?;
        self.clustering.insert(table.to_string(), cols_owned);
        Ok(())
    }

    /// The declared clustering (physical sort order) of a table, empty if
    /// none was declared.
    pub fn clustered_by(&self, table: &str) -> &[String] {
        self.clustering.get(table).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Declare an additional functional dependency on a table.
    pub fn declare_fd(&mut self, table: &str, fd: FunctionalDependency) -> Result<(), DataError> {
        let t = self.table(table)?;
        let avail: HashSet<&str> = t.schema().names().collect();
        validate_columns(table, &fd.determinant, &avail)?;
        validate_columns(table, &fd.dependent, &avail)?;
        self.constraints
            .entry(table.to_string())
            .or_default()
            .fds
            .push(fd);
        Ok(())
    }

    /// Declare a foreign key (also recorded as an inclusion dependency).
    pub fn declare_foreign_key(&mut self, fk: ForeignKey) -> Result<(), DataError> {
        let from = self.table(&fk.table)?;
        let avail: HashSet<&str> = from.schema().names().collect();
        validate_columns(&fk.table, &fk.columns, &avail)?;
        let to = self.table(&fk.ref_table)?;
        let avail_to: HashSet<&str> = to.schema().names().collect();
        validate_columns(&fk.ref_table, &fk.ref_columns, &avail_to)?;
        self.inclusions.push(fk.as_inclusion());
        self.foreign_keys.push(fk);
        Ok(())
    }

    /// Declare a bare inclusion dependency (a business rule such as "every
    /// supplier has at least one part") that is not backed by a foreign key.
    /// Used by view-tree labeling to derive `+` edge labels.
    pub fn declare_inclusion(&mut self, ind: InclusionDependency) {
        self.inclusions.push(ind);
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table, DataError> {
        self.tables
            .get(name)
            .ok_or_else(|| DataError::UnknownTable(name.to_string()))
    }

    /// Mutable access to a table (e.g. for data loading).
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, DataError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| DataError::UnknownTable(name.to_string()))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// The declared key of a table, empty if none.
    pub fn key_of(&self, table: &str) -> &[String] {
        self.constraints
            .get(table)
            .map(|c| c.key.as_slice())
            .unwrap_or(&[])
    }

    /// All FDs that hold on a table: the key FD (`key → all columns`) plus
    /// explicitly declared FDs.
    pub fn fds_of(&self, table: &str) -> Vec<FunctionalDependency> {
        let mut fds = Vec::new();
        if let Some(tc) = self.constraints.get(table) {
            if !tc.key.is_empty() {
                if let Ok(t) = self.table(table) {
                    let all: Vec<&str> = t.schema().names().collect();
                    fds.push(FunctionalDependency::new(
                        &tc.key.iter().map(String::as_str).collect::<Vec<_>>(),
                        &all,
                    ));
                }
            }
            fds.extend(tc.fds.iter().cloned());
        }
        fds
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// All inclusion dependencies (currently: those induced by foreign keys).
    pub fn inclusions(&self) -> &[InclusionDependency] {
        &self.inclusions
    }

    /// Find the foreign key from `table[cols]` if one is declared.
    pub fn foreign_key_from(&self, table: &str, cols: &[String]) -> Option<&ForeignKey> {
        self.foreign_keys
            .iter()
            .find(|fk| fk.table == table && fk.columns == cols)
    }

    /// Statistics for a table, computed on first use and kept by the table.
    pub fn stats(&self, table: &str) -> Result<Arc<TableStats>, DataError> {
        Ok(self.table(table)?.stats())
    }

    /// Validate every declared key and clustering against the data.
    pub fn check_integrity(&self) -> Result<(), DataError> {
        for (name, tc) in &self.constraints {
            if tc.key.is_empty() {
                continue;
            }
            let t = self.table(name)?;
            let key: Vec<&str> = tc.key.iter().map(String::as_str).collect();
            t.check_key(&key)?;
        }
        for (name, cols) in &self.clustering {
            let t = self.table(name)?;
            let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
            t.check_clustered(&cols)?;
        }
        Ok(())
    }

    /// Total simulated byte size of all tables.
    pub fn byte_size(&self) -> usize {
        self.tables.values().map(Table::byte_size).sum()
    }

    /// Total row count across tables.
    pub fn row_count(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Database({} tables, {} rows, {} bytes)",
            self.tables.len(),
            self.row_count(),
            self.byte_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut nation = Table::new(
            "Nation",
            Schema::of(&[("nationkey", DataType::Int), ("name", DataType::Str)]),
        );
        nation
            .insert_all([row![1i64, "USA"], row![2i64, "Spain"]])
            .unwrap();
        let mut supp = Table::new(
            "Supplier",
            Schema::of(&[
                ("suppkey", DataType::Int),
                ("name", DataType::Str),
                ("nationkey", DataType::Int),
            ]),
        );
        supp.insert_all([row![10i64, "S1", 1i64], row![11i64, "S2", 2i64]])
            .unwrap();
        db.add_table(nation);
        db.add_table(supp);
        db.declare_key("Nation", &["nationkey"]).unwrap();
        db.declare_key("Supplier", &["suppkey"]).unwrap();
        db.declare_foreign_key(ForeignKey::new(
            "Supplier",
            &["nationkey"],
            "Nation",
            &["nationkey"],
        ))
        .unwrap();
        db
    }

    #[test]
    fn lookup_and_keys() {
        let db = db();
        assert_eq!(db.key_of("Supplier"), &["suppkey".to_string()]);
        assert!(db.table("Missing").is_err());
        assert_eq!(
            db.table_names().collect::<Vec<_>>(),
            vec!["Nation", "Supplier"]
        );
    }

    #[test]
    fn key_fd_is_generated() {
        let db = db();
        let fds = db.fds_of("Supplier");
        assert_eq!(fds.len(), 1);
        assert_eq!(fds[0].determinant, vec!["suppkey"]);
        assert!(fds[0].dependent.contains(&"nationkey".to_string()));
    }

    #[test]
    fn fk_also_recorded_as_inclusion() {
        let db = db();
        assert_eq!(db.foreign_keys().len(), 1);
        assert_eq!(db.inclusions().len(), 1);
        assert!(db
            .foreign_key_from("Supplier", &["nationkey".to_string()])
            .is_some());
        assert!(db
            .foreign_key_from("Supplier", &["name".to_string()])
            .is_none());
    }

    #[test]
    fn bad_constraint_references_rejected() {
        let mut db = db();
        assert!(db.declare_key("Supplier", &["nope"]).is_err());
        assert!(db
            .declare_foreign_key(ForeignKey::new(
                "Supplier",
                &["zzz"],
                "Nation",
                &["nationkey"]
            ))
            .is_err());
        assert!(db
            .declare_fd("Nation", FunctionalDependency::new(&["name"], &["bogus"]))
            .is_err());
    }

    #[test]
    fn clustering_declared_and_validated() {
        let mut db = db();
        assert!(db.clustered_by("Supplier").is_empty());
        db.declare_clustered_by("Supplier", &["suppkey"]).unwrap();
        assert_eq!(db.clustered_by("Supplier"), &["suppkey".to_string()]);
        // Key declaration order must not wipe the clustering.
        db.declare_key("Supplier", &["suppkey"]).unwrap();
        assert_eq!(db.clustered_by("Supplier"), &["suppkey".to_string()]);
        assert!(db.check_integrity().is_ok());
        // Out-of-order data is rejected at declaration time ("USA" comes
        // before "Spain" in the fixture)...
        assert!(db.declare_clustered_by("Nation", &["name"]).is_err());
        // ...and by the integrity check once the data regresses.
        db.table_mut("Supplier")
            .unwrap()
            .insert(row![5i64, "S0", 1i64])
            .unwrap();
        assert!(db.check_integrity().is_err());
    }

    #[test]
    fn stats_reflect_insert() {
        let mut db = db();
        let s1 = db.stats("Supplier").unwrap();
        assert_eq!(s1.row_count, 2);
        assert!(db.stats("Missing").is_err());
        db.table_mut("Supplier")
            .unwrap()
            .insert(row![12i64, "S3", 1i64])
            .unwrap();
        let s2 = db.stats("Supplier").unwrap();
        assert_eq!(s2.row_count, 3, "a table's insert resets its statistics");
        assert_eq!(s2.column("suppkey").unwrap().max, Some(Value::Int(12)));
        assert_eq!(s1.row_count, 2, "a held Arc keeps the old statistics");
    }

    #[test]
    fn integrity_check() {
        let mut db = db();
        assert!(db.check_integrity().is_ok());
        db.table_mut("Nation")
            .unwrap()
            .insert(row![1i64, "Dup"])
            .unwrap();
        assert!(db.check_integrity().is_err());
    }

    #[test]
    fn sizes() {
        let db = db();
        assert_eq!(db.row_count(), 4);
        assert!(db.byte_size() > 0);
    }
}
