//! In-memory tables: a [`Schema`] plus rows, stored once, column-major.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::column::{ColumnBatch, ColumnTable};
use crate::error::DataError;
use crate::row::Row;
use crate::schema::Schema;
use crate::stats::TableStats;
use crate::value::Value;

/// An in-memory relation.
#[derive(Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// The rows as column batches, the only copy: scans share it by `Arc`,
    /// and `insert` appends copy-on-write, leaving readers their snapshot.
    columns: Arc<ColumnTable>,
    /// Statistics, computed on first use; `insert` resets them.
    stats: OnceLock<Arc<TableStats>>,
}

impl Table {
    /// An empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            columns: Arc::new(ColumnTable::new(&schema)),
            schema,
            stats: OnceLock::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All rows, materialised from the column batches on each call.
    pub fn rows(&self) -> Vec<Row> {
        self.positions().map(|(b, i)| b.row(i)).collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.row_count()
    }

    /// `true` iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row after checking arity and value types against the schema.
    pub fn insert(&mut self, row: Row) -> Result<(), DataError> {
        if row.arity() != self.schema.arity() {
            return Err(DataError::SchemaMismatch(format!(
                "table {}: row arity {} != schema arity {}",
                self.name,
                row.arity(),
                self.schema.arity()
            )));
        }
        for (i, v) in row.values().iter().enumerate() {
            let col = self.schema.column(i);
            match v {
                Value::Null if !col.nullable => {
                    return Err(DataError::SchemaMismatch(format!(
                        "table {}: NULL in non-nullable column {}",
                        self.name, col.name
                    )));
                }
                Value::Null => {}
                v => {
                    if v.data_type() != Some(col.dtype) {
                        return Err(DataError::SchemaMismatch(format!(
                            "table {}: column {} expects {}, got {v}",
                            self.name, col.name, col.dtype
                        )));
                    }
                }
            }
        }
        Arc::make_mut(&mut self.columns).push_row(&row)?;
        self.stats.take();
        Ok(())
    }

    /// The table's rows in column-major form: one `Arc` clone, which is
    /// what makes the vectorized scan allocation-free.
    pub fn columnar(&self) -> Arc<ColumnTable> {
        Arc::clone(&self.columns)
    }

    /// The table's statistics, computed on first use and kept until the
    /// next `insert`.
    pub fn stats(&self) -> Arc<TableStats> {
        let stats = self
            .stats
            .get_or_init(|| Arc::new(TableStats::compute(self)));
        Arc::clone(stats)
    }

    /// Append many rows.
    pub fn insert_all<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<(), DataError> {
        for r in rows {
            self.insert(r)?;
        }
        Ok(())
    }

    /// Every row position, in row order: a batch and an index into it.
    fn positions(&self) -> impl Iterator<Item = (&ColumnBatch, usize)> {
        self.columns
            .batches()
            .iter()
            .flat_map(|b| (0..b.len()).map(move |i| (b, i)))
    }

    /// Verify that the named columns form a key (no duplicate combinations).
    pub fn check_key(&self, key_cols: &[&str]) -> Result<(), DataError> {
        let idx: Vec<usize> = key_cols
            .iter()
            .map(|c| self.schema.require(c))
            .collect::<Result<_, _>>()?;
        let mut seen: HashSet<Row> = HashSet::with_capacity(self.len());
        for (b, i) in self.positions() {
            let k = Row::new(idx.iter().map(|&c| b.column(c).value_at(i)).collect());
            if let Some(k) = seen.replace(k) {
                return Err(DataError::KeyViolation(format!(
                    "table {}: duplicate key {k:?} on ({})",
                    self.name,
                    key_cols.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// Verify that the rows are stored in non-decreasing order of the named
    /// columns (lexicographic [`Value`] order, `NULL` first) — i.e. that a
    /// `clustered by` declaration is truthful for the current data.
    pub fn check_clustered(&self, cols: &[&str]) -> Result<(), DataError> {
        let idx: Vec<usize> = cols
            .iter()
            .map(|c| self.schema.require(c))
            .collect::<Result<_, _>>()?;
        for (i, ((a, ai), (b, bi))) in self.positions().zip(self.positions().skip(1)).enumerate() {
            let regressed = idx
                .iter()
                .map(|&c| a.column(c).value_at(ai).cmp(&b.column(c).value_at(bi)))
                .find(|o| !o.is_eq())
                .is_some_and(|o| o.is_gt());
            if regressed {
                return Err(DataError::KeyViolation(format!(
                    "table {}: rows {i} and {} violate clustering on ({})",
                    self.name,
                    i + 1,
                    cols.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// Total simulated byte size of the table's data.
    pub fn byte_size(&self) -> usize {
        self.columns
            .batches()
            .iter()
            .map(ColumnBatch::wire_width)
            .sum()
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Table({}, {} rows, {:?})",
            self.name,
            self.len(),
            self.schema
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::DataType;

    fn t() -> Table {
        Table::new(
            "T",
            Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]),
        )
    }

    #[test]
    fn insert_checks_arity() {
        let mut t = t();
        assert!(t.insert(row![1i64]).is_err());
        assert!(t.insert(row![1i64, "a"]).is_ok());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_checks_types() {
        let mut t = t();
        assert!(t.insert(row!["oops", "a"]).is_err());
        assert!(t.insert(row![1i64, 2i64]).is_err());
    }

    #[test]
    fn null_needs_nullable_column() {
        let mut t = t();
        assert!(t
            .insert(Row::new(vec![Value::Null, Value::str("a")]))
            .is_err());
        let mut nt = Table::new("N", t.schema().as_nullable());
        assert!(nt.insert(Row::new(vec![Value::Null, Value::Null])).is_ok());
    }

    #[test]
    fn key_check_detects_duplicates() {
        let mut t = t();
        t.insert_all([row![1i64, "a"], row![2i64, "b"], row![1i64, "c"]])
            .unwrap();
        assert!(t.check_key(&["id", "name"]).is_ok());
        let err = t.check_key(&["id"]).unwrap_err();
        assert!(matches!(err, DataError::KeyViolation(_)));
    }

    #[test]
    fn clustered_check_accepts_sorted_rejects_regression() {
        let mut t = t();
        t.insert_all([row![1i64, "b"], row![1i64, "a"], row![2i64, "z"]])
            .unwrap();
        assert!(t.check_clustered(&["id"]).is_ok(), "non-decreasing id");
        let err = t.check_clustered(&["id", "name"]).unwrap_err();
        assert!(matches!(err, DataError::KeyViolation(_)));
        assert!(t.check_clustered(&["nope"]).is_err(), "unknown column");
    }

    #[test]
    fn byte_size_is_sum_of_rows() {
        let mut t = t();
        t.insert(row![1i64, "abcd"]).unwrap();
        assert_eq!(t.byte_size(), 18);
    }

    /// `n` rows over every type, with NULLs in the nullable Int, Float
    /// and Str columns on different strides.
    fn nullable(n: i64) -> (Table, Vec<Row>) {
        let schema = Schema::new(vec![
            crate::schema::Column::new("k", DataType::Int),
            crate::schema::Column::nullable("i", DataType::Int),
            crate::schema::Column::nullable("f", DataType::Float),
            crate::schema::Column::nullable("s", DataType::Str),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..n)
            .map(|k| {
                let or_null = |every: i64, v: Value| if k % every == 0 { Value::Null } else { v };
                Row::new(vec![
                    Value::Int(k),
                    or_null(3, Value::Int(500 - k)),
                    or_null(5, Value::Float(k as f64 / 4.0)),
                    or_null(7, Value::str(format!("s{}", k % 11))),
                ])
            })
            .collect();
        let mut t = Table::new("N", schema);
        t.insert_all(rows.clone()).unwrap();
        (t, rows)
    }

    #[test]
    fn rows_round_trip_across_the_batch_boundary() {
        for n in [1023, 1024, 1025] {
            let (t, rows) = nullable(n);
            assert_eq!(t.len(), n as usize);
            assert_eq!(t.rows(), rows, "{n} rows");
            let lens: Vec<usize> = t.columnar().batches().iter().map(|b| b.len()).collect();
            let expect: &[usize] = match n {
                1023 => &[1023],
                1024 => &[1024],
                _ => &[1024, 1],
            };
            assert_eq!(lens, expect, "{n} rows seal at BATCH_ROWS");
        }
    }

    #[test]
    fn appended_zone_maps_match_a_fresh_builder() {
        let (t, rows) = nullable(1025);
        let image = t.columnar();
        for (b, batch) in image.batches().iter().enumerate() {
            let chunk = &rows[b * crate::BATCH_ROWS..][..batch.len()];
            for (c, col) in batch.columns().iter().enumerate() {
                let mut fresh = crate::column::ColumnBuilder::new(col.dtype(), 0);
                for r in chunk {
                    fresh.push(r.get(c)).unwrap();
                }
                let fresh = fresh.finish();
                assert_eq!(col.zone(), fresh.zone(), "batch {b} column {c}");
                assert_eq!(col.null_count(), fresh.null_count(), "batch {b} column {c}");
            }
        }
        assert_eq!(image.batches()[0].column(1).zone(), Some((-522, 499)));
        assert_eq!(image.batches()[1].column(1).zone(), Some((-524, -524)));
    }

    #[test]
    fn columnar_snapshot_survives_insert() {
        let mut t = t();
        t.insert_all([row![1i64, "a"], row![2i64, "b"]]).unwrap();
        let before = t.columnar();
        assert!(Arc::ptr_eq(&before, &t.columnar()), "a plain Arc clone");
        t.insert(row![3i64, "c"]).unwrap();
        assert_eq!(before.row_count(), 2, "the snapshot keeps its rows");
        let old: Vec<Row> = before.batches().iter().flat_map(|b| b.to_rows()).collect();
        assert_eq!(old, [row![1i64, "a"], row![2i64, "b"]]);
        assert_eq!(before.batches()[0].column(0).zone(), Some((1, 2)));
        let after = t.columnar();
        assert_eq!(after.row_count(), 3);
        assert_eq!(after.batches()[0].column(0).zone(), Some((1, 3)));
        assert_eq!(t.rows()[2], row![3i64, "c"]);
    }

    #[test]
    fn stats_reflect_insert() {
        let mut t = t();
        t.insert(row![1i64, "a"]).unwrap();
        let s1 = t.stats();
        assert!(Arc::ptr_eq(&s1, &t.stats()), "kept until the next insert");
        t.insert(row![7i64, "b"]).unwrap();
        let s2 = t.stats();
        assert_eq!((s1.row_count, s2.row_count), (1, 2));
        assert_eq!(s2.column("id").unwrap().max, Some(Value::Int(7)));
        assert_eq!(s2.column("name").unwrap().distinct, 2);
    }
}
