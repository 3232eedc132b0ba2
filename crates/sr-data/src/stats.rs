//! Table statistics backing the engine's cost estimator.
//!
//! The paper's greedy planner (§5) uses the target RDBMS as an *oracle* for
//! `evaluation_cost(q)` and `cardinality(q)`. Commercial optimizers answer
//! those from catalog statistics; this module computes the same catalog
//! statistics for our in-memory engine: row counts, per-column distinct
//! counts, min/max, and average widths.

use std::collections::HashSet;
use std::hash::Hash;

use crate::column::Column;
use crate::table::Table;
use crate::value::{DataType, Value};

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Number of distinct non-null values.
    pub distinct: usize,
    /// Number of NULLs.
    pub null_count: usize,
    /// Minimum non-null value, if any.
    pub min: Option<Value>,
    /// Maximum non-null value, if any.
    pub max: Option<Value>,
    /// Average wire width in bytes.
    pub avg_width: f64,
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Table name.
    pub table: String,
    /// Number of rows.
    pub row_count: usize,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Compute full statistics by scanning the table's columns once each.
    pub fn compute(table: &Table) -> TableStats {
        let image = table.columnar();
        let n = image.row_count();
        let columns = table
            .schema()
            .columns()
            .iter()
            .enumerate()
            .map(|(c, col)| {
                let parts = || image.batches().iter().map(move |b| b.column(c));
                let (distinct, min, max) = match col.dtype {
                    DataType::Str => {
                        let strs = parts().flat_map(|p| (0..p.len()).filter_map(|i| p.str_at(i)));
                        let (d, lo, hi) = summarize(strs);
                        (d, lo.map(Value::str), hi.map(Value::str))
                    }
                    // Numeric cells become `Value`s without allocating.
                    _ => summarize(
                        parts()
                            .flat_map(|p| (0..p.len()).map(|i| p.value_at(i)))
                            .filter(|v| !v.is_null()),
                    ),
                };
                let width = parts().map(Column::wire_width).sum::<usize>() as f64;
                ColumnStats {
                    name: col.name.clone(),
                    distinct,
                    null_count: parts().map(Column::null_count).sum(),
                    min,
                    max,
                    avg_width: if n == 0 { 0.0 } else { width / n as f64 },
                }
            })
            .collect();
        TableStats {
            table: table.name().to_string(),
            row_count: n,
            columns,
        }
    }

    /// Statistics for a named column.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Average row width in bytes.
    pub fn avg_row_width(&self) -> f64 {
        self.columns.iter().map(|c| c.avg_width).sum()
    }

    /// Distinct count for a column, defaulting to the row count when the
    /// column is unknown (conservative for selectivity estimation).
    pub fn distinct_or_rows(&self, name: &str) -> usize {
        self.column(name)
            .map(|c| c.distinct.max(1))
            .unwrap_or_else(|| self.row_count.max(1))
    }
}

/// Distinct count, minimum and maximum of a column's non-NULL cells.
/// Cells equal under `Ord` are the same value, so the set's extremes are
/// the column's.
fn summarize<K: Ord + Hash + Clone>(
    cells: impl Iterator<Item = K>,
) -> (usize, Option<K>, Option<K>) {
    let distinct: HashSet<K> = cells.collect();
    let (min, max) = (distinct.iter().min(), distinct.iter().max());
    (distinct.len(), min.cloned(), max.cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;

    fn sample() -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::nullable("grp", DataType::Str),
        ])
        .unwrap();
        let mut t = Table::new("S", schema);
        t.insert(row![1i64, "a"]).unwrap();
        t.insert(row![2i64, "b"]).unwrap();
        t.insert(row![3i64, "a"]).unwrap();
        t.insert(crate::Row::new(vec![Value::Int(4), Value::Null]))
            .unwrap();
        t
    }

    #[test]
    fn counts_and_distincts() {
        let s = TableStats::compute(&sample());
        assert_eq!(s.row_count, 4);
        let id = s.column("id").unwrap();
        assert_eq!(id.distinct, 4);
        assert_eq!(id.null_count, 0);
        assert_eq!(id.min, Some(Value::Int(1)));
        assert_eq!(id.max, Some(Value::Int(4)));
        let grp = s.column("grp").unwrap();
        assert_eq!(grp.distinct, 2);
        assert_eq!(grp.null_count, 1);
    }

    #[test]
    fn widths() {
        let s = TableStats::compute(&sample());
        let id = s.column("id").unwrap();
        assert!((id.avg_width - 9.0).abs() < 1e-9);
        // grp: three 1-char strings (6 bytes each) + one NULL (1 byte)
        let grp = s.column("grp").unwrap();
        assert!((grp.avg_width - (6.0 * 3.0 + 1.0) / 4.0).abs() < 1e-9);
        assert!(s.avg_row_width() > 9.0);
    }

    #[test]
    fn empty_table() {
        let t = Table::new("E", Schema::of(&[("x", DataType::Int)]));
        let s = TableStats::compute(&t);
        assert_eq!(s.row_count, 0);
        assert_eq!(s.column("x").unwrap().distinct, 0);
        assert_eq!(s.column("x").unwrap().min, None);
        assert_eq!(s.distinct_or_rows("x"), 1, "clamped to 1");
    }

    #[test]
    fn distinct_or_rows_fallback() {
        let s = TableStats::compute(&sample());
        assert_eq!(s.distinct_or_rows("nonexistent"), 4);
        assert_eq!(s.distinct_or_rows("grp"), 2);
    }
}
