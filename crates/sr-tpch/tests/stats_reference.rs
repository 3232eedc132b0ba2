//! `TableStats::compute` reads the stored columns; this test holds it to a
//! row-at-a-time reference over `Table::rows()`, equal on the whole struct
//! (`==`, not approximately): the estimates `genPlan` plans from are built
//! on these numbers, so a drift of one distinct value is a different plan.

use std::collections::HashSet;

use sr_data::{Column, ColumnStats, DataType, Row, Schema, Table, TableStats, Value};
use sr_tpch::{generate, Scale};

/// Statistics computed the obvious way: one pass over materialised rows
/// per column, NULLs counted, the rest collected into a set and folded
/// into a min and a max.
fn reference(table: &Table) -> TableStats {
    let rows = table.rows();
    let n = rows.len();
    let columns = table
        .schema()
        .columns()
        .iter()
        .enumerate()
        .map(|(i, col)| {
            let cells: Vec<&Value> = rows.iter().map(|r| r.get(i)).collect();
            let valid: Vec<&Value> = cells.iter().copied().filter(|v| !v.is_null()).collect();
            let width: usize = cells.iter().map(|v| v.wire_width()).sum();
            ColumnStats {
                name: col.name.clone(),
                distinct: valid.iter().collect::<HashSet<_>>().len(),
                null_count: n - valid.len(),
                min: valid.iter().copied().min().cloned(),
                max: valid.iter().copied().max().cloned(),
                avg_width: if n == 0 { 0.0 } else { width as f64 / n as f64 },
            }
        })
        .collect();
    TableStats {
        table: table.name().to_string(),
        row_count: n,
        columns,
    }
}

#[test]
fn column_stats_equal_the_row_reference() {
    let db = generate(Scale::mb(1.0)).expect("tpch");
    let mut checked = 0;
    for name in db.table_names() {
        let table = db.table(name).expect("listed table");
        assert!(!table.is_empty(), "{name}");
        assert_eq!(TableStats::compute(table), reference(table), "{name}");
        assert_eq!(*db.stats(name).expect("stats"), reference(table), "{name}");
        checked += 1;
    }
    assert_eq!(checked, 8, "every TPC-H table");

    // NULLs in every type, repeated values, a negative zero beside a zero
    // (distinct under the total order) and more than one batch.
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::nullable("i", DataType::Int),
        Column::nullable("f", DataType::Float),
        Column::nullable("s", DataType::Str),
    ])
    .expect("schema");
    let mut small = Table::new("Small", schema);
    for k in 0..2500i64 {
        let cell = |v: Value| if k % 7 == 3 { Value::Null } else { v };
        small
            .insert(Row::new(vec![
                Value::Int(k),
                cell(Value::Int(k % 13 - 6)),
                cell(Value::Float(if k % 10 == 1 {
                    -0.0
                } else {
                    (k % 5) as f64
                })),
                cell(Value::str(format!("s{}", k % 17))),
            ]))
            .expect("insert");
    }
    assert_eq!(TableStats::compute(&small), reference(&small));
    let empty = Table::new("Empty", Schema::of(&[("x", DataType::Str)]));
    assert_eq!(TableStats::compute(&empty), reference(&empty));
}
