//! Property tests for the row ↔ column pivot the executor runs on: any
//! rows — random types, NULLs, NaNs, empty tables — pivoted into
//! [`ColumnBatch`]es come back out identical, down to the wire bytes.
//! (That random plans execute to the reference executor's bytes is checked
//! inside the crate, where the reference lives.)

use proptest::prelude::*;

use sr_data::column::{batches_from_rows, ColumnBatch};
use sr_data::{Column, DataType, Row, Schema, Value};
use sr_engine::wire::{encode_batch, encode_rows};

/// Deterministic cell generator: a tiny LCG over the proptest-chosen seed,
/// so the case is fully described by `(dtypes, nrows, seed)` and replays
/// exactly. Mixes in NULLs, NaN, -0.0 and empty/multi-byte strings — the
/// cells the validity bitmap and offsets layout must get right.
fn cell(dtype: DataType, state: &mut u64) -> Value {
    let mut next = || {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    };
    if next() % 4 == 0 {
        return Value::Null;
    }
    match dtype {
        DataType::Int => Value::Int(next() as i64 - (next() % 2) as i64 * i64::MAX),
        DataType::Float => match next() % 5 {
            0 => Value::Float(f64::NAN),
            1 => Value::Float(-0.0),
            2 => Value::Float(f64::INFINITY),
            _ => Value::Float(next() as f64 / 1e6 - 1e3),
        },
        DataType::Str => {
            let len = (next() % 5) as usize;
            let s: String = (0..len)
                .map(|_| ['a', 'é', '√', 'z', '~'][(next() % 5) as usize])
                .collect();
            Value::str(s)
        }
    }
}

fn schema_and_rows() -> impl Strategy<Value = (Vec<DataType>, usize, u64)> {
    (
        proptest::collection::vec(
            prop_oneof![
                Just(DataType::Int),
                Just(DataType::Float),
                Just(DataType::Str)
            ],
            1..5,
        ),
        0usize..40,
        any::<u64>(),
    )
}

fn schema_of(dtypes: &[DataType]) -> Schema {
    Schema::new(
        dtypes
            .iter()
            .enumerate()
            .map(|(i, &t)| Column::nullable(format!("c{i}"), t))
            .collect(),
    )
    .expect("schema")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rows_round_trip_through_columns((dtypes, nrows, seed) in schema_and_rows()) {
        let schema = schema_of(&dtypes);
        let mut state = seed;
        let rows: Vec<Row> = (0..nrows)
            .map(|_| Row::new(dtypes.iter().map(|&t| cell(t, &mut state)).collect()))
            .collect();
        // One batch holding everything…
        let batch = ColumnBatch::from_rows(&schema, &rows).expect("from_rows");
        prop_assert_eq!(batch.len(), rows.len());
        prop_assert_eq!(batch.to_rows(), rows.clone());
        // …and split into small batches, whose concatenation is the input.
        let parts = batches_from_rows(&schema, &rows, 7).expect("batches");
        let back: Vec<Row> = parts.iter().flat_map(ColumnBatch::to_rows).collect();
        prop_assert_eq!(back, rows.clone());
        // The wire encoding survives the pivot too.
        let mut wire = Vec::new();
        for p in &parts {
            wire.extend_from_slice(&encode_batch(p));
        }
        prop_assert_eq!(wire.as_slice(), encode_rows(&rows).as_ref());
    }
}

#[test]
fn empty_table_round_trips() {
    let schema = schema_of(&[DataType::Int, DataType::Str]);
    let batch = ColumnBatch::from_rows(&schema, &[]).expect("from_rows");
    assert!(batch.is_empty());
    assert!(batch.to_rows().is_empty());
    assert!(batches_from_rows(&schema, &[], 4)
        .expect("batches")
        .is_empty());
}
