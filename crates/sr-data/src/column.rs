//! Columnar batches: the stored form of tables and the executor's data.
//!
//! A [`ColumnBatch`] holds up to [`BATCH_ROWS`] rows as typed column
//! vectors ([`Column`]) with validity bitmaps. Strings use an
//! offsets-into-bytes layout so operators move byte ranges, never
//! `Arc<str>` clones. Integer columns carry a per-batch min/max zone map,
//! which lets a filter over a clustered key (a range pushed down to the
//! scan) skip whole batches without touching a row.
//!
//! The representation is deliberately lossless with respect to [`Row`]s:
//! `from_rows` → `to_rows` round-trips every value, including NULLs, so
//! the executor's results pivot back to row form byte-identically
//! wherever rows are wanted.

use std::sync::Arc;

use crate::error::DataError;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// Rows per column batch. Matches the streaming chunk size, so one batch
/// encodes into one wire chunk.
pub const BATCH_ROWS: usize = 1024;

/// Typed storage behind one [`Column`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers; NULL slots hold 0.
    Int64(Vec<i64>),
    /// 64-bit floats; NULL slots hold 0.0.
    Float64(Vec<f64>),
    /// UTF-8 strings: cell `i` is `bytes[offsets[i]..offsets[i+1]]`.
    /// NULL cells occupy an empty range.
    Utf8 {
        /// `len + 1` offsets into `bytes`.
        offsets: Vec<u32>,
        /// Concatenated UTF-8 payload of all non-NULL cells.
        bytes: Vec<u8>,
    },
}

/// One typed column vector with a validity bitmap.
///
/// Cloning is O(1): the cells — a finished [`ColumnBuilder`] — are
/// `Arc`-shared, so a projection that forwards a column costs a pointer
/// copy, not a copy of the values.
#[derive(Debug, Clone)]
pub struct Column {
    cells: Arc<ColumnBuilder>,
}

#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 == 1
}

impl Column {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len
    }

    /// `true` iff the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.len == 0
    }

    /// The column's type.
    pub fn dtype(&self) -> DataType {
        self.cells.dtype
    }

    /// Number of NULL cells.
    pub fn null_count(&self) -> usize {
        self.cells.nulls
    }

    /// The typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.cells.data
    }

    /// `true` iff cell `i` is non-NULL.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.cells.nulls == 0 || bit_get(&self.cells.validity, i)
    }

    /// Conservative `(min, max)` bound over the valid cells of an Int64
    /// column; `None` for other types or when every cell is NULL. Exact on
    /// built and appended columns; `gather`/`concat` carry bounds forward
    /// without re-scanning, so a derived column's bound may be wider than
    /// its actual values — never narrower, which is what pruning needs.
    pub fn zone(&self) -> Option<(i64, i64)> {
        self.cells.zone
    }

    /// The string in cell `i`, without allocating; `None` if the cell is
    /// NULL or the column is not a Str column.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match &self.cells.data {
            ColumnData::Utf8 { offsets, bytes } if self.is_valid(i) => {
                let s = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                // Invariant: the builder only ever stores valid UTF-8.
                Some(std::str::from_utf8(s).unwrap_or(""))
            }
            _ => None,
        }
    }

    /// Materialize cell `i` as a [`Value`] (allocates for strings).
    pub fn value_at(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.cells.data {
            ColumnData::Int64(v) => Value::Int(v[i]),
            ColumnData::Float64(v) => Value::Float(v[i]),
            ColumnData::Utf8 { .. } => Value::Str(Arc::from(self.str_at(i).unwrap_or(""))),
        }
    }

    /// A column of `len` NULLs.
    pub fn nulls(dtype: DataType, len: usize) -> Column {
        let mut b = ColumnBuilder::new(dtype, len);
        for _ in 0..len {
            b.push_null();
        }
        b.finish()
    }

    /// A column repeating one value `len` times. The value must match
    /// `dtype` (or be NULL).
    pub fn repeated(v: &Value, dtype: DataType, len: usize) -> Result<Column, DataError> {
        let mut b = ColumnBuilder::new(dtype, len);
        for _ in 0..len {
            b.push(v)?;
        }
        Ok(b.finish())
    }

    /// Gather cells by a selection vector. `u32::MAX` entries produce
    /// NULL cells (the outer-join pad). The source's zone bound is carried
    /// over instead of re-scanned — a gathered subset can only shrink the
    /// true min/max, so the inherited bound stays conservative, and zone
    /// pruning only ever fires on scan-built batches whose bounds are
    /// exact.
    pub fn gather(&self, sel: &[u32]) -> Result<Column, DataError> {
        // Fast path for NULL-free sources with no pad entries: straight
        // element moves, no per-cell validity bookkeeping.
        if self.null_count() == 0 && !sel.contains(&u32::MAX) {
            let data = match self.data() {
                ColumnData::Int64(v) => {
                    ColumnData::Int64(sel.iter().map(|&s| v[s as usize]).collect())
                }
                ColumnData::Float64(v) => {
                    ColumnData::Float64(sel.iter().map(|&s| v[s as usize]).collect())
                }
                ColumnData::Utf8 { offsets, bytes } => {
                    let total: usize = sel
                        .iter()
                        .map(|&s| (offsets[s as usize + 1] - offsets[s as usize]) as usize)
                        .sum();
                    // Repeated selection indices (a join probe) can blow the
                    // output payload past the source's, so re-check the cap.
                    if total > u32::MAX as usize {
                        return Err(DataError::ColumnOverflow {
                            have: 0,
                            add: total,
                            cap: u32::MAX,
                        });
                    }
                    let mut out_bytes = Vec::with_capacity(total);
                    let mut out_offsets = Vec::with_capacity(sel.len() + 1);
                    out_offsets.push(0u32);
                    for &s in sel {
                        let i = s as usize;
                        out_bytes.extend_from_slice(
                            &bytes[offsets[i] as usize..offsets[i + 1] as usize],
                        );
                        out_offsets.push(out_bytes.len() as u32);
                    }
                    ColumnData::Utf8 {
                        offsets: out_offsets,
                        bytes: out_bytes,
                    }
                }
            };
            let cells = ColumnBuilder::valid(self.dtype(), data, sel.len());
            return Ok(cells.finish_zoned(self.zone()));
        }
        let mut b = ColumnBuilder::new(self.dtype(), sel.len());
        match self.data() {
            ColumnData::Int64(v) => {
                for &s in sel {
                    let i = s as usize;
                    if s == u32::MAX || !self.is_valid(i) {
                        b.push_null();
                    } else {
                        b.push_i64(v[i]);
                    }
                }
            }
            ColumnData::Float64(v) => {
                for &s in sel {
                    let i = s as usize;
                    if s == u32::MAX || !self.is_valid(i) {
                        b.push_null();
                    } else {
                        b.push_f64(v[i]);
                    }
                }
            }
            ColumnData::Utf8 { offsets, bytes } => {
                for &s in sel {
                    let i = s as usize;
                    if s == u32::MAX || !self.is_valid(i) {
                        b.push_null();
                    } else {
                        b.push_str_bytes(&bytes[offsets[i] as usize..offsets[i + 1] as usize])?;
                    }
                }
            }
        }
        Ok(b.finish_zoned(self.zone()))
    }

    /// Concatenate columns of the same type into one. The zone bound is
    /// the union of the parts' bounds (conservative, no re-scan).
    pub fn concat(parts: &[&Column], dtype: DataType) -> Result<Column, DataError> {
        let total: usize = parts.iter().map(|c| c.len()).sum();
        let zone = parts
            .iter()
            .filter_map(|c| c.zone())
            .reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)));
        if dtype == DataType::Str {
            let payload: usize = parts
                .iter()
                .map(|c| match c.data() {
                    ColumnData::Utf8 { bytes, .. } => bytes.len(),
                    _ => 0,
                })
                .sum();
            if payload > u32::MAX as usize {
                return Err(DataError::ColumnOverflow {
                    have: 0,
                    add: payload,
                    cap: u32::MAX,
                });
            }
        }
        // Fast path: every part NULL-free — splice the typed vectors.
        if parts.iter().all(|c| c.null_count() == 0) {
            let data = match dtype {
                DataType::Int => {
                    let mut out = Vec::with_capacity(total);
                    for c in parts {
                        if let ColumnData::Int64(v) = c.data() {
                            out.extend_from_slice(v);
                        }
                    }
                    ColumnData::Int64(out)
                }
                DataType::Float => {
                    let mut out = Vec::with_capacity(total);
                    for c in parts {
                        if let ColumnData::Float64(v) = c.data() {
                            out.extend_from_slice(v);
                        }
                    }
                    ColumnData::Float64(out)
                }
                DataType::Str => {
                    let mut out_bytes = Vec::new();
                    let mut out_offsets = Vec::with_capacity(total + 1);
                    out_offsets.push(0u32);
                    for c in parts {
                        if let ColumnData::Utf8 { offsets, bytes } = c.data() {
                            let first = *offsets.first().unwrap_or(&0);
                            let last = *offsets.last().unwrap_or(&0);
                            let base = out_bytes.len() as u32 - first;
                            out_bytes.extend_from_slice(&bytes[first as usize..last as usize]);
                            out_offsets.extend(offsets[1..].iter().map(|&o| o + base));
                        }
                    }
                    ColumnData::Utf8 {
                        offsets: out_offsets,
                        bytes: out_bytes,
                    }
                }
            };
            return Ok(ColumnBuilder::valid(dtype, data, total).finish_zoned(zone));
        }
        let mut b = ColumnBuilder::new(dtype, total);
        for c in parts {
            match c.data() {
                ColumnData::Int64(v) => {
                    for (i, x) in v.iter().enumerate() {
                        if c.is_valid(i) {
                            b.push_i64(*x);
                        } else {
                            b.push_null();
                        }
                    }
                }
                ColumnData::Float64(v) => {
                    for (i, x) in v.iter().enumerate() {
                        if c.is_valid(i) {
                            b.push_f64(*x);
                        } else {
                            b.push_null();
                        }
                    }
                }
                ColumnData::Utf8 { offsets, bytes } => {
                    for i in 0..c.len() {
                        if c.is_valid(i) {
                            b.push_str_bytes(&bytes[offsets[i] as usize..offsets[i + 1] as usize])?;
                        } else {
                            b.push_null();
                        }
                    }
                }
            }
        }
        Ok(b.finish_zoned(zone))
    }

    /// Simulated wire size of all cells (matches `Row::wire_width` summed).
    pub fn wire_width(&self) -> usize {
        let nulls = self.null_count();
        let valid = self.len() - nulls;
        match self.data() {
            ColumnData::Int64(_) | ColumnData::Float64(_) => 9 * valid + nulls,
            // NULL cells occupy empty byte ranges, so `bytes.len()` is the
            // total payload of the valid cells.
            ColumnData::Utf8 { bytes, .. } => 5 * valid + bytes.len() + nulls,
        }
    }
}

/// Incremental [`Column`] constructor, and the cells of a finished one:
/// `finish` shares the builder by `Arc`, so appending to a stored column
/// is this same `push`.
#[derive(Debug, Clone)]
pub struct ColumnBuilder {
    dtype: DataType,
    data: ColumnData,
    /// Bit `i` set = cell `i` is non-NULL. Empty until the first NULL,
    /// then one word per 64 cells; bits past `len` stay set.
    validity: Vec<u64>,
    len: usize,
    nulls: usize,
    /// Min/max over valid cells of an Int64 column (the zone map), kept
    /// as cells are pushed.
    zone: Option<(i64, i64)>,
    byte_cap: u32,
}

impl ColumnBuilder {
    /// A builder for a column of `dtype`, pre-sized for `capacity` cells.
    pub fn new(dtype: DataType, capacity: usize) -> ColumnBuilder {
        let data = match dtype {
            DataType::Int => ColumnData::Int64(Vec::with_capacity(capacity)),
            DataType::Float => ColumnData::Float64(Vec::with_capacity(capacity)),
            DataType::Str => {
                let mut offsets = Vec::with_capacity(capacity + 1);
                offsets.push(0);
                ColumnData::Utf8 {
                    offsets,
                    bytes: Vec::new(),
                }
            }
        };
        ColumnBuilder::valid(dtype, data, 0)
    }

    /// A builder over `len` cells in `data`, all of them valid.
    fn valid(dtype: DataType, data: ColumnData, len: usize) -> ColumnBuilder {
        ColumnBuilder {
            dtype,
            data,
            validity: Vec::new(),
            len,
            nulls: 0,
            zone: None,
            byte_cap: u32::MAX,
        }
    }

    #[inline]
    fn note_cell(&mut self, valid: bool) {
        let i = self.len;
        self.len += 1;
        if valid && self.nulls == 0 {
            return;
        }
        self.validity.resize(self.len.div_ceil(64), u64::MAX);
        if !valid {
            self.validity[i >> 6] &= !(1 << (i & 63));
            self.nulls += 1;
        }
    }

    /// Append a NULL cell.
    pub fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::Int64(v) => v.push(0),
            ColumnData::Float64(v) => v.push(0.0),
            ColumnData::Utf8 { offsets, .. } => {
                let end = *offsets.last().unwrap_or(&0);
                offsets.push(end);
            }
        }
        self.note_cell(false);
    }

    // Typed pushes: every caller has matched the builder's type first.

    fn push_i64(&mut self, x: i64) {
        if let ColumnData::Int64(v) = &mut self.data {
            v.push(x);
            self.zone = Some(self.zone.map_or((x, x), |(lo, hi)| (lo.min(x), hi.max(x))));
            self.note_cell(true);
        }
    }

    fn push_f64(&mut self, x: f64) {
        if let ColumnData::Float64(v) = &mut self.data {
            v.push(x);
            self.note_cell(true);
        }
    }

    /// Lower the string payload cap from the `u32::MAX` default — a test
    /// hook so overflow handling is exercisable without 4 GiB of data.
    pub fn with_byte_cap(mut self, cap: u32) -> ColumnBuilder {
        self.byte_cap = cap;
        self
    }

    fn room_for(&self, add: usize) -> Result<(), DataError> {
        // The offsets vector stores u32 positions into `bytes`; past the
        // cap they would wrap and silently corrupt every later cell.
        let have = match &self.data {
            ColumnData::Utf8 { bytes, .. } => bytes.len(),
            _ => 0,
        };
        if add > self.byte_cap as usize - have {
            return Err(DataError::ColumnOverflow {
                have,
                add,
                cap: self.byte_cap,
            });
        }
        Ok(())
    }

    fn push_str_bytes(&mut self, s: &[u8]) -> Result<(), DataError> {
        self.room_for(s.len())?;
        if let ColumnData::Utf8 { offsets, bytes } = &mut self.data {
            bytes.extend_from_slice(s);
            offsets.push(bytes.len() as u32);
            self.note_cell(true);
        }
        Ok(())
    }

    /// Append a value; it must match the builder's type (or be NULL).
    pub fn push(&mut self, v: &Value) -> Result<(), DataError> {
        match (self.dtype, v) {
            (_, Value::Null) => self.push_null(),
            (DataType::Int, Value::Int(x)) => self.push_i64(*x),
            (DataType::Float, Value::Float(x)) => self.push_f64(*x),
            (DataType::Str, Value::Str(s)) => self.push_str_bytes(s.as_bytes())?,
            (dt, v) => {
                return Err(DataError::SchemaMismatch(format!(
                    "column of type {dt} cannot hold {v}"
                )))
            }
        }
        Ok(())
    }

    /// Finalize the column, with the exact Int zone map kept while pushing.
    pub fn finish(self) -> Column {
        Column {
            cells: Arc::new(self),
        }
    }

    /// Finalize with a caller-supplied (conservative) zone bound — used by
    /// `gather`/`concat`, which already know a sound bound from their
    /// sources.
    fn finish_zoned(mut self, zone: Option<(i64, i64)>) -> Column {
        let has_ints = self.dtype == DataType::Int && self.nulls < self.len;
        self.zone = zone.filter(|_| has_ints);
        self.finish()
    }
}

/// A fixed-size run of rows in column-major form.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    schema: Schema,
    len: usize,
    columns: Vec<Column>,
}

impl ColumnBatch {
    /// Build a batch from rows; every cell must match the schema's types.
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> Result<ColumnBatch, DataError> {
        let columns = schema.columns().iter();
        let mut batch = ColumnBatch {
            schema: schema.clone(),
            len: 0,
            columns: columns
                .map(|c| ColumnBuilder::new(c.dtype, rows.len()).finish())
                .collect(),
        };
        for row in rows {
            batch.push_row(row)?;
        }
        Ok(batch)
    }

    /// Append a row in place. A column's cells are copied first if a
    /// clone shares them, so a reader holding that clone keeps its
    /// snapshot. A string the batch has no payload room for refuses the
    /// row before any of its cells is written.
    fn push_row(&mut self, row: &Row) -> Result<(), DataError> {
        for (col, v) in self.columns.iter().zip(row.values()) {
            if let Value::Str(s) = v {
                col.cells.room_for(s.len())?;
            }
        }
        for (col, v) in self.columns.iter_mut().zip(row.values()) {
            Arc::make_mut(&mut col.cells).push(v)?;
        }
        self.len += 1;
        Ok(())
    }

    /// Assemble a batch from pre-built columns. Arity, per-column types,
    /// and lengths must agree with the schema.
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<ColumnBatch, DataError> {
        if columns.len() != schema.arity() {
            return Err(DataError::SchemaMismatch(format!(
                "batch has {} column(s) but the schema has {}",
                columns.len(),
                schema.arity()
            )));
        }
        let len = columns.first().map(|c| c.len()).unwrap_or(0);
        for (i, c) in columns.iter().enumerate() {
            let sc = schema.column(i);
            if c.dtype() != sc.dtype {
                return Err(DataError::SchemaMismatch(format!(
                    "batch column {} is {} but schema column {} is {}",
                    i,
                    c.dtype(),
                    sc.name,
                    sc.dtype
                )));
            }
            if c.len() != len {
                return Err(DataError::SchemaMismatch(format!(
                    "batch column {} has {} cell(s), expected {len}",
                    i,
                    c.len()
                )));
            }
        }
        Ok(ColumnBatch {
            schema,
            len,
            columns,
        })
    }

    /// The batch's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value_at(i)).collect())
    }

    /// Materialize every row (the round-trip inverse of `from_rows`).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Gather rows by a selection vector (`u32::MAX` = all-NULL row).
    pub fn gather(&self, sel: &[u32]) -> Result<ColumnBatch, DataError> {
        Ok(ColumnBatch {
            schema: self.schema.clone(),
            len: sel.len(),
            columns: self
                .columns
                .iter()
                .map(|c| c.gather(sel))
                .collect::<Result<_, _>>()?,
        })
    }

    /// The same columns under a different (equally typed) schema — how a
    /// scan re-aliases a stored table's column names.
    pub fn renamed(&self, schema: Schema) -> Result<ColumnBatch, DataError> {
        ColumnBatch::from_columns(schema, self.columns.clone())
    }

    /// Concatenate batches (all sharing `schema`) into one.
    pub fn concat(schema: &Schema, parts: &[ColumnBatch]) -> Result<ColumnBatch, DataError> {
        let columns = (0..schema.arity())
            .map(|c| {
                let cols: Vec<&Column> = parts.iter().map(|b| b.column(c)).collect();
                Column::concat(&cols, schema.column(c).dtype)
            })
            .collect::<Result<_, _>>()?;
        Ok(ColumnBatch {
            schema: schema.clone(),
            len: parts.iter().map(|b| b.len).sum(),
            columns,
        })
    }

    /// Simulated wire size of all rows (matches `Row::wire_width` summed).
    pub fn wire_width(&self) -> usize {
        self.columns.iter().map(Column::wire_width).sum()
    }
}

/// Split rows into [`ColumnBatch`]es of at most `batch_rows` rows.
pub fn batches_from_rows(
    schema: &Schema,
    rows: &[Row],
    batch_rows: usize,
) -> Result<Vec<ColumnBatch>, DataError> {
    rows.chunks(batch_rows.max(1))
        .map(|chunk| ColumnBatch::from_rows(schema, chunk))
        .collect()
}

/// A table's rows in column-major form: the table's one stored copy, and
/// what the vectorized scan reads. Rows are appended into the last batch,
/// which seals at [`BATCH_ROWS`].
#[derive(Debug, Clone)]
pub struct ColumnTable {
    schema: Schema,
    row_count: usize,
    batches: Vec<ColumnBatch>,
}

impl ColumnTable {
    /// An image with no rows.
    pub(crate) fn new(schema: &Schema) -> ColumnTable {
        ColumnTable {
            schema: schema.clone(),
            row_count: 0,
            batches: Vec::new(),
        }
    }

    /// Append a schema-checked row to the last batch, opening a new batch
    /// when that one is full.
    pub(crate) fn push_row(&mut self, row: &Row) -> Result<(), DataError> {
        if self.batches.last().is_none_or(|b| b.len == BATCH_ROWS) {
            self.batches
                .push(ColumnBatch::from_rows(&self.schema, &[])?);
        }
        let last = self.batches.len() - 1;
        self.batches[last].push_row(row)?;
        self.row_count += 1;
        Ok(())
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows across batches.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// The batches, in row order.
    pub fn batches(&self) -> &[ColumnBatch] {
        &self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Column as SchemaColumn;

    fn schema() -> Schema {
        Schema::new(vec![
            SchemaColumn::new("k", DataType::Int),
            SchemaColumn::nullable("x", DataType::Float),
            SchemaColumn::nullable("s", DataType::Str),
        ])
        .unwrap()
    }

    fn rows() -> Vec<Row> {
        vec![
            Row::new(vec![Value::Int(3), Value::Float(0.5), Value::str("a")]),
            Row::new(vec![Value::Int(1), Value::Null, Value::str("bb")]),
            Row::new(vec![Value::Int(7), Value::Float(-2.0), Value::Null]),
        ]
    }

    #[test]
    fn round_trip_preserves_rows() {
        let s = schema();
        let b = ColumnBatch::from_rows(&s, &rows()).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_rows(), rows());
    }

    #[test]
    fn empty_batch_round_trips() {
        let s = schema();
        let b = ColumnBatch::from_rows(&s, &[]).unwrap();
        assert!(b.is_empty());
        assert!(b.to_rows().is_empty());
        assert_eq!(b.wire_width(), 0);
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = schema();
        let bad = vec![Row::new(vec![Value::str("nope"), Value::Null, Value::Null])];
        assert!(ColumnBatch::from_rows(&s, &bad).is_err());
    }

    #[test]
    fn zone_map_tracks_int_min_max() {
        let s = schema();
        let b = ColumnBatch::from_rows(&s, &rows()).unwrap();
        assert_eq!(b.column(0).zone(), Some((1, 7)));
        assert_eq!(b.column(1).zone(), None, "floats have no zone");
        // Gather carries the source bound forward (conservative — it may
        // be wider than the gathered values, never narrower).
        let g = b.gather(&[0, 2]).unwrap();
        assert_eq!(g.column(0).zone(), Some((1, 7)));
    }

    #[test]
    fn gather_with_pad_produces_nulls() {
        let s = schema();
        let b = ColumnBatch::from_rows(&s, &rows()).unwrap();
        let g = b.gather(&[1, u32::MAX]).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.row(0), rows()[1]);
        assert_eq!(g.row(1), Row::nulls(3));
    }

    #[test]
    fn concat_preserves_order_and_nulls() {
        let s = schema();
        let all = rows();
        let b1 = ColumnBatch::from_rows(&s, &all[..1]).unwrap();
        let b2 = ColumnBatch::from_rows(&s, &all[1..]).unwrap();
        let c = ColumnBatch::concat(&s, &[b1, b2]).unwrap();
        assert_eq!(c.to_rows(), all);
    }

    #[test]
    fn string_overflow_is_a_typed_error() {
        // An injected 8-byte cap stands in for the real 4 GiB boundary:
        // pre-fix the offsets silently wrapped, post-fix the push fails.
        let mut b = ColumnBuilder::new(DataType::Str, 4).with_byte_cap(8);
        b.push(&Value::str("abcd")).unwrap();
        b.push(&Value::str("efgh")).unwrap();
        let err = b.push(&Value::str("i")).unwrap_err();
        match err {
            DataError::ColumnOverflow { have, add, cap } => {
                assert_eq!((have, add, cap), (8, 1, 8));
            }
            other => panic!("expected ColumnOverflow, got {other:?}"),
        }
        // NULLs occupy no payload and must still be accepted at the cap.
        b.push(&Value::Null).unwrap();
        let c = b.finish();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value_at(1), Value::str("efgh"));
        assert!(c.value_at(2).is_null());
    }

    #[test]
    fn wire_width_matches_rows() {
        let s = schema();
        let b = ColumnBatch::from_rows(&s, &rows()).unwrap();
        let expect: usize = rows().iter().map(Row::wire_width).sum();
        assert_eq!(b.wire_width(), expect);
    }

    #[test]
    fn batching_splits_at_batch_rows() {
        let s = Schema::of(&[("k", DataType::Int)]);
        let rows: Vec<Row> = (0..10i64).map(|i| row![i]).collect();
        let bs = batches_from_rows(&s, &rows, 4).unwrap();
        assert_eq!(
            bs.iter().map(ColumnBatch::len).collect::<Vec<_>>(),
            [4, 4, 2]
        );
        let back: Vec<Row> = bs.iter().flat_map(|b| b.to_rows()).collect();
        assert_eq!(back, rows);
    }

    #[test]
    fn repeated_and_null_columns() {
        let c = Column::repeated(&Value::str("x"), DataType::Str, 3).unwrap();
        assert_eq!(c.value_at(2), Value::str("x"));
        let n = Column::nulls(DataType::Int, 2);
        assert_eq!(n.null_count(), 2);
        assert!(n.value_at(0).is_null());
        assert_eq!(n.zone(), None);
    }
}
