//! Tuple wire format.
//!
//! The paper measures *total time* as query execution **plus** the time to
//! bind and transfer tuples to the middle-ware client over JDBC, and observes
//! that plans producing wide, NULL-heavy tuples pay heavily here (§4, §7).
//! To reproduce that effect without a network, the server encodes every
//! result row into this byte format and the client decodes it cell by cell —
//! real work proportional to tuple count and width, including a per-cell
//! overhead for NULLs, just like driver-level column binding.
//!
//! Format per row: `u32` cell count, then per cell a tag byte
//! (0 = NULL, 1 = Int, 2 = Float, 3 = Str) followed by the payload
//! (`i64` LE, `f64` LE, or `u32` length + UTF-8 bytes).

use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sr_data::column::{ColumnBatch, ColumnData};
use sr_data::{Row, Value};

use crate::error::EngineError;

/// Most rows in one encoded chunk: the server cuts every result into chunks
/// of this many rows, the executor checks for cancellation once per this
/// many rows of work, and a serving front-end cuts tuple frames to it.
pub const CHUNK_ROWS: usize = 1024;

/// Encode one row.
pub fn encode_row(row: &Row, buf: &mut BytesMut) {
    buf.put_u32(row.arity() as u32);
    for v in row.values() {
        match v {
            Value::Null => buf.put_u8(0),
            Value::Int(i) => {
                buf.put_u8(1);
                buf.put_i64_le(*i);
            }
            Value::Float(x) => {
                buf.put_u8(2);
                buf.put_f64_le(*x);
            }
            Value::Str(s) => {
                buf.put_u8(3);
                buf.put_u32(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
        }
    }
}

/// Encode many rows into one buffer.
pub fn encode_rows(rows: &[Row]) -> Bytes {
    let cap: usize = rows.iter().map(|r| r.wire_width() + 4).sum();
    let mut buf = BytesMut::with_capacity(cap);
    for r in rows {
        encode_row(r, &mut buf);
    }
    buf.freeze()
}

/// Encode rows `rows` of a column batch into `buf`, producing bytes
/// **identical** to [`encode_row`] over those rows materialized — this is
/// the late materialization pivot: values move straight from column
/// storage to wire bytes without ever becoming [`Row`]s.
pub fn encode_batch_into(batch: &ColumnBatch, rows: Range<usize>, buf: &mut BytesMut) {
    let arity = batch.schema().arity() as u32;
    for i in rows {
        buf.put_u32(arity);
        for col in batch.columns() {
            if !col.is_valid(i) {
                buf.put_u8(0);
                continue;
            }
            match col.data() {
                ColumnData::Int64(v) => {
                    buf.put_u8(1);
                    buf.put_i64_le(v[i]);
                }
                ColumnData::Float64(v) => {
                    buf.put_u8(2);
                    buf.put_f64_le(v[i]);
                }
                ColumnData::Utf8 { offsets, bytes } => {
                    let s = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                    buf.put_u8(3);
                    buf.put_u32(s.len() as u32);
                    buf.put_slice(s);
                }
            }
        }
    }
}

/// Encode one column batch into a fresh buffer, sized exactly up front.
pub fn encode_batch(batch: &ColumnBatch) -> Bytes {
    let mut buf = BytesMut::with_capacity(batch.wire_width() + 4 * batch.len());
    encode_batch_into(batch, 0..batch.len(), &mut buf);
    buf.freeze()
}

/// Most rows one [`CellArena::bind`] pass binds, so that the arena's
/// footprint never depends on how large a chunk it is handed — and stays
/// in cache, and below what the allocator gives back to the system between
/// documents.
pub const BIND_ROWS: usize = 256;

/// Rows an arena's first pass binds; each later pass binds twice as many,
/// up to [`BIND_ROWS`]. A k-way merge needs one row of every stream before
/// it can emit anything: binding a full chunk of each first would put that
/// work in front of the first output byte.
const FIRST_BIND_ROWS: usize = 32;

/// A cell borrowed from wherever its tuple lives: a wire chunk, a [`Row`],
/// or a buffer the tagger retains. String bytes are valid UTF-8.
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    /// SQL `NULL`.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string bytes.
    Str(&'a [u8]),
}

impl Cell<'_> {
    /// [`Value`]'s total order — `NULL <` numeric `<` string, `Int`/`Float`
    /// cross-compared through `total_cmp` — without building a `Value`.
    #[inline]
    pub fn order(self, other: Cell<'_>) -> Ordering {
        use Cell::*;
        match (self, other) {
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
}

impl<'a> From<&'a Value> for Cell<'a> {
    #[inline]
    fn from(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Int(i) => Cell::Int(*i),
            Value::Float(x) => Cell::Float(*x),
            Value::Str(s) => Cell::Str(s.as_bytes()),
        }
    }
}

impl fmt::Display for Cell<'_> {
    /// Renders like the [`Value`] the cell stands for.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Null => write!(f, "NULL"),
            Cell::Int(i) => write!(f, "{i}"),
            Cell::Float(x) => write!(f, "{x}"),
            Cell::Str(s) => write!(f, "{}", String::from_utf8_lossy(s)),
        }
    }
}

/// A [`Cell`] at rest: scalars inline, a string as a range into a byte
/// buffer kept beside it (a wire chunk, or a tagger-retained `Vec<u8>`).
/// Sixteen bytes, `Copy`, owns nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slot(Repr);

#[derive(Debug, Clone, Copy, Default)]
enum Repr {
    #[default]
    Null,
    Int(i64),
    Float(f64),
    Str {
        start: u32,
        len: u32,
    },
}

impl Slot {
    /// The cell this slot holds, its string bytes read from `base` — the
    /// buffer the slot was made against.
    #[inline]
    pub fn view(self, base: &[u8]) -> Cell<'_> {
        match self.0 {
            Repr::Null => Cell::Null,
            Repr::Int(i) => Cell::Int(i),
            Repr::Float(x) => Cell::Float(x),
            Repr::Str { start, len } => {
                let start = start as usize;
                Cell::Str(base.get(start..start + len as usize).unwrap_or_default())
            }
        }
    }

    /// Order two slots as [`Cell::order`] orders their cells, each read
    /// against its own buffer. Integers — level labels, most keys — are
    /// compared without leaving the slots.
    #[inline]
    pub fn order(self, base: &[u8], other: Slot, other_base: &[u8]) -> Ordering {
        match (self.0, other.0) {
            (Repr::Int(a), Repr::Int(b)) => a.cmp(&b),
            _ => self.view(base).order(other.view(other_base)),
        }
    }

    /// Copy `cell` so it outlives its source: string bytes are appended to
    /// `store`, which [`Slot::view`] must later be given. `None` if `store`
    /// would outgrow the 4 GiB a slot can address.
    #[inline]
    pub fn keep(cell: Cell<'_>, store: &mut Vec<u8>) -> Option<Slot> {
        Some(Slot(match cell {
            Cell::Null => Repr::Null,
            Cell::Int(i) => Repr::Int(i),
            Cell::Float(x) => Repr::Float(x),
            Cell::Str(s) => {
                let start = u32::try_from(store.len()).ok()?;
                let len = u32::try_from(s.len()).ok()?;
                start.checked_add(len)?;
                store.extend_from_slice(s);
                Repr::Str { start, len }
            }
        }))
    }
}

fn truncated(what: &str) -> EngineError {
    EngineError::Wire(format!("truncated {what}"))
}

fn take<const N: usize>(buf: &[u8], pos: &mut usize, what: &str) -> Result<[u8; N], EngineError> {
    let bytes = buf
        .get(*pos..)
        .and_then(|rest| rest.first_chunk::<N>())
        .ok_or_else(|| truncated(what))?;
    *pos += N;
    Ok(*bytes)
}

/// Read a row header at `pos`: the cell count, rejected before anything is
/// sized by it if the rest of the buffer could not hold that many cells
/// (every cell is at least its tag byte).
fn scan_row_header(buf: &[u8], pos: &mut usize) -> Result<usize, EngineError> {
    let n = u32::from_be_bytes(take(buf, pos, "row header")?) as usize;
    let remaining = buf.len() - *pos;
    if n > remaining {
        return Err(EngineError::Wire(format!(
            "row claims {n} cells but only {remaining} byte(s) remain"
        )));
    }
    Ok(n)
}

/// Read one cell at `pos`. A string comes back as a range into `buf`, in
/// bounds but not yet checked for UTF-8.
fn scan_cell(buf: &[u8], pos: &mut usize) -> Result<Slot, EngineError> {
    let [tag] = take(buf, pos, "cell tag")?;
    Ok(Slot(match tag {
        0 => Repr::Null,
        1 => Repr::Int(i64::from_le_bytes(take(buf, pos, "int")?)),
        2 => Repr::Float(f64::from_le_bytes(take(buf, pos, "float")?)),
        3 => {
            let len = u32::from_be_bytes(take(buf, pos, "string length")?);
            let start = *pos;
            if buf.len() - start < len as usize {
                return Err(truncated("string"));
            }
            *pos = start + len as usize;
            let start = u32::try_from(start)
                .map_err(|_| EngineError::Wire("chunk larger than 4 GiB".into()))?;
            Repr::Str { start, len }
        }
        tag => return Err(EngineError::Wire(format!("unknown cell tag {tag}"))),
    }))
}

fn utf8(bytes: &[u8]) -> Result<&str, EngineError> {
    std::str::from_utf8(bytes).map_err(|e| EngineError::Wire(format!("invalid utf-8: {e}")))
}

/// Decode one row; advances `buf`. Returns `None` at end of stream.
pub fn decode_row(buf: &mut Bytes) -> Result<Option<Row>, EngineError> {
    if !buf.has_remaining() {
        return Ok(None);
    }
    let bytes = buf.chunk();
    let mut pos = 0;
    let n = scan_row_header(bytes, &mut pos)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(match scan_cell(bytes, &mut pos)?.view(bytes) {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int(i),
            Cell::Float(x) => Value::Float(x),
            Cell::Str(s) => Value::str(utf8(s)?),
        });
    }
    buf.advance(pos);
    Ok(Some(Row::new(values)))
}

/// The longest prefix of `buf` made of at most `max_rows` whole rows, as
/// `(bytes, rows)`. The serve layer cuts forwarded chunks with it; cell
/// structure is checked, string contents are not looked at.
pub fn row_prefix(buf: &[u8], max_rows: usize) -> Result<(usize, usize), EngineError> {
    let (mut pos, mut rows) = (0, 0);
    while pos < buf.len() && rows < max_rows {
        for _ in 0..scan_row_header(buf, &mut pos)? {
            scan_cell(buf, &mut pos)?;
        }
        rows += 1;
    }
    Ok((pos, rows))
}

/// The reusable cell arena of one tuple stream: the *bind* half of the
/// paper's "bind and transfer". [`CellArena::bind`] walks up to
/// [`BIND_ROWS`] rows of the loaded chunk once, checking every byte, and
/// leaves one [`Slot`] per cell; the tagger then reads cells by
/// `(row, column)` with no further decoding and no owned tuple. The slot
/// vector is cleared, never freed, so a stream allocates only while its
/// first chunk is bound.
#[derive(Debug)]
pub struct CellArena {
    chunk: Bytes,
    /// Offset of the first byte of `chunk` not yet bound.
    pos: usize,
    arity: usize,
    slots: Vec<Slot>,
    rows: usize,
    /// Rows the next pass may bind.
    batch: usize,
}

impl CellArena {
    /// An empty arena for rows of `arity` cells (the stream's schema).
    pub fn new(arity: usize) -> CellArena {
        CellArena {
            chunk: Bytes::new(),
            pos: 0,
            arity,
            slots: Vec::new(),
            rows: 0,
            batch: FIRST_BIND_ROWS,
        }
    }

    /// Rows the last [`CellArena::bind`] left readable.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The cell at `(row, col)`; `NULL` outside the bound rows and columns.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> Cell<'_> {
        if row >= self.rows || col >= self.arity {
            return Cell::Null;
        }
        self.slots[row * self.arity + col].view(&self.chunk)
    }

    /// Whether every byte of the loaded chunk has been bound.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.chunk.len()
    }

    /// Replace the chunk; the rows bound from the previous one are gone.
    pub fn load(&mut self, chunk: Bytes) {
        self.chunk = chunk;
        self.pos = 0;
        self.slots.clear();
        self.rows = 0;
    }

    /// Bind the next rows of the chunk (at most [`BIND_ROWS`]; fewer in an
    /// arena's first passes), replacing the rows bound before. Any
    /// malformed byte — truncation, an unknown tag, a row whose cell count
    /// is not the schema's, invalid UTF-8 — is a typed error and leaves the
    /// arena with no rows and nothing more to bind.
    pub fn bind(&mut self) -> Result<usize, EngineError> {
        let buf: &[u8] = &self.chunk;
        let mut pos = std::mem::replace(&mut self.pos, buf.len());
        self.slots.clear();
        self.rows = 0;
        let mut rows = 0;
        while pos < buf.len() && rows < self.batch {
            let n = scan_row_header(buf, &mut pos)?;
            if n != self.arity {
                return Err(EngineError::Wire(format!(
                    "row has {n} cell(s), the stream's schema has {}",
                    self.arity
                )));
            }
            for _ in 0..n {
                let slot = scan_cell(buf, &mut pos)?;
                if let Cell::Str(s) = slot.view(buf) {
                    utf8(s)?;
                }
                self.slots.push(slot);
            }
            rows += 1;
        }
        self.pos = pos;
        self.rows = rows;
        self.batch = (self.batch * 2).min(BIND_ROWS);
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_data::row;

    #[test]
    fn roundtrip_mixed_row() {
        let r = Row::new(vec![
            Value::Int(-42),
            Value::Null,
            Value::Float(2.5),
            Value::str("héllo"),
        ]);
        let mut bytes = encode_rows(std::slice::from_ref(&r));
        let back = decode_row(&mut bytes).unwrap().unwrap();
        assert_eq!(back, r);
        assert!(decode_row(&mut bytes).unwrap().is_none());
    }

    #[test]
    fn roundtrip_many_rows() {
        let rows: Vec<Row> = (0..100i64).map(|i| row![i, format!("s{i}")]).collect();
        let mut bytes = encode_rows(&rows);
        let mut back = Vec::new();
        while let Some(r) = decode_row(&mut bytes).unwrap() {
            back.push(r);
        }
        assert_eq!(back, rows);
    }

    #[test]
    fn truncation_detected() {
        let r = row![7i64];
        let full = encode_rows(std::slice::from_ref(&r));
        for cut in 1..full.len() {
            let mut partial = full.slice(0..cut);
            assert!(
                decode_row(&mut partial).is_err(),
                "cut at {cut} should error"
            );
        }
    }

    #[test]
    fn empty_stream_is_none() {
        let mut b = Bytes::new();
        assert!(decode_row(&mut b).unwrap().is_none());
    }

    #[test]
    fn batch_encoding_matches_row_encoding() {
        use sr_data::{DataType, Schema};
        let schema = Schema::new(vec![
            sr_data::Column::new("k", DataType::Int),
            sr_data::Column::nullable("x", DataType::Float),
            sr_data::Column::nullable("s", DataType::Str),
        ])
        .unwrap();
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Float(0.5), Value::str("héllo")]),
            Row::new(vec![Value::Int(2), Value::Null, Value::Null]),
            Row::new(vec![Value::Int(3), Value::Float(-1.0), Value::str("")]),
        ];
        let batch = ColumnBatch::from_rows(&schema, &rows).unwrap();
        assert_eq!(encode_batch(&batch), encode_rows(&rows));
        let empty = ColumnBatch::from_rows(&schema, &[]).unwrap();
        assert!(encode_batch(&empty).is_empty());
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        buf.put_u8(9);
        let mut b = buf.freeze();
        assert!(decode_row(&mut b).is_err());
    }

    /// Every decoder over the same bytes: the owned one to exhaustion, the
    /// arena bound to exhaustion, the row-boundary scan. None may panic.
    fn decode_every_way(bytes: &[u8], arity: usize) -> [Result<usize, EngineError>; 3] {
        let mut owned = Bytes::from_vec(bytes.to_vec());
        let owned = (|| {
            let mut rows = 0;
            while decode_row(&mut owned)?.is_some() {
                rows += 1;
            }
            Ok(rows)
        })();
        let mut arena = CellArena::new(arity);
        arena.load(Bytes::from_vec(bytes.to_vec()));
        let bound = (|| {
            let mut rows = 0;
            while !arena.exhausted() {
                rows += arena.bind()?;
            }
            Ok(rows)
        })();
        [
            owned,
            bound,
            row_prefix(bytes, usize::MAX).map(|(_, rows)| rows),
        ]
    }

    #[test]
    fn hostile_cell_count_is_a_typed_error_not_an_allocation() {
        // A corrupt or hostile frame claiming 2^32-1 cells used to reach
        // `Vec::with_capacity(n)` and abort in the allocator.
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        buf.put_slice(&[0; 16]);
        for decoded in decode_every_way(&buf.freeze(), 4) {
            match decoded {
                Err(EngineError::Wire(m)) => assert!(m.contains("4294967295 cells"), "{m}"),
                other => panic!("expected a wire error, got {other:?}"),
            }
        }
    }

    #[test]
    fn arena_agrees_with_owned_rows_and_rejects_what_they_reject() {
        let rows: Vec<Row> = (0..2500i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Float(i as f64 / 4.0)
                    },
                    Value::str(format!("n\u{e9}{i}")),
                ])
            })
            .collect();
        let mut arena = CellArena::new(3);
        arena.load(encode_rows(&rows));
        let mut seen = 0;
        while !arena.exhausted() {
            let n = arena.bind().unwrap();
            assert!(n <= BIND_ROWS);
            for r in 0..n {
                for c in 0..3 {
                    let want = Cell::from(rows[seen + r].get(c));
                    assert_eq!(arena.cell(r, c).order(want), Ordering::Equal);
                    assert_eq!(arena.cell(r, c).to_string(), want.to_string());
                }
                assert!(matches!(arena.cell(r, 3), Cell::Null), "past the arity");
            }
            assert!(
                matches!(arena.cell(n, 0), Cell::Null),
                "past the bound rows"
            );
            seen += n;
        }
        assert_eq!(seen, rows.len());

        // A row of the wrong width and a string that is not UTF-8.
        let mut arena = CellArena::new(2);
        arena.load(encode_rows(&rows[..1]));
        assert!(matches!(arena.bind(), Err(EngineError::Wire(m)) if m.contains("schema")));
        assert_eq!(arena.rows(), 0);
        let mut bad = BytesMut::new();
        bad.put_u32(1);
        bad.put_u8(3);
        bad.put_u32(2);
        bad.put_slice(&[0xC3, 0x28]);
        for decoded in &decode_every_way(&bad.freeze(), 1)[..2] {
            assert!(matches!(decoded, Err(EngineError::Wire(m)) if m.contains("utf-8")));
        }
    }

    #[test]
    fn row_prefix_cuts_on_row_boundaries() {
        let rows: Vec<Row> = (0..10i64)
            .map(|i| row![i, "x".repeat(i as usize)])
            .collect();
        let bytes = encode_rows(&rows);
        let (len, n) = row_prefix(&bytes, 4).unwrap();
        assert_eq!(n, 4);
        assert_eq!(&bytes[..len], &encode_rows(&rows[..4])[..]);
        assert_eq!(row_prefix(&bytes, 99).unwrap(), (bytes.len(), 10));
        assert_eq!(row_prefix(&[], 4).unwrap(), (0, 0));
    }

    #[test]
    fn kept_slots_outlive_their_source() {
        let mut store = Vec::new();
        let kept: Vec<Slot> = {
            let source = row![7i64, "caf\u{e9}", 2.5];
            (0..3)
                .map(|c| Slot::keep(source.get(c).into(), &mut store).unwrap())
                .collect()
        };
        let shown: Vec<String> = kept.iter().map(|s| s.view(&store).to_string()).collect();
        assert_eq!(shown, ["7", "caf\u{e9}", "2.5"]);
    }

    #[test]
    fn cell_order_is_value_order() {
        let values = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::str(""),
            Value::str("a"),
            Value::str("\u{e9}"),
        ];
        for a in &values {
            for b in &values {
                assert_eq!(Cell::from(a).order(b.into()), a.cmp(b), "{a} vs {b}");
            }
        }
    }

    mod garbage {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn random_bytes_never_panic(
                bytes in proptest::collection::vec(any::<u8>(), 0..96),
                arity in 0usize..6,
            ) {
                // Small tags and lengths make structurally plausible input
                // likely; whatever comes out must be a value, not a panic.
                let squeezed: Vec<u8> = bytes.iter().map(|b| b % 5).collect();
                let _ = decode_every_way(&bytes, arity);
                let _ = decode_every_way(&squeezed, arity);
            }

            #[test]
            fn every_truncation_of_a_valid_chunk_is_an_error_or_a_row_boundary(
                ints in proptest::collection::vec(any::<i64>(), 1..6),
                text in "[a-z<&\u{e9}]{0,12}",
            ) {
                let rows: Vec<Row> = ints
                    .iter()
                    .map(|&i| Row::new(vec![Value::Int(i), Value::Null, Value::str(&text)]))
                    .collect();
                let full = encode_rows(&rows);
                let row_len = full.len() / rows.len();
                for cut in 0..full.len() {
                    for decoded in decode_every_way(&full[..cut], 3) {
                        match decoded {
                            Ok(n) => prop_assert_eq!(n * row_len, cut),
                            Err(e) => prop_assert!(matches!(e, EngineError::Wire(_))),
                        }
                    }
                }
            }
        }
    }
}
