//! The constant-space tagger (paper §3.3).
//!
//! "The tagging algorithm merges the partitioned tuple streams into one
//! tuple stream, nests the tuples, and tags their values. The required
//! memory size depends only on the number of nodes and Skolem-term
//! variables in the view tree" — here: per stream one bounded cell arena
//! and one head key, plus an open-element stack as deep as the view tree,
//! each entry retaining the few cells its element still has to emit. No
//! tuple is owned between the wire and the XML sink, and once the buffers
//! have grown to the view tree's size the loop allocates nothing
//! (`tests/constant_space.rs`).
//!
//! Mechanics: every stream's head tuple is reduced to its `PathKey`; a
//! k-way merge takes tuples in key order, which is document order; a
//! tuple's non-NULL `L` prefix names a root-to-node path whose instances
//! are opened/closed against the stack. Merged (`1`-labeled) class members
//! and literal/variable text are emitted by a per-element cursor over the
//! element's content layout, so interleaved text and out-of-order sibling
//! branches come out in document order.

use std::cmp::Ordering;
use std::fmt;
use std::io::Write;
use std::time::Duration;

use sr_data::{Row, Schema};
use sr_engine::wire::{Cell, CellArena, Slot};
use sr_engine::{EngineError, TupleStream};
use sr_obs::{TraceSpan, Tracer};
use sr_viewtree::{NodeContent, NodeId, ReducedComponent, TextSource, ViewTree};

use crate::program::{Program, StreamColumns};
use crate::xml::{XmlError, XmlWriter};

/// Tagger errors.
#[derive(Debug)]
pub enum TagError {
    /// Output write failure.
    Io(std::io::Error),
    /// Stream decode failure.
    Engine(EngineError),
    /// Structural inconsistency (malformed stream contents).
    Structure(String),
    /// The view tree itself is malformed (e.g. a non-root node with an
    /// empty SFI path) — tagging cannot proceed against it.
    MalformedTree(String),
}

impl fmt::Display for TagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagError::Io(e) => write!(f, "io error: {e}"),
            TagError::Engine(e) => write!(f, "stream error: {e}"),
            TagError::Structure(m) => write!(f, "structure error: {m}"),
            TagError::MalformedTree(m) => write!(f, "malformed view tree: {m}"),
        }
    }
}

impl std::error::Error for TagError {}

impl From<std::io::Error> for TagError {
    fn from(e: std::io::Error) -> Self {
        TagError::Io(e)
    }
}

impl From<EngineError> for TagError {
    fn from(e: EngineError) -> Self {
        TagError::Engine(e)
    }
}

impl From<XmlError> for TagError {
    fn from(e: XmlError) -> Self {
        match e {
            XmlError::Io(e) => TagError::Io(e),
            XmlError::Malformed(m) => TagError::MalformedTree(m),
        }
    }
}

/// A source of sorted rows.
pub enum RowSource {
    /// Already materialized rows.
    Materialized(std::vec::IntoIter<Row>),
    /// A server tuple stream (decoded lazily — this is where "transfer
    /// time" is spent). Boxed: `TupleStream` is much larger than the
    /// materialized iterator, and there is only one `RowSource` per
    /// component stream.
    Stream(Box<TupleStream>),
}

/// One input stream: rows, their schema, and the component metadata that
/// maps columns back to view-tree structure.
pub struct StreamInput {
    /// Sorted rows.
    pub rows: RowSource,
    /// Stream schema (column names `L{p}` / `v{p}_{q}`).
    pub schema: Schema,
    /// The component's (possibly reduced) class tree.
    pub reduced: ReducedComponent,
}

/// Per-input-stream breakdown of a tagging run — the raw material for the
/// paper's query-time vs. transfer vs. tagging decomposition (Figs. 13–15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamTagStats {
    /// Tuples consumed from this stream.
    pub tuples: u64,
    /// Encoded wire size of the stream (zero for materialized inputs).
    pub wire_bytes: u64,
    /// Server-side query time (zero for materialized inputs).
    pub server_time: Duration,
    /// Client-side decode ("bind and transfer") time spent on this stream.
    pub transfer_time: Duration,
    /// Time the tagger spent blocked waiting on this stream's server worker
    /// (zero for materialized and buffered inputs).
    pub stall_time: Duration,
}

/// Statistics from one tagging run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TagStats {
    /// Tuples consumed across all streams.
    pub tuples: u64,
    /// XML elements emitted.
    pub elements: u64,
    /// Maximum open-element stack depth (≤ view-tree depth).
    pub max_open_depth: usize,
    /// Bytes of XML written.
    pub bytes: u64,
    /// Per-input-stream breakdowns, in input order.
    pub per_stream: Vec<StreamTagStats>,
}

impl TagStats {
    /// Total client-side decode ("bind and transfer") time across streams.
    pub fn total_transfer_time(&self) -> Duration {
        self.per_stream.iter().map(|s| s.transfer_time).sum()
    }

    /// Total time spent blocked waiting on streaming server workers.
    pub fn total_stall_time(&self) -> Duration {
        self.per_stream.iter().map(|s| s.stall_time).sum()
    }
}

/// A tuple's place in document order: its *structural path* flattened to
/// `L1, keys of the level-1 node, L2, keys of the level-2 node, …`, the `L`
/// prefix ending where the tuple's path does.
///
/// Two tuples compare by these cells left to right, a path that ends
/// sorting before one that goes on (parents before children). Two keys
/// agree on layout for as long as they agree on content — the same `L`
/// prefix names the same nodes, hence the same key variables — so the walk
/// never compares cells of different meaning. Comparing whole tuples
/// column-by-column would be wrong across streams: a reduced component
/// carries merged members' keys and content on every row, while other
/// components lack those columns; path keys are carried by every stream
/// whose tuples pass through the node.
///
/// All buffers are reused: a key is rebuilt in place for every tuple.
#[derive(Default)]
struct PathKey {
    cells: Vec<Slot>,
    /// String bytes of `cells`.
    bytes: Vec<u8>,
    /// The node at each level of the path.
    path: Vec<NodeId>,
    /// `ends[d]` = how many of `cells` belong to levels `..=d`.
    ends: Vec<usize>,
}

/// [`Slot::keep`], its one failure typed.
#[inline]
fn retain(cell: Cell<'_>, store: &mut Vec<u8>) -> Result<Slot, TagError> {
    Slot::keep(cell, store)
        .ok_or_else(|| TagError::Structure("a tuple's strings exceed 4 GiB".into()))
}

impl PathKey {
    /// Compare with `other`: how many leading cells agree, and the order
    /// from there on.
    #[inline]
    fn diverge(&self, other: &PathKey) -> (usize, Ordering) {
        let n = self.cells.len().min(other.cells.len());
        for i in 0..n {
            let ord = self.cells[i].order(&self.bytes, other.cells[i], &other.bytes);
            if ord != Ordering::Equal {
                return (i, ord);
            }
        }
        (n, self.cells.len().cmp(&other.cells.len()))
    }

    #[inline]
    fn push(&mut self, cell: Cell<'_>) -> Result<(), TagError> {
        self.cells.push(retain(cell, &mut self.bytes)?);
        Ok(())
    }

    /// Rebuild the key for the tuple whose cell at column `c` is `cell(c)`,
    /// following its non-NULL `L` prefix down the tree. A tuple whose
    /// labels name no path through the tree is malformed.
    #[inline]
    fn rebuild<'c>(
        &mut self,
        prog: &Program<'_>,
        cols: &StreamColumns,
        cell: impl Fn(usize) -> Cell<'c>,
    ) -> Result<(), TagError> {
        self.cells.clear();
        self.bytes.clear();
        self.path.clear();
        self.ends.clear();
        for (p, &col) in cols.level.iter().enumerate() {
            let label = match cell(col) {
                Cell::Null => break,
                Cell::Int(i) => i,
                other => {
                    return Err(TagError::Structure(format!(
                        "non-integer level label L{}: {other}",
                        p + 1
                    )));
                }
            };
            let Some(node) = prog.step(self.path.last().copied(), label) else {
                let mut sfi: Vec<i64> = self.path.iter().map(|&n| prog.ordinal(n).into()).collect();
                sfi.push(label);
                return Err(TagError::Structure(format!(
                    "no view-tree node with SFI {sfi:?}"
                )));
            };
            self.push(Cell::Int(label))?;
            for &col in cols.keys(node) {
                self.push(cell(col))?;
            }
            self.path.push(node);
            self.ends.push(self.cells.len());
        }
        if self.path.is_empty() {
            return Err(TagError::Structure("tuple with NULL L1".into()));
        }
        Ok(())
    }
}

/// One stream's position in the merge: its source, the tuple at its head,
/// and where its schema puts the columns the tagger reads. The head is
/// never an owned tuple on the wire path — it is a row index into the
/// stream's cell arena — and both kinds of source are read through
/// [`Cursor::cell`] alone, so everything downstream is one code path.
struct Cursor {
    rows: RowSource,
    /// Head of a [`RowSource::Materialized`].
    row: Option<Row>,
    /// Bound rows of a [`RowSource::Stream`], and the head's index in them.
    arena: CellArena,
    at: usize,
    cols: StreamColumns,
    /// The head tuple's key.
    key: PathKey,
}

/// A materialized row's cell at `col`; NULL past its arity.
#[inline]
fn cell_of(row: &Row, col: usize) -> Cell<'_> {
    row.values().get(col).map_or(Cell::Null, Cell::from)
}

impl Cursor {
    /// Move to the next tuple and work out its key; `false` once the
    /// stream is exhausted.
    fn advance(&mut self, prog: &Program<'_>) -> Result<bool, TagError> {
        match &mut self.rows {
            RowSource::Materialized(it) => {
                self.row = it.next();
                let Some(row) = &self.row else {
                    return Ok(false);
                };
                self.key.rebuild(prog, &self.cols, |c| cell_of(row, c))?;
            }
            RowSource::Stream(stream) => {
                self.at += 1;
                if self.at >= self.arena.rows() {
                    self.at = 0;
                    if !stream.bind_next(&mut self.arena)? {
                        return Ok(false);
                    }
                }
                let (arena, at) = (&self.arena, self.at);
                self.key.rebuild(prog, &self.cols, |c| arena.cell(at, c))?;
            }
        }
        Ok(true)
    }

    /// The head tuple's cell at `col`; NULL for a column the stream lacks
    /// (`program::ABSENT`).
    fn cell(&self, col: usize) -> Cell<'_> {
        match &self.rows {
            RowSource::Materialized(_) => {
                (self.row.as_ref()).map_or(Cell::Null, |r| cell_of(r, col))
            }
            RowSource::Stream(_) => self.arena.cell(self.at, col),
        }
    }
}

/// The k-way merge's binary min-heap, over stream indices. The caller owns
/// the keys (the streams' heads) and passes the strict order in; the heap
/// only remembers positions. A tuple costs one sift-down from the top, not
/// a pop and a push, and the sift stops at once while the stream that just
/// advanced still precedes the runner-up — the common case, a run of
/// tuples from one stream.
struct MergeHeap(Vec<usize>);

impl MergeHeap {
    fn new(members: Vec<usize>, less: &impl Fn(usize, usize) -> bool) -> MergeHeap {
        let mut heap = MergeHeap(members);
        for i in (0..heap.0.len() / 2).rev() {
            heap.sift_down(i, less);
        }
        heap
    }

    /// The stream whose head is smallest.
    fn top(&self) -> Option<usize> {
        self.0.first().copied()
    }

    /// The top stream ran dry: drop it.
    fn remove_top(&mut self, less: &impl Fn(usize, usize) -> bool) {
        self.0.swap_remove(0);
        self.sift_down(0, less);
    }

    /// Restore the heap after the stream at position `i` moved to a later
    /// tuple.
    fn sift_down(&mut self, mut i: usize, less: &impl Fn(usize, usize) -> bool) {
        let heap = &mut self.0;
        loop {
            let l = 2 * i + 1;
            if l >= heap.len() {
                break;
            }
            let r = l + 1;
            let child = if r < heap.len() && less(heap[r], heap[l]) {
                r
            } else {
                l
            };
            if !less(heap[child], heap[i]) {
                break;
            }
            heap.swap(i, child);
            i = child;
        }
    }
}

/// The sortedness-contract error for a tuple whose key regressed behind
/// the previously merged one. Two distinct contracts can break:
///
/// * `si == prev_si` — the stream violated its **intra-stream order**
///   contract: the server shipped it out of document order.
/// * `si != prev_si` — each stream may well be sorted, but their keys
///   disagree about document order: a **merge layout** mismatch between
///   the streams' column mappings. Blaming only `si` would send people
///   debugging the wrong stream's ORDER BY.
fn order_violation(si: usize, prev_si: usize) -> TagError {
    if si == prev_si {
        TagError::Structure(format!(
            "intra-stream order contract violated: stream {si} is not sorted \
             in document order (tuple regressed behind its own predecessor)"
        ))
    } else {
        TagError::Structure(format!(
            "merge layout contract violated: a tuple from stream {si} regressed \
             behind the last tuple merged from stream {prev_si}; each stream may \
             be individually sorted, but their lift layouts disagree about \
             document order"
        ))
    }
}

/// One open element. The stack keeps `max_level` of these for the whole
/// run and reuses their buffers, so an element outlives the wire chunk its
/// opening tuple came from without the loop allocating: the cells its text
/// and merged members will read are copied in, string bytes into `bytes`,
/// cleared rather than freed.
#[derive(Default)]
struct Open {
    node: NodeId,
    /// Which stream opened it (for class metadata and column positions).
    stream: usize,
    /// Cursor into the node's content layout.
    cursor: usize,
    /// Highest child ordinal already opened as a streamed instance.
    last_child_ordinal: u32,
    /// The opening tuple's cells, by the opening stream's column; only the
    /// columns in that stream's payload for `node` are current.
    cells: Vec<Slot>,
    bytes: Vec<u8>,
}

/// The tagging machine; holds the pieces every emission step needs.
struct Tagger<'t, W: Write> {
    prog: Program<'t>,
    streams: Vec<Cursor>,
    /// `stack[..depth]` are the open elements, outermost first.
    stack: Vec<Open>,
    depth: usize,
    /// The key of the last tuple tagged. Its path is what `stack[..depth]`
    /// holds open.
    last: PathKey,
    writer: XmlWriter<W>,
    stats: TagStats,
    /// Trace sink and the driver's lane for merge-progress counters.
    trace: Option<(&'t Tracer, u64)>,
}

/// Merge the streams and write the XML document (a forest of root-element
/// instances). Returns statistics and the writer's inner output.
pub fn tag_streams<W: Write>(
    tree: &ViewTree,
    inputs: Vec<StreamInput>,
    out: W,
    pretty: bool,
) -> Result<(TagStats, W), TagError> {
    tag_streams_traced(tree, inputs, out, pretty, None)
}

/// [`tag_streams`] with an optional trace sink: the k-way merge runs under
/// a `tagger.merge` span on the calling thread's lane (named
/// `driver (tagger)`), with periodic `tagger.tuples` progress counters.
pub fn tag_streams_traced<W: Write>(
    tree: &ViewTree,
    inputs: Vec<StreamInput>,
    out: W,
    pretty: bool,
    tracer: Option<&Tracer>,
) -> Result<(TagStats, W), TagError> {
    let prog = Program::compile(tree)?;
    let mut writer = XmlWriter::new(out);
    writer.pretty = pretty;

    let widest = inputs.iter().map(|i| i.schema.arity()).max().unwrap_or(0);
    let mut streams: Vec<Cursor> = Vec::with_capacity(inputs.len());
    for input in inputs {
        streams.push(Cursor {
            cols: StreamColumns::compile(tree, &input.schema, &input.reduced)?,
            arena: CellArena::new(input.schema.arity()),
            rows: input.rows,
            row: None,
            at: 0,
            key: PathKey::default(),
        });
    }

    let n = streams.len();
    let mut t = Tagger {
        stack: std::iter::repeat_with(|| Open {
            cells: vec![Slot::default(); widest],
            ..Open::default()
        })
        .take(prog.max_level)
        .collect(),
        depth: 0,
        last: PathKey::default(),
        prog,
        streams,
        writer,
        stats: TagStats {
            per_stream: vec![StreamTagStats::default(); n],
            ..TagStats::default()
        },
        trace: tracer.map(|tr| (tr, tr.name_current_thread("driver (tagger)"))),
    };
    {
        let _merge = TraceSpan::new(tracer, "tagger.merge");
        t.run()?;
    }
    t.stats.bytes = t.writer.bytes_written();
    // Harvest per-stream server/transfer costs now that the streams are
    // fully decoded.
    for (i, s) in t.streams.iter().enumerate() {
        if let RowSource::Stream(ts) = &s.rows {
            let ps = &mut t.stats.per_stream[i];
            ps.wire_bytes = ts.byte_size as u64;
            ps.server_time = ts.query_time;
            ps.transfer_time = ts.transfer_time;
            ps.stall_time = ts.stall_time;
        }
    }
    let stats = t.stats;
    let out = t.writer.finish()?;
    Ok((stats, out))
}

/// The merge order over stream indices: by head key, ties broken by stream
/// index, which keeps equal keys in component preorder.
fn by_head(streams: &[Cursor]) -> impl Fn(usize, usize) -> bool + '_ {
    |a, b| {
        let by_key = streams[a].key.diverge(&streams[b].key).1;
        by_key.then(a.cmp(&b)).is_lt()
    }
}

impl<W: Write> Tagger<'_, W> {
    fn run(&mut self) -> Result<(), TagError> {
        let mut live = Vec::with_capacity(self.streams.len());
        for (si, s) in self.streams.iter_mut().enumerate() {
            if s.advance(&self.prog)? {
                live.push(si);
            }
        }
        let mut heap = MergeHeap::new(live, &by_head(&self.streams));

        // Which stream the last tuple tagged came from.
        let mut prev = 0;
        while let Some(si) = heap.top() {
            // The sortedness guard: the merged sequence must be
            // non-decreasing, otherwise the constant-space re-nesting would
            // silently emit a corrupted document. The same walk says how
            // much of the open path this tuple keeps.
            let (shared, order) = self.streams[si].key.diverge(&self.last);
            if order == Ordering::Less {
                return Err(order_violation(si, prev));
            }
            prev = si;
            self.tag_tuple(si, shared)?;
            self.stats.tuples += 1;
            self.stats.per_stream[si].tuples += 1;
            self.stats.max_open_depth = self.stats.max_open_depth.max(self.depth);
            if let Some((tr, lane)) = self.trace {
                // Periodic progress counter — one sample per chunk-worth of
                // tuples keeps the trace small on large documents.
                if self.stats.tuples.is_multiple_of(1024) {
                    tr.counter(lane, "tagger.tuples", self.stats.tuples as f64);
                }
            }
            if self.streams[si].advance(&self.prog)? {
                heap.sift_down(0, &by_head(&self.streams));
            } else {
                heap.remove_top(&by_head(&self.streams));
            }
        }

        // Close everything left open.
        self.close_down_to(0)
    }

    /// Tag the head tuple of stream `si`, whose key agrees with the last
    /// tuple's in its first `shared` cells: close the open elements its
    /// path leaves, open the ones it enters.
    fn tag_tuple(&mut self, si: usize, shared: usize) -> Result<(), TagError> {
        // The open stack is the last tuple's path: the levels whose cells
        // all lie in the shared prefix stay open.
        let key = &self.streams[si].key;
        let levels = key.path.len();
        let open = key.ends.iter().take(self.depth);
        let keep = open.take_while(|&&end| end <= shared).count();

        self.close_down_to(keep)?;

        // Open the remainder of the path.
        for d in keep..levels {
            let node = self.streams[si].key.path[d];
            if d > 0 {
                let ordinal = self.prog.ordinal(node);
                self.advance_cursor(d - 1, Some(ordinal))?;
                let parent = &mut self.stack[d - 1];
                parent.last_child_ordinal = parent.last_child_ordinal.max(ordinal);
            }
            self.writer.open(&self.prog.tree.node(node).tag)?;
            self.stats.elements += 1;

            let (cur, open) = (&self.streams[si], &mut self.stack[d]);
            open.node = node;
            open.stream = si;
            open.cursor = 0;
            open.last_child_ordinal = 0;
            open.bytes.clear();
            for &col in cur.cols.payload(node) {
                open.cells[col] = retain(cur.cell(col), &mut open.bytes)?;
            }
            self.depth = d + 1;
        }

        // The stream rebuilds its key when it advances, which is next; take
        // this one instead of copying it.
        std::mem::swap(&mut self.last, &mut self.streams[si].key);
        Ok(())
    }

    /// Close the innermost open elements until `depth` remain.
    fn close_down_to(&mut self, depth: usize) -> Result<(), TagError> {
        while self.depth > depth {
            let d = self.depth - 1;
            self.advance_cursor(d, None)?;
            self.writer
                .close(&self.prog.tree.node(self.stack[d].node).tag)?;
            self.depth = d;
        }
        Ok(())
    }

    /// Advance the content cursor of the element at stack depth `d` up to
    /// (but excluding) the child slot with ordinal `target`; `None` means
    /// to the end. Emits text and fully materializes merged class members
    /// along the way.
    fn advance_cursor(&mut self, d: usize, target: Option<u32>) -> Result<(), TagError> {
        let node = self.stack[d].node;
        let content = &self.prog.tree.node(node).content;
        while let Some(item) = content.get(self.stack[d].cursor) {
            match item {
                NodeContent::Text(src) => self.emit_text(src, d)?,
                NodeContent::Child(c) => {
                    let ord = self.prog.ordinal(*c);
                    if target.is_some_and(|t| ord >= t) {
                        return Ok(());
                    }
                    let open = &self.stack[d];
                    if ord > open.last_child_ordinal
                        && self.streams[open.stream].cols.same_class(node, *c)
                    {
                        // A merged (`1`-labeled) member with no streamed
                        // instances of its own: materialize it from the
                        // opening tuple. Non-member children with no
                        // streamed instances are simply absent (`*`/`?`
                        // semantics).
                        self.emit_member(*c, d)?;
                    }
                }
            }
            self.stack[d].cursor += 1;
        }
        Ok(())
    }

    /// Emit a merged member subtree entirely from the cells retained by
    /// the open element at stack depth `d`.
    fn emit_member(&mut self, node: NodeId, d: usize) -> Result<(), TagError> {
        let view = self.prog.tree.node(node);
        self.writer.open(&view.tag)?;
        self.stats.elements += 1;
        for item in &view.content {
            match item {
                NodeContent::Text(src) => self.emit_text(src, d)?,
                NodeContent::Child(c) => {
                    if self.streams[self.stack[d].stream].cols.same_class(node, *c) {
                        self.emit_member(*c, d)?;
                    }
                }
            }
        }
        self.writer.close(&view.tag)?;
        Ok(())
    }

    fn emit_text(&mut self, src: &TextSource, d: usize) -> Result<(), TagError> {
        let open = &self.stack[d];
        let cell = match src {
            TextSource::Lit(s) => Cell::Str(s.as_bytes()),
            TextSource::Var(v) => {
                let col = self.streams[open.stream].cols.var[*v];
                open.cells
                    .get(col)
                    .map_or(Cell::Null, |c| c.view(&open.bytes))
            }
        };
        match cell {
            Cell::Null => {}
            Cell::Int(i) => self.writer.int(i)?,
            Cell::Float(x) => self.writer.float(x)?,
            Cell::Str(s) => self.writer.text_bytes(s)?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;

    #[test]
    fn intra_stream_violation_names_the_stream_and_contract() {
        let msg = order_violation(3, 3).to_string();
        assert!(msg.contains("stream 3"), "{msg}");
        assert!(msg.contains("not sorted"), "{msg}");
        assert!(msg.contains("intra-stream order"), "{msg}");
        assert!(!msg.contains("merge layout"), "{msg}");
    }

    #[test]
    fn inter_stream_violation_names_both_streams_and_contract() {
        let msg = order_violation(2, 0).to_string();
        assert!(msg.contains("stream 2"), "{msg}");
        assert!(msg.contains("stream 0"), "{msg}");
        assert!(msg.contains("merge layout"), "{msg}");
        assert!(!msg.contains("not sorted"), "{msg}");
    }

    /// Merge sorted runs of integers through the heap, as `run` does.
    fn merge(runs: &[&[i64]]) -> Vec<(i64, usize)> {
        let at = std::cell::RefCell::new(vec![0usize; runs.len()]);
        let less = |a: usize, b: usize| {
            let at = at.borrow();
            (runs[a][at[a]], a) < (runs[b][at[b]], b)
        };
        let live = (0..runs.len()).filter(|&i| !runs[i].is_empty()).collect();
        let mut heap = MergeHeap::new(live, &less);
        let mut out = Vec::new();
        while let Some(si) = heap.top() {
            out.push((runs[si][at.borrow()[si]], si));
            at.borrow_mut()[si] += 1;
            if at.borrow()[si] < runs[si].len() {
                heap.sift_down(0, &less);
            } else {
                heap.remove_top(&less);
            }
        }
        out
    }

    #[test]
    fn heap_merges_in_key_order_with_stream_index_tie_break() {
        // Equal keys (2 in streams 1 and 2, 5 in 0 and 3) must come out
        // lowest-stream-first; long runs from one stream stay in order.
        let runs: [&[i64]; 6] = [&[5, 6, 7, 8, 40], &[2, 2, 9], &[2, 30], &[5], &[], &[1, 50]];
        let got = merge(&runs);
        let mut want: Vec<(i64, usize)> = runs
            .iter()
            .enumerate()
            .flat_map(|(si, r)| r.iter().map(move |&k| (k, si)))
            .collect();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(merge(&[&[1, 2, 3]]), [(1, 0), (2, 0), (3, 0)]);
        assert!(merge(&[]).is_empty());
    }
}
