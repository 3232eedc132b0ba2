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
//! tree of losers takes tuples in key order, which is document order. Each
//! head carries an offset-value code — how many leading cells it shares
//! with the head it last lost to — so most matches are decided without
//! reading a cell, and the winner's code is exactly how much of the open
//! path it keeps. A tuple's non-NULL `L` prefix names a root-to-node path
//! whose instances are opened/closed against the stack. Merged
//! (`1`-labeled) class members and literal/variable text are emitted by a
//! per-element cursor over the element's content layout, so interleaved
//! text and out-of-order sibling branches come out in document order.

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
    /// Compare with `other`, whose first `from` cells are known to agree:
    /// how many leading cells agree, and the order from there on.
    #[inline]
    fn diverge(&self, other: &PathKey, from: usize) -> (usize, Ordering) {
        let n = self.cells.len().min(other.cells.len());
        for i in from..n {
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
    /// The head tuple's key, and the key of the tuple before it.
    key: PathKey,
    prev: PathKey,
}

/// A materialized row's cell at `col`; NULL past its arity.
#[inline]
fn cell_of(row: &Row, col: usize) -> Cell<'_> {
    row.values().get(col).map_or(Cell::Null, Cell::from)
}

impl Cursor {
    /// Move to the next tuple and work out its key. Returns how many leading
    /// cells the key shares with the tuple before it — the head's code in
    /// the merge — or `None` once the stream is exhausted. That one walk is
    /// also the sortedness guard: stream `si` may not regress.
    fn advance(&mut self, prog: &Program<'_>, si: usize) -> Result<Option<usize>, TagError> {
        std::mem::swap(&mut self.key, &mut self.prev);
        match &mut self.rows {
            RowSource::Materialized(it) => {
                self.row = it.next();
                let Some(row) = &self.row else {
                    return Ok(None);
                };
                self.key.rebuild(prog, &self.cols, |c| cell_of(row, c))?;
            }
            RowSource::Stream(stream) => {
                self.at += 1;
                if self.at >= self.arena.rows() {
                    self.at = 0;
                    if !stream.bind_next(&mut self.arena)? {
                        return Ok(None);
                    }
                }
                let (arena, at) = (&self.arena, self.at);
                self.key.rebuild(prog, &self.cols, |c| arena.cell(at, c))?;
            }
        }
        match self.key.diverge(&self.prev, 0) {
            (_, Ordering::Less) => Err(order_violation(si)),
            (shared, _) => Ok(Some(shared)),
        }
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

/// The k-way merge: a tree of losers over stream indices (Knuth, TAOCP 3
/// §5.4.1) with offset-value codes. The caller owns the keys (the streams'
/// heads) and lends them to each call; equal keys go lowest stream first,
/// which keeps them in component preorder.
///
/// Every loser is coded against the head that beat it, so all losers on
/// the winner's leaf-to-root path are coded against the winner. Once it is
/// tagged and its stream's next head is coded against it too, each match
/// of the replay is between two codes with one base: the larger offset is
/// the smaller key, and only equal offsets read cells, from that offset
/// on. The winner's code is then its offset from the last tuple tagged.
struct LoserTree {
    /// `nodes[0]` is the winning stream; `nodes[n]`, `1 ≤ n < k`, the stream
    /// that lost the match at node `n`. Stream `i` is leaf `k + i`, and node
    /// `n`'s parent is `n / 2`, so a replay plays at most ⌈log₂ k⌉ matches.
    nodes: Vec<usize>,
    /// Per stream, how many leading cells its head shares with the head it
    /// last lost to (for the winner: the last tuple tagged); `None` once
    /// exhausted, which loses every match.
    codes: Vec<Option<usize>>,
}

impl LoserTree {
    /// Play the first tournament. The heads' codes are against the empty
    /// key before the first tuple: `Some(0)`, or `None` for an empty stream.
    fn new<'k>(codes: Vec<Option<usize>>, key: impl Fn(usize) -> &'k PathKey) -> LoserTree {
        let mut tree = LoserTree {
            nodes: vec![0; codes.len()],
            codes,
        };
        if !tree.nodes.is_empty() {
            tree.nodes[0] = tree.build(1, &key);
        }
        tree
    }

    /// Play the matches under node `n`; returns their winner.
    fn build<'k>(&mut self, n: usize, key: &impl Fn(usize) -> &'k PathKey) -> usize {
        let k = self.codes.len();
        if n >= k {
            return n - k;
        }
        let (a, b) = (self.build(2 * n, key), self.build(2 * n + 1, key));
        let (winner, loser) = self.play(a, b, key);
        self.nodes[n] = loser;
        winner
    }

    /// The winning stream and its offset from the last tuple tagged;
    /// `None` once every stream is exhausted.
    fn winner(&self) -> Option<(usize, usize)> {
        let &si = self.nodes.first()?;
        Some((si, self.codes[si]?))
    }

    /// The winner's stream moved to a head coded `code` against the tuple
    /// just tagged: replay its leaf-to-root path. Returns the matches played.
    fn replay<'k>(&mut self, code: Option<usize>, key: impl Fn(usize) -> &'k PathKey) -> usize {
        let mut winner = self.nodes[0];
        self.codes[winner] = code;
        let (mut node, mut played) = ((self.codes.len() + winner) / 2, 0);
        while node > 0 {
            (winner, self.nodes[node]) = self.play(winner, self.nodes[node], &key);
            node /= 2;
            played += 1;
        }
        self.nodes[0] = winner;
        played
    }

    /// One match between heads coded against the same base: (winner,
    /// loser), the loser re-coded against the winner.
    fn play<'k>(
        &mut self,
        a: usize,
        b: usize,
        key: &impl Fn(usize) -> &'k PathKey,
    ) -> (usize, usize) {
        let a_wins = match (self.codes[a], self.codes[b]) {
            (Some(from), Some(cb)) if from == cb => {
                let (shared, order) = key(a).diverge(key(b), from);
                let a_wins = order.then(a.cmp(&b)).is_lt();
                self.codes[if a_wins { b } else { a }] = Some(shared);
                a_wins
            }
            // A larger offset is a smaller key; exhausted (`None`) is last.
            (ca, cb) => ca > cb,
        };
        if a_wins {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// The sortedness-contract error for stream `si`, whose new head sorts
/// before its own predecessor: the server shipped it out of document order.
///
/// This is the only way the merged sequence can regress. A key position
/// always holds the same column in every stream that carries it — the same
/// `L` prefix names the same nodes, hence the same key variables — and a
/// column's type is fixed, so the cells compared at one position are of
/// one type, where `Cell::order` is a total order. Key order is
/// lexicographic over it, and a merge of sorted streams under a total
/// order is sorted: checking each stream against its own predecessor when
/// it advances checks the whole merge.
fn order_violation(si: usize) -> TagError {
    TagError::Structure(format!(
        "intra-stream order contract violated: stream {si} is not sorted \
         in document order (tuple regressed behind its own predecessor)"
    ))
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
            prev: PathKey::default(),
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

impl<W: Write> Tagger<'_, W> {
    fn run(&mut self) -> Result<(), TagError> {
        let mut codes = Vec::with_capacity(self.streams.len());
        for (si, s) in self.streams.iter_mut().enumerate() {
            codes.push(s.advance(&self.prog, si)?);
        }
        let mut tree = LoserTree::new(codes, |i| &self.streams[i].key);

        while let Some((si, shared)) = tree.winner() {
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
            let code = self.streams[si].advance(&self.prog, si)?;
            tree.replay(code, |i| &self.streams[i].key);
        }

        // Close everything left open.
        self.close_down_to(0)
    }

    /// Tag the head tuple of stream `si`, whose key agrees with the last
    /// tuple's in its first `shared` cells (its code in the merge): close
    /// the open elements its path leaves, open the ones it enters.
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
    use proptest::prelude::*;

    #[test]
    fn intra_stream_violation_names_the_stream_and_contract() {
        let msg = order_violation(3).to_string();
        assert!(msg.contains("stream 3"), "{msg}");
        assert!(msg.contains("not sorted"), "{msg}");
        assert!(msg.contains("intra-stream order"), "{msg}");
        assert!(!msg.contains("merge layout"), "{msg}");
    }

    fn key_of(path: &[i64]) -> PathKey {
        let mut key = PathKey::default();
        for &c in path {
            key.push(Cell::Int(c)).unwrap();
        }
        key
    }

    /// A winner: its path, stream and offset.
    type Won = (Vec<i64>, usize, usize);

    /// Merge sorted runs of integer paths through the tree, as `run` does:
    /// every winner, and the matches each replay played.
    fn merge(runs: &[Vec<Vec<i64>>]) -> (Vec<Won>, Vec<usize>) {
        let mut at = vec![0; runs.len()];
        let mut keys: Vec<PathKey> = runs
            .iter()
            .map(|r| r.first().map_or_else(PathKey::default, |p| key_of(p)))
            .collect();
        let codes = runs.iter().map(|r| (!r.is_empty()).then_some(0)).collect();
        let mut tree = LoserTree::new(codes, |i| &keys[i]);
        let (mut out, mut played) = (Vec::new(), Vec::new());
        while let Some((si, offset)) = tree.winner() {
            out.push((runs[si][at[si]].clone(), si, offset));
            at[si] += 1;
            let code = runs[si].get(at[si]).map(|p| {
                let next = key_of(p);
                let (shared, order) = next.diverge(&keys[si], 0);
                assert_ne!(order, Ordering::Less, "runs are sorted");
                keys[si] = next;
                shared
            });
            played.push(tree.replay(code, |i| &keys[i]));
        }
        (out, played)
    }

    /// Short paths over a small alphabet: shared prefixes, keys that are
    /// prefixes of others and duplicates are common.
    fn runs() -> impl Strategy<Value = Vec<Vec<Vec<i64>>>> {
        let path = proptest::collection::vec(0i64..3, 1..5);
        let run = proptest::collection::vec(path, 0..9).prop_map(|mut r| {
            r.sort();
            r
        });
        proptest::collection::vec(run, 0..=12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn loser_tree_merges_like_a_stable_sort_with_offset_codes(runs in runs()) {
            let (out, played) = merge(&runs);
            let mut want: Vec<(Vec<i64>, usize)> = runs
                .iter()
                .enumerate()
                .flat_map(|(si, r)| r.iter().map(move |p| (p.clone(), si)))
                .collect();
            want.sort();
            let got: Vec<(Vec<i64>, usize)> = out.iter().map(|(p, si, _)| (p.clone(), *si)).collect();
            prop_assert_eq!(got, want);

            let mut last = PathKey::default();
            for (path, _, offset) in &out {
                let key = key_of(path);
                prop_assert_eq!(*offset, key.diverge(&last, 0).0, "offset of {:?}", path);
                last = key;
            }

            let depth = runs.len().next_power_of_two().trailing_zeros() as usize;
            prop_assert!(played.iter().all(|&m| m <= depth), "{:?} with k = {}", played, runs.len());
        }
    }
}
