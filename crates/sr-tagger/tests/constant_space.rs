//! Paper §3.3 as an assertion: "the required memory size depends only on
//! the number of nodes and Skolem-term variables in the view tree".
//!
//! A counting global allocator watches `tag_streams` tag a three-level view
//! at N and at 2N root instances, through both kinds of row source. The
//! number of allocator calls must not follow the tuple count, and the
//! live-bytes high-water mark must not move between N and 2N.
//!
//! One test function, on purpose: the allocator is process-wide, and a
//! second test running beside this one would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use sr_data::{row, DataType, Database, Schema, Table};
use sr_engine::{execute, Server};
use sr_sqlgen::{generate_queries, PlanSpec};
use sr_tagger::{tag_streams, RowSource, StreamInput, TagStats};
use sr_viewtree::{build, ViewTree};

struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every request is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, and
        // the caller guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `roots` `<a>` elements, each with two `<b>`, each of those with two
/// `<c>`, and a text child at every level.
fn fixture(roots: i64) -> (ViewTree, Arc<Database>) {
    let mut db = Database::new();
    let mut a = Table::new(
        "A",
        Schema::of(&[("aid", DataType::Int), ("av", DataType::Str)]),
    );
    let mut b = Table::new(
        "B",
        Schema::of(&[
            ("bid", DataType::Int),
            ("aid", DataType::Int),
            ("bv", DataType::Str),
        ]),
    );
    let mut c = Table::new(
        "C",
        Schema::of(&[
            ("cid", DataType::Int),
            ("bid", DataType::Int),
            ("cv", DataType::Float),
        ]),
    );
    for i in 0..roots {
        a.insert(row![i, format!("a<{i}>")]).unwrap();
        for j in 0..2 {
            let bid = 2 * i + j;
            b.insert(row![bid, i, format!("b&{bid}")]).unwrap();
            for k in 0..2 {
                let cid = 2 * bid + k;
                c.insert(row![cid, bid, cid as f64 / 4.0]).unwrap();
            }
        }
    }
    db.add_table(a);
    db.add_table(b);
    db.add_table(c);
    db.declare_key("A", &["aid"]).unwrap();
    db.declare_key("B", &["bid"]).unwrap();
    db.declare_key("C", &["cid"]).unwrap();
    let q = sr_rxl::parse(
        "from A $a construct <a><x>$a.av</x>\
         { from B $b where $a.aid = $b.aid construct <b><y>$b.bv</y>\
           { from C $c where $b.bid = $c.bid construct <c>$c.cv</c> } </b> } </a>",
    )
    .unwrap();
    let tree = build(&q, &db).unwrap();
    (tree, Arc::new(db))
}

#[derive(Debug, Clone, Copy)]
enum Source {
    Materialized,
    Stream,
}

struct Run {
    stats: TagStats,
    /// Allocator calls (`alloc` + `realloc`) made inside `tag_streams`.
    calls: usize,
    /// How far live bytes rose above their level at entry.
    high_water: usize,
}

fn run(roots: i64, source: Source) -> Run {
    let (tree, db) = fixture(roots);
    let server = Server::new(Arc::clone(&db));
    // Fully partitioned: five streams, so the merge is exercised too.
    let queries = generate_queries(&tree, &db, PlanSpec::fully_partitioned()).unwrap();
    assert_eq!(queries.len(), 5);
    let inputs: Vec<StreamInput> = queries
        .into_iter()
        .map(|q| match source {
            Source::Materialized => {
                let rs = execute(&q.plan, &db).unwrap();
                StreamInput {
                    rows: RowSource::Materialized(rs.rows.into_iter()),
                    schema: rs.schema,
                    reduced: q.reduced,
                }
            }
            // Buffered: the whole result is on the wire before tagging
            // starts, so nothing but the tagger allocates while it runs.
            Source::Stream => {
                let stream = server.execute_sql(&q.sql).unwrap();
                StreamInput {
                    schema: stream.schema.clone(),
                    rows: RowSource::Stream(Box::new(stream)),
                    reduced: q.reduced,
                }
            }
        })
        .collect();

    let calls = CALLS.load(Relaxed);
    let entry = LIVE.load(Relaxed);
    PEAK.store(entry, Relaxed);
    let (stats, _) = tag_streams(&tree, inputs, std::io::sink(), false).unwrap();
    Run {
        calls: CALLS.load(Relaxed) - calls,
        high_water: PEAK.load(Relaxed) - entry,
        stats,
    }
}

#[test]
fn tagging_allocates_by_the_view_tree_not_by_the_tuples() {
    // Enough rows per stream that every arena has reached its full batch.
    const N: i64 = 600;
    for source in [Source::Materialized, Source::Stream] {
        let small = run(N, source);
        let large = run(2 * N, source);
        assert_eq!(small.stats.tuples, 10 * N as u64, "{source:?}");
        assert_eq!(large.stats.tuples, 20 * N as u64, "{source:?}");
        assert_eq!(large.stats.elements, 2 * small.stats.elements);
        assert_eq!(small.stats.max_open_depth, 3);

        for r in [&small, &large] {
            let bound = 250 + r.stats.tuples as usize / 20;
            assert!(
                r.calls <= bound,
                "{source:?}: {} allocator calls for {} tuples (bound {bound})",
                r.calls,
                r.stats.tuples
            );
        }
        assert!(
            large.calls <= small.calls + 16,
            "{source:?}: {} allocator calls at N, {} at 2N",
            small.calls,
            large.calls
        );
        assert!(
            large.high_water.abs_diff(small.high_water) <= 1024,
            "{source:?}: high-water {} B at N, {} B at 2N",
            small.high_water,
            large.high_water
        );
    }
}
