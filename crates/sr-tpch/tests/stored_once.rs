//! The database is stored once. A counting global allocator measures the
//! live heap that `generate` leaves behind at 16 MB: the column batches the
//! executor scans, and nothing else of size.
//!
//! When every table also kept a `Vec<Row>` copy beside its column image,
//! this measured 32.06 MB, about 25.5 MB of it the row copy. The column
//! image alone is 6.53 MB, so 8 MB leaves room for the catalog and the
//! batches' growth slack, and none for a second copy of the data.
//!
//! One test function, on purpose: the allocator is process-wide, and a
//! second test running beside this one would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use sr_tpch::{generate, Scale};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every request is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the counter touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
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
        LIVE.fetch_add(new_size, Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, and
        // the caller guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn generated_database_is_stored_once() {
    let before = LIVE.load(Relaxed);
    let db = generate(Scale::mb(16.0)).expect("tpch");
    let live = LIVE.load(Relaxed) - before;
    let mb = live as f64 / 1e6;
    eprintln!(
        "live heap after generate(16 MB): {mb:.2} MB, {} rows",
        db.row_count()
    );
    assert!(
        mb <= 8.0,
        "live heap {mb:.2} MB > 8 MB: is a second copy kept?"
    );
    drop(db);
}
