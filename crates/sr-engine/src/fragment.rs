//! The materialized-fragment cache: wire-encoded results of component
//! queries, served back without re-execution.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use sr_data::Schema;
use sr_obs::{lock_recover, MetricsRegistry};

use crate::cancel::CancelToken;
use crate::lru::Lru;
use crate::stream::{queued, StreamItem, StreamSummary, TupleStream};

/// One cached materialized fragment: the wire-encoded chunks of a component
/// query's full result, plus the stream metadata a warm hit must replay.
#[derive(Debug, Clone)]
pub(crate) struct CachedFragment {
    schema: Schema,
    chunks: Vec<Bytes>,
    row_count: usize,
    byte_size: usize,
}

impl CachedFragment {
    /// Serve the fragment with zero server-side time: every chunk plus the
    /// terminal summary pre-queued, the exact item sequence (and bytes) the
    /// execution produced when it was captured.
    pub(crate) fn into_stream(self) -> TupleStream {
        let sum = StreamSummary {
            row_count: self.row_count,
            byte_size: self.byte_size,
            ..StreamSummary::default()
        };
        let rx = queued(self.chunks, StreamItem::Done(sum));
        let mut stream = TupleStream::new(self.schema, rx, CancelToken::unbounded());
        stream.set_summary(&sum);
        stream
    }
}

/// The materialized-fragment cache: an [`Lru`] held to a byte budget,
/// holding encoded results instead of plans. Keyed by the SQL text, which
/// alone determines the produced chunk sequence. Sound because
/// the server's database is an immutable snapshot.
#[derive(Debug)]
pub(crate) struct FragmentCache {
    map: Lru<CachedFragment>,
    budget: usize,
    bytes: usize,
}

/// A point-in-time view of the fragment cache for STATS exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentCacheInfo {
    /// Configured byte budget.
    pub budget: usize,
    /// Bytes currently held.
    pub bytes: usize,
    /// Fragments currently held.
    pub entries: usize,
}

impl FragmentCache {
    pub(crate) fn new(budget: usize) -> FragmentCache {
        FragmentCache {
            map: Lru::new(usize::MAX),
            budget,
            bytes: 0,
        }
    }

    /// The fragment under `key`, marked most recently used.
    pub(crate) fn get(&mut self, key: &str) -> Option<CachedFragment> {
        self.map.get(key).cloned()
    }

    pub(crate) fn info(&self) -> FragmentCacheInfo {
        FragmentCacheInfo {
            budget: self.budget,
            bytes: self.bytes,
            entries: self.map.len(),
        }
    }

    /// Insert a fully captured fragment, evicting least-recently-used
    /// entries until it fits. A fragment larger than the whole budget is
    /// dropped outright. Returns the number of evictions.
    fn insert(&mut self, key: String, frag: CachedFragment) -> u64 {
        if frag.byte_size > self.budget {
            return 0;
        }
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.byte_size;
        }
        let mut evictions = 0;
        while self.bytes + frag.byte_size > self.budget {
            let Some(gone) = self.map.pop_lru() else {
                break;
            };
            self.bytes -= gone.byte_size;
            evictions += 1;
        }
        self.bytes += frag.byte_size;
        self.map.insert(key, frag);
        evictions
    }
}

/// In-flight capture of a query's chunks for the fragment cache. Attached
/// to a [`TupleStream`] on a cache miss; every chunk the consumer pulls is
/// also appended here, and only the clean final `Done` commits the
/// fragment. A `Failed` item, a decode error, or dropping the stream
/// mid-way discards the capture — a fault or cancellation can never cache
/// a partial fragment.
#[derive(Debug)]
pub(crate) struct FragmentCapture {
    cache: Arc<Mutex<FragmentCache>>,
    metrics: Arc<MetricsRegistry>,
    key: String,
    schema: Schema,
    chunks: Vec<Bytes>,
    size: usize,
    budget: usize,
}

impl FragmentCapture {
    pub(crate) fn new(
        cache: &Arc<Mutex<FragmentCache>>,
        metrics: &Arc<MetricsRegistry>,
        key: String,
        schema: Schema,
    ) -> FragmentCapture {
        let budget = lock_recover(cache).budget;
        FragmentCapture {
            cache: Arc::clone(cache),
            metrics: Arc::clone(metrics),
            key,
            schema,
            chunks: Vec::new(),
            size: 0,
            budget,
        }
    }

    /// Append one chunk; `false` once the capture outgrew the whole budget
    /// (the caller then drops the capture instead of buffering on).
    pub(crate) fn push(&mut self, bytes: &Bytes) -> bool {
        self.size += bytes.len();
        if self.size > self.budget {
            return false;
        }
        self.chunks.push(bytes.clone());
        true
    }

    /// Commit the completed fragment under its key.
    pub(crate) fn commit(self, row_count: usize, byte_size: usize) {
        let mut cache = lock_recover(&self.cache);
        let evicted = cache.insert(
            self.key,
            CachedFragment {
                schema: self.schema,
                chunks: self.chunks,
                row_count,
                byte_size,
            },
        );
        self.metrics
            .counter("cache.fragment.evictions")
            .add(evicted);
        self.metrics
            .counter("cache.fragment.bytes")
            .set(cache.bytes as u64);
    }
}
