//! The structured query log: one JSONL record per request.
//!
//! Records are handed to a dedicated writer thread over a **bounded,
//! non-blocking** channel: a handler thread calls [`QueryLog::emit`] and
//! moves on immediately. If the writer falls behind and the channel fills,
//! the record is *dropped* and counted (`dropped` in the STATS `qlog`
//! block) — logging can never stall a query, which is the whole point of
//! putting it on the request path.
//!
//! Slow requests (`--slow-ms`) get the expensive extras attached to their
//! record *before* emission — the per-node EXPLAIN ANALYZE profile and the
//! path of a Chrome trace file written tail-sampled by the handler — so the
//! writer thread itself stays trivial: render line, write, flush.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;

use sr_obs::Json;

use crate::frame::Format;
use crate::stats::QlogStat;

/// Records the channel may hold before new ones are dropped. Sized for a
/// burst of a few thousand sub-millisecond requests outrunning one fsync.
const QLOG_CHANNEL_DEPTH: usize = 4096;

/// Everything one request contributes to the log. Fields mirror the
/// `docs/OBSERVABILITY.md` "Query log" schema table.
#[derive(Debug, Clone, Default)]
pub struct QlogRecord {
    /// Server-wide request sequence number.
    pub seq: u64,
    /// Connection (client) id.
    pub client: u64,
    /// The view reference: a catalog name, or `rxl:<bytes>` for inline
    /// source (the source itself is not logged).
    pub view: String,
    /// The plan spec string as submitted.
    pub plan: String,
    /// The XPath run against the virtual view, empty for a full
    /// materialization.
    pub xpath: String,
    /// `xml` or `tuples`.
    pub format: Format,
    /// Component streams the plan decomposed into (0 when planning failed).
    pub streams: u64,
    /// Whether every component plan came out of the prepared-plan cache.
    pub cache_hit: bool,
    /// Admission queue wait.
    pub queue_ms: f64,
    /// View resolution + SQL generation.
    pub plan_ms: f64,
    /// Execution + tagging (total minus the other phases).
    pub exec_ms: f64,
    /// Time spent encoding and writing response frames (includes client
    /// backpressure).
    pub encode_ms: f64,
    /// End-to-end server-side time.
    pub total_ms: f64,
    /// Tuples shipped.
    pub rows: u64,
    /// Chunk payload bytes shipped.
    pub bytes: u64,
    /// `"ok"`, a wire error code (`TIMEOUT`, …), `"busy"`, or `"gone"`.
    pub outcome: String,
    /// Error detail, empty on success.
    pub error: String,
    /// Whether this request crossed the `--slow-ms` threshold.
    pub slow: bool,
    /// Per-component EXPLAIN ANALYZE profiles (slow requests only).
    pub profile: Option<Json>,
    /// Chrome trace file path (slow requests only).
    pub trace_file: Option<String>,
}

impl QlogRecord {
    /// Render as one JSON object (one line of the log).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seq", Json::UInt(self.seq)),
            ("client", Json::UInt(self.client)),
            ("view", Json::Str(self.view.clone())),
            ("plan", Json::Str(self.plan.clone())),
            ("xpath", Json::Str(self.xpath.clone())),
            (
                "format",
                Json::Str(
                    match self.format {
                        Format::Xml => "xml",
                        Format::Tuples => "tuples",
                    }
                    .into(),
                ),
            ),
            ("streams", Json::UInt(self.streams)),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("queue_ms", Json::Float(self.queue_ms)),
            ("plan_ms", Json::Float(self.plan_ms)),
            ("exec_ms", Json::Float(self.exec_ms)),
            ("encode_ms", Json::Float(self.encode_ms)),
            ("total_ms", Json::Float(self.total_ms)),
            ("rows", Json::UInt(self.rows)),
            ("bytes", Json::UInt(self.bytes)),
            ("outcome", Json::Str(self.outcome.clone())),
            ("error", Json::Str(self.error.clone())),
            ("slow", Json::Bool(self.slow)),
        ];
        if let Some(p) = &self.profile {
            fields.push(("profile", p.clone()));
        }
        if let Some(t) = &self.trace_file {
            fields.push(("trace_file", Json::Str(t.clone())));
        }
        Json::obj(fields)
    }
}

/// The bounded, non-blocking JSONL writer. Shared across handler threads
/// via `Arc`; dropping the last handle flushes and joins the writer.
pub struct QueryLog {
    tx: Option<SyncSender<String>>,
    written: Arc<AtomicU64>,
    dropped: AtomicU64,
    slow: AtomicU64,
    path: PathBuf,
    writer: Option<std::thread::JoinHandle<()>>,
}

impl QueryLog {
    /// Open (truncate) `path` and start the writer thread.
    pub fn open(path: &Path) -> std::io::Result<QueryLog> {
        let file = std::fs::File::create(path)?;
        let (tx, rx) = sync_channel::<String>(QLOG_CHANNEL_DEPTH);
        let written = Arc::new(AtomicU64::new(0));
        let written2 = Arc::clone(&written);
        let writer = std::thread::Builder::new()
            .name("serve-qlog".into())
            .spawn(move || {
                let mut out = std::io::BufWriter::new(file);
                // Drains until every sender is gone, then flushes and exits:
                // the drop of the last QueryLog handle is the log's fsync.
                while let Ok(line) = rx.recv() {
                    if out.write_all(line.as_bytes()).is_ok() && out.write_all(b"\n").is_ok() {
                        let _ = out.flush();
                        written2.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let _ = out.flush();
            })?;
        Ok(QueryLog {
            tx: Some(tx),
            written,
            dropped: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            path: path.to_path_buf(),
            writer: Some(writer),
        })
    }

    /// Where the log is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Queue one record; never blocks. A full channel drops the record and
    /// bumps the drop counter instead of stalling the caller.
    pub fn emit(&self, record: &QlogRecord) {
        if record.slow {
            self.slow.fetch_add(1, Ordering::Relaxed);
        }
        let line = record.to_json().render();
        if let Some(tx) = &self.tx {
            match tx.try_send(line) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Health counters for the STATS snapshot.
    pub fn stat(&self) -> QlogStat {
        QlogStat {
            enabled: true,
            written: self.written.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            slow: self.slow.load(Ordering::Relaxed),
        }
    }
}

impl Drop for QueryLog {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64, slow: bool) -> QlogRecord {
        QlogRecord {
            seq,
            client: 1,
            view: "query1".into(),
            plan: "unified".into(),
            xpath: String::new(),
            format: Format::Xml,
            streams: 2,
            cache_hit: seq > 0,
            queue_ms: 0.1,
            plan_ms: 0.4,
            exec_ms: 3.0,
            encode_ms: 0.2,
            total_ms: 3.7,
            rows: 100,
            bytes: 4096,
            outcome: "ok".into(),
            error: String::new(),
            slow,
            profile: if slow {
                Some(Json::Arr(vec![Json::obj(vec![(
                    "sql",
                    Json::Str("SELECT 1".into()),
                )])]))
            } else {
                None
            },
            trace_file: slow.then(|| "/tmp/trace.json".into()),
        }
    }

    #[test]
    fn records_round_trip_as_jsonl() {
        let dir = std::env::temp_dir().join(format!("sr-qlog-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.jsonl");
        {
            let log = QueryLog::open(&path).unwrap();
            log.emit(&sample(0, false));
            log.emit(&sample(1, true));
            // Drop flushes and joins the writer.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).expect("line 0 parses");
        assert_eq!(first.get("outcome").unwrap().as_str(), Some("ok"));
        assert_eq!(first.get("slow"), Some(&Json::Bool(false)));
        assert!(first.get("profile").is_none());
        let second = Json::parse(lines[1]).expect("line 1 parses");
        assert_eq!(second.get("slow"), Some(&Json::Bool(true)));
        assert!(second.get("profile").is_some());
        assert_eq!(
            second.get("trace_file").unwrap().as_str(),
            Some("/tmp/trace.json")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn emit_never_blocks_and_counts_drops() {
        let dir = std::env::temp_dir().join(format!("sr-qlog-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.jsonl");
        let log = QueryLog::open(&path).unwrap();
        // Far more records than the channel holds; emit must return from
        // every call without blocking, dropping the overflow.
        let total = QLOG_CHANNEL_DEPTH as u64 * 3;
        for i in 0..total {
            log.emit(&sample(i, false));
        }
        // No more emits: the drop counter is final. Everything else was
        // accepted by the channel and must reach the file by join time.
        let dropped = log.stat().dropped;
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count() as u64 + dropped, total);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
