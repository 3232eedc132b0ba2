//! Per-materialization cost reports: the paper's time decomposition
//! (server query time vs. bind-and-transfer vs. tagging, §4 / Figs. 13–15)
//! for one concrete materialization, per stream and in total.

use std::time::Duration;

use sr_obs::Json;
use sr_serve::pipeline::Published;

/// Cost breakdown for one tuple stream of a materialization.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// The SQL text shipped to the server.
    pub sql: String,
    /// Tuples the tagger consumed from this stream.
    pub rows: u64,
    /// Encoded wire size of the stream in bytes.
    pub bytes: u64,
    /// Server-side time (parse + bind + execute + encode), milliseconds.
    pub server_ms: f64,
    /// Client-side decode ("bind and transfer") time, milliseconds.
    pub transfer_ms: f64,
}

/// Full cost report for one materialization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MaterializeReport {
    /// Per-stream breakdowns, in stream order.
    pub streams: Vec<StreamReport>,
    /// Middle-ware planning/translation time (view tree → SQL strings),
    /// milliseconds.
    pub plan_ms: f64,
    /// Pure tagging time: merge + nest + tag, excluding stream decode,
    /// milliseconds.
    pub tag_ms: f64,
    /// End-to-end wall time, milliseconds.
    pub total_ms: f64,
    /// Whether the streams were executed concurrently.
    pub parallel: bool,
    /// Shard fan-out each component query was eligible to run with
    /// (1 = unsharded; the server falls back per query when a range split
    /// is not possible).
    pub shards: usize,
    /// Tuples consumed across all streams.
    pub tuples: u64,
    /// XML elements emitted.
    pub elements: u64,
    /// Bytes of XML written.
    pub xml_bytes: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl MaterializeReport {
    /// Assemble a report from a [`publish`](sr_serve::pipeline::publish) outcome.
    /// Its `tag_time` is the time spent inside the tagger including stream
    /// decode and any time spent stalled waiting on pipelined streams; the
    /// decode share ([`sr_tagger::TagStats::total_transfer_time`]) and the
    /// stall share ([`sr_tagger::TagStats::total_stall_time`]) are
    /// subtracted to isolate tagging.
    pub fn assemble(p: &Published, parallel: bool, shards: usize) -> Self {
        let stats = &p.stats;
        let streams = p
            .sqls
            .iter()
            .zip(&stats.per_stream)
            .map(|(sql, ps)| StreamReport {
                sql: sql.clone(),
                rows: ps.tuples,
                bytes: ps.wire_bytes,
                server_ms: ms(ps.server_time),
                transfer_ms: ms(ps.transfer_time),
            })
            .collect();
        MaterializeReport {
            streams,
            plan_ms: ms(p.plan_time),
            tag_ms: ms(p
                .tag_time
                .saturating_sub(stats.total_transfer_time() + stats.total_stall_time())),
            total_ms: ms(p.total_time),
            parallel,
            shards: shards.max(1),
            tuples: stats.tuples,
            elements: stats.elements,
            xml_bytes: stats.bytes,
        }
    }

    /// Summed server-side time across streams, milliseconds.
    pub fn server_ms(&self) -> f64 {
        self.streams.iter().map(|s| s.server_ms).sum()
    }

    /// Summed client-side decode time across streams, milliseconds.
    pub fn transfer_ms(&self) -> f64 {
        self.streams.iter().map(|s| s.transfer_ms).sum()
    }

    /// Machine-readable form. Per-stream objects carry
    /// `{sql, rows, bytes, server_ms, transfer_ms}`; `totals` carries
    /// `{plan_ms, server_ms, transfer_ms, tag_ms, total_ms}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "streams",
                Json::Arr(
                    self.streams
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("sql", Json::Str(s.sql.clone())),
                                ("rows", Json::UInt(s.rows)),
                                ("bytes", Json::UInt(s.bytes)),
                                ("server_ms", Json::Float(s.server_ms)),
                                ("transfer_ms", Json::Float(s.transfer_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "totals",
                Json::obj(vec![
                    ("plan_ms", Json::Float(self.plan_ms)),
                    ("server_ms", Json::Float(self.server_ms())),
                    ("transfer_ms", Json::Float(self.transfer_ms())),
                    ("tag_ms", Json::Float(self.tag_ms)),
                    ("total_ms", Json::Float(self.total_ms)),
                ]),
            ),
            ("tuples", Json::UInt(self.tuples)),
            ("elements", Json::UInt(self.elements)),
            ("xml_bytes", Json::UInt(self.xml_bytes)),
            ("parallel", Json::Bool(self.parallel)),
            ("shards", Json::UInt(self.shards as u64)),
        ])
    }

    /// Human-readable table for `silkroute materialize --explain`.
    pub fn render_explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "materialization: {} stream(s){}{}, {} tuples, {} elements, {} XML bytes",
            self.streams.len(),
            if self.parallel { " (parallel)" } else { "" },
            if self.shards > 1 {
                format!(" (x{} shards)", self.shards)
            } else {
                String::new()
            },
            self.tuples,
            self.elements,
            self.xml_bytes
        );
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>12} {:>11} {:>13}  sql",
            "stream", "rows", "wire bytes", "server ms", "transfer ms"
        );
        for (i, s) in self.streams.iter().enumerate() {
            let sql: String = if s.sql.chars().count() > 56 {
                let head: String = s.sql.chars().take(55).collect();
                format!("{head}…")
            } else {
                s.sql.clone()
            };
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>12} {:>11.2} {:>13.2}  {}",
                i + 1,
                s.rows,
                s.bytes,
                s.server_ms,
                s.transfer_ms,
                sql
            );
        }
        let _ = writeln!(
            out,
            "totals: plan {:.2} ms | server {:.2} ms | transfer {:.2} ms | tag {:.2} ms | wall {:.2} ms",
            self.plan_ms,
            self.server_ms(),
            self.transfer_ms(),
            self.tag_ms,
            self.total_ms
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_tagger::{StreamTagStats, TagStats};

    fn sample() -> MaterializeReport {
        let stats = TagStats {
            tuples: 12,
            elements: 30,
            max_open_depth: 3,
            bytes: 4096,
            per_stream: vec![
                StreamTagStats {
                    tuples: 10,
                    wire_bytes: 800,
                    server_time: Duration::from_millis(4),
                    transfer_time: Duration::from_millis(1),
                    stall_time: Duration::from_millis(1),
                },
                StreamTagStats {
                    tuples: 2,
                    wire_bytes: 100,
                    server_time: Duration::from_millis(2),
                    transfer_time: Duration::from_millis(1),
                    stall_time: Duration::ZERO,
                },
            ],
        };
        let published = Published {
            sqls: vec!["SELECT a".to_string(), "SELECT b".to_string()],
            stats,
            plan_time: Duration::from_millis(1),
            tag_time: Duration::from_millis(5),
            total_time: Duration::from_millis(12),
        };
        MaterializeReport::assemble(&published, false, 4)
    }

    #[test]
    fn assemble_pairs_sql_with_stream_stats() {
        let r = sample();
        assert_eq!(r.streams.len(), 2);
        assert_eq!(r.streams[0].sql, "SELECT a");
        assert_eq!(r.streams[0].rows, 10);
        assert_eq!(r.streams[1].bytes, 100);
        assert!((r.server_ms() - 6.0).abs() < 1e-9);
        assert!((r.transfer_ms() - 2.0).abs() < 1e-9);
        // tag time = tagger wall (5ms) minus decode share (2ms) minus the
        // pipeline stall share (1ms).
        assert!((r.tag_ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn json_has_required_fields() {
        let j = sample().to_json().render();
        for key in [
            "\"streams\"",
            "\"sql\"",
            "\"rows\"",
            "\"bytes\"",
            "\"server_ms\"",
            "\"transfer_ms\"",
            "\"totals\"",
            "\"plan_ms\"",
            "\"tag_ms\"",
            "\"shards\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(j.contains("\"shards\":4"), "{j}");
    }

    #[test]
    fn explain_is_tabular() {
        let e = sample().render_explain();
        assert!(e.contains("2 stream(s)"));
        assert!(e.contains("(x4 shards)"));
        assert!(e.contains("SELECT a"));
        assert!(e.contains("totals: plan"));
    }
}
