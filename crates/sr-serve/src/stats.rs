//! Building and rendering the live STATS snapshot.
//!
//! A running `serve` process answers [`crate::frame::Request::Stats`] with
//! one JSON object (see `docs/OBSERVABILITY.md` for the schema) combining:
//!
//! * server identity and uptime,
//! * admission state (slots, queue, per-client usage, cause-labeled
//!   rejections),
//! * the rolling 1 s / 10 s / 60 s windows of every windowed instrument,
//! * the full cumulative counter/histogram snapshot.
//!
//! The JSON is the single wire format; [`prometheus_text`] re-renders the
//! *same* snapshot into Prometheus exposition text on the client side
//! (`silkroute stats --prom`), so the server never speaks two formats.

use std::time::Duration;

use sr_engine::FragmentCacheInfo;
use sr_obs::{Json, MetricsRegistry};

use crate::admit::Admission;

/// Schema version carried in the snapshot, bumped on breaking changes.
pub const STATS_PROTO: u64 = 2;

/// One connected client as seen by the server: connection registry data
/// joined with the admission controller's live slot usage.
#[derive(Debug, Clone)]
pub struct ClientStat {
    /// Connection id (the same id the query log records).
    pub id: u64,
    /// Peer address, or `"?"` when the socket could not tell us.
    pub addr: String,
    /// Queries this connection has submitted.
    pub queries: u64,
    /// Queries of this connection currently holding an admission slot.
    pub running: usize,
    /// Seconds since the connection was accepted.
    pub connected_s: f64,
}

/// Query-log health carried in the snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct QlogStat {
    /// Whether `--query-log` is active.
    pub enabled: bool,
    /// Records written to the file so far.
    pub written: u64,
    /// Records dropped because the bounded channel was full.
    pub dropped: u64,
    /// Slow-query records (elapsed ≥ `--slow-ms`) among the written ones.
    pub slow: u64,
}

/// Everything the snapshot builder needs, borrowed from the server.
pub struct StatsSources<'a> {
    /// Time since the server started accepting.
    pub uptime: Duration,
    /// Whether a graceful drain is under way.
    pub draining: bool,
    /// Connections currently open.
    pub active_conns: usize,
    /// The configured connection cap.
    pub max_conns: usize,
    /// The admission controller.
    pub admission: &'a Admission,
    /// The shared metrics registry.
    pub metrics: &'a MetricsRegistry,
    /// Per-client rows (already joined with admission usage).
    pub clients: Vec<ClientStat>,
    /// Query-log health.
    pub qlog: QlogStat,
    /// Materialized-fragment cache occupancy (`None` = cache disabled).
    pub fragment_cache: Option<FragmentCacheInfo>,
}

/// Build the STATS snapshot JSON.
pub fn build(src: &StatsSources<'_>) -> Json {
    let snap = src.metrics.snapshot();
    let cfg = src.admission.config();
    let rejected = |cause: &str| Json::UInt(snap.counter(&format!("serve.rejected.{cause}")));
    let clients = Json::Arr(
        src.clients
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("id", Json::UInt(c.id)),
                    ("addr", Json::Str(c.addr.clone())),
                    ("running", Json::UInt(c.running as u64)),
                    ("queries", Json::UInt(c.queries)),
                    ("connected_s", Json::Float(c.connected_s)),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("proto", Json::UInt(STATS_PROTO)),
        ("uptime_s", Json::Float(src.uptime.as_secs_f64())),
        ("draining", Json::Bool(src.draining)),
        (
            "connections",
            Json::obj(vec![
                ("active", Json::UInt(src.active_conns as u64)),
                ("max", Json::UInt(src.max_conns as u64)),
                ("total", Json::UInt(snap.counter("serve.connections"))),
            ]),
        ),
        (
            "admission",
            Json::obj(vec![
                ("slots", Json::UInt(cfg.slots as u64)),
                ("per_client", Json::UInt(cfg.per_client as u64)),
                ("queue_depth", Json::UInt(cfg.queue_depth as u64)),
                ("in_flight", Json::UInt(src.admission.in_flight() as u64)),
                ("queue_len", Json::UInt(src.admission.queue_len() as u64)),
                ("admitted", Json::UInt(snap.counter("serve.admitted"))),
                (
                    "rejected",
                    Json::obj(vec![
                        ("total", Json::UInt(snap.counter("serve.rejected"))),
                        ("queue_full", rejected("queue_full")),
                        ("quota", rejected("quota")),
                        ("max_conns", rejected("max_conns")),
                        ("draining", rejected("draining")),
                    ]),
                ),
            ]),
        ),
        ("clients", clients),
        (
            "fragment_cache",
            match src.fragment_cache {
                Some(i) => Json::obj(vec![
                    ("enabled", Json::Bool(true)),
                    ("budget", Json::UInt(i.budget as u64)),
                    ("bytes", Json::UInt(i.bytes as u64)),
                    ("entries", Json::UInt(i.entries as u64)),
                ]),
                None => Json::obj(vec![("enabled", Json::Bool(false))]),
            },
        ),
        (
            "qlog",
            Json::obj(vec![
                ("enabled", Json::Bool(src.qlog.enabled)),
                ("written", Json::UInt(src.qlog.written)),
                ("dropped", Json::UInt(src.qlog.dropped)),
                ("slow", Json::UInt(src.qlog.slow)),
            ]),
        ),
        ("windows", src.metrics.windows_json()),
        ("cumulative", snap.to_json_value()),
    ])
}

/// A metric name as Prometheus wants it: `[a-zA-Z_:][a-zA-Z0-9_:]*`,
/// prefixed with `silkroute_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    out.push_str("silkroute_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn push_metric(out: &mut String, name: &str, kind: &str, labels: &str, value: f64) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# TYPE {name} {kind}");
    if value.fract() == 0.0 && value.abs() < 9e15 {
        let _ = writeln!(out, "{name}{labels} {}", value as i64);
    } else {
        let _ = writeln!(out, "{name}{labels} {value}");
    }
}

fn num(j: Option<&Json>) -> f64 {
    j.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Render a STATS snapshot (the JSON from [`build`]) as Prometheus text
/// exposition. Counters become `_total` counters, window quantiles become
/// gauges labeled `{window,quantile}`, cumulative histograms become
/// `_count`/`_sum` pairs.
pub fn prometheus_text(stats: &Json) -> String {
    let mut out = String::new();
    push_metric(
        &mut out,
        "silkroute_uptime_seconds",
        "gauge",
        "",
        num(stats.get("uptime_s")),
    );
    push_metric(
        &mut out,
        "silkroute_draining",
        "gauge",
        "",
        if matches!(stats.get("draining"), Some(Json::Bool(true))) {
            1.0
        } else {
            0.0
        },
    );
    if let Some(conns) = stats.get("connections") {
        push_metric(
            &mut out,
            "silkroute_connections_active",
            "gauge",
            "",
            num(conns.get("active")),
        );
    }
    if let Some(adm) = stats.get("admission") {
        for key in ["in_flight", "queue_len"] {
            push_metric(
                &mut out,
                &format!("silkroute_{key}"),
                "gauge",
                "",
                num(adm.get(key)),
            );
        }
        if let Some(Json::Obj(rej)) = adm.get("rejected") {
            let _ = {
                use std::fmt::Write as _;
                writeln!(out, "# TYPE silkroute_rejected_total counter")
            };
            for (cause, v) in rej {
                if cause == "total" {
                    continue;
                }
                use std::fmt::Write as _;
                let _ = writeln!(
                    out,
                    "silkroute_rejected_total{{cause=\"{cause}\"}} {}",
                    v.as_f64().unwrap_or(0.0) as u64
                );
            }
        }
    }
    // Rolling windows: every windowed histogram's quantiles and rates.
    if let Some(wins) = stats.get("windows") {
        if let Some(Json::Obj(hists)) = wins.get("histograms") {
            for (name, windows) in hists {
                let base = prom_name(name);
                if let Json::Obj(per_window) = windows {
                    use std::fmt::Write as _;
                    let _ = writeln!(out, "# TYPE {base} gauge");
                    for (w, stats) in per_window {
                        for q in ["p50", "p99", "p999"] {
                            let _ = writeln!(
                                out,
                                "{base}{{window=\"{w}\",quantile=\"{q}\"}} {}",
                                num(stats.get(q))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{base}_rate{{window=\"{w}\"}} {}",
                            num(stats.get("rate"))
                        );
                    }
                }
            }
        }
        if let Some(Json::Obj(ctrs)) = wins.get("counters") {
            for (name, windows) in ctrs {
                let base = prom_name(name);
                if let Json::Obj(per_window) = windows {
                    use std::fmt::Write as _;
                    let _ = writeln!(out, "# TYPE {base}_rate gauge");
                    for (w, stats) in per_window {
                        let _ = writeln!(
                            out,
                            "{base}_rate{{window=\"{w}\"}} {}",
                            num(stats.get("rate"))
                        );
                    }
                }
            }
        }
    }
    // Cumulative registry: counters as counters, histograms as count/sum.
    if let Some(cum) = stats.get("cumulative") {
        if let Some(Json::Obj(counters)) = cum.get("counters") {
            for (name, v) in counters {
                push_metric(
                    &mut out,
                    &format!("{}_total", prom_name(name)),
                    "counter",
                    "",
                    v.as_f64().unwrap_or(0.0),
                );
            }
        }
        if let Some(Json::Obj(hists)) = cum.get("histograms") {
            for (name, h) in hists {
                let base = prom_name(name);
                use std::fmt::Write as _;
                let _ = writeln!(out, "# TYPE {base} summary");
                let _ = writeln!(out, "{base}_count {}", num(h.get("count")) as u64);
                let _ = writeln!(out, "{base}_sum {}", num(h.get("sum")) as u64);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admit::AdmitConfig;
    use std::sync::Arc;

    fn sample() -> Json {
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.counter("serve.requests").inc();
        metrics.counter("serve.rejected").inc();
        metrics.counter("serve.rejected.queue_full").inc();
        metrics.histogram("serve.queue_wait_ms").record(3);
        metrics.windowed_histogram("serve.request_ms").record(12);
        metrics.windowed_counter("serve.rows").add(100);
        let admission = Admission::new(AdmitConfig::default(), Arc::clone(&metrics));
        build(&StatsSources {
            uptime: Duration::from_millis(1500),
            draining: false,
            active_conns: 2,
            max_conns: 64,
            admission: &admission,
            metrics: &metrics,
            clients: vec![ClientStat {
                id: 1,
                addr: "127.0.0.1:9".into(),
                queries: 4,
                running: 1,
                connected_s: 1.0,
            }],
            qlog: QlogStat {
                enabled: true,
                written: 4,
                dropped: 0,
                slow: 1,
            },
            fragment_cache: Some(FragmentCacheInfo {
                budget: 1 << 20,
                bytes: 512,
                entries: 2,
            }),
        })
    }

    #[test]
    fn snapshot_has_schema_keys() {
        let j = sample();
        for key in [
            "proto",
            "uptime_s",
            "draining",
            "connections",
            "admission",
            "clients",
            "fragment_cache",
            "qlog",
            "windows",
            "cumulative",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let rej = j.get("admission").unwrap().get("rejected").unwrap();
        assert_eq!(rej.get("total").unwrap().as_f64(), Some(1.0));
        assert_eq!(rej.get("queue_full").unwrap().as_f64(), Some(1.0));
        // Round-trips through the parser (what the client does).
        let back = Json::parse(&j.render()).expect("parse");
        assert_eq!(num(back.get("uptime_s")), 1.5);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# TYPE silkroute_uptime_seconds gauge"));
        assert!(text.contains("silkroute_rejected_total{cause=\"queue_full\"} 1"));
        assert!(text.contains("silkroute_serve_request_ms{window=\"60s\",quantile=\"p99\"}"));
        assert!(text.contains("silkroute_serve_requests_total 1"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }
}
