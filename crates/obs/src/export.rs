//! The two consumers of the observability plane: a scrapeable snapshot
//! (Prometheus-style text and machine JSON) and a per-request waterfall
//! reconstruction for the slowest traces.
//!
//! Everything here reads point-in-time snapshots — no exporter ever
//! holds a recording lock while formatting, and output ordering is
//! fully deterministic (registration order for metrics, trace id order
//! for ties in the waterfall ranking).

use crate::sink::Span;
use crate::Obs;
use std::fmt::Write as _;

fn write_opt_ratio(out: &mut String, name: &str, v: Option<f64>) {
    match v {
        Some(x) => {
            let _ = writeln!(out, "{name} {x:.6}");
        }
        None => {
            let _ = writeln!(out, "{name} NaN");
        }
    }
}

/// Prometheus-style text exposition of every metric, the span
/// accounting, and the drift statistics.
pub fn prometheus_text(obs: &Obs) -> String {
    let mut out = String::new();
    let sink = obs.sink();
    let _ = writeln!(out, "# TYPE dlr_spans_opened_total counter");
    let _ = writeln!(out, "dlr_spans_opened_total {}", sink.spans_opened());
    let _ = writeln!(out, "# TYPE dlr_spans_dropped_total counter");
    let _ = writeln!(out, "dlr_spans_dropped_total {}", sink.spans_dropped());
    let _ = writeln!(out, "# TYPE dlr_spans_resident gauge");
    let _ = writeln!(out, "dlr_spans_resident {}", sink.spans_resident());

    let snap = obs.metrics().snapshot();
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(out, "# TYPE {name} summary");
        for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
            if let Some(bound) = h.percentile(q) {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {bound}");
            }
        }
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.total);
    }

    let drift = obs.drift().summary();
    let _ = writeln!(out, "# TYPE dlr_drift_ratio gauge");
    write_opt_ratio(&mut out, "dlr_drift_ratio", drift.drift_ratio);
    let _ = writeln!(out, "# TYPE dlr_drift_sign_error_rate gauge");
    write_opt_ratio(&mut out, "dlr_drift_sign_error_rate", drift.sign_error_rate);
    let _ = writeln!(out, "# TYPE dlr_drift_window gauge");
    let _ = writeln!(out, "dlr_drift_window {}", drift.window_len);
    let _ = writeln!(out, "# TYPE dlr_drift_recorded_total counter");
    let _ = writeln!(out, "dlr_drift_recorded_total {}", drift.recorded);
    out
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.6}"),
        None => "null".to_string(),
    }
}

/// Machine-readable JSON snapshot of the same state as
/// [`prometheus_text`].
pub fn json_text(obs: &Obs) -> String {
    let mut out = String::new();
    let sink = obs.sink();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"spans\": {{\"opened\": {}, \"resident\": {}, \"dropped_by_ring_wrap\": {}}},",
        sink.spans_opened(),
        sink.spans_resident(),
        sink.spans_dropped()
    );
    let snap = obs.metrics().snapshot();
    out.push_str("  \"counters\": {");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {v}");
    }
    out.push_str("},\n  \"gauges\": {");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {v}");
    }
    out.push_str("},\n  \"histograms\": {");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50_le\": {}, \"p99_le\": {}, \"p999_le\": {}}}",
            h.total,
            h.sum,
            json_opt(h.mean()),
            h.percentile(0.5).map_or("null".to_string(), |v| v.to_string()),
            h.percentile(0.99).map_or("null".to_string(), |v| v.to_string()),
            h.percentile(0.999).map_or("null".to_string(), |v| v.to_string()),
        );
    }
    out.push_str("},\n");
    let drift = obs.drift().summary();
    let _ = writeln!(
        out,
        "  \"drift\": {{\"window\": {}, \"recorded\": {}, \"predicted_sum_nanos\": {}, \"actual_sum_nanos\": {}, \"ratio\": {}, \"sign_error_rate\": {}}}",
        drift.window_len,
        drift.recorded,
        drift.predicted_sum_nanos,
        drift.actual_sum_nanos,
        json_opt(drift.drift_ratio),
        json_opt(drift.sign_error_rate)
    );
    out.push('}');
    out
}

/// One reconstructed trace: every resident span of one request.
struct Trace {
    id: u64,
    start: u64,
    end: u64,
    spans: Vec<Span>,
}

/// Reconstruct per-request waterfalls for the `n` slowest resident
/// traces (by wall span from first stage entry to last stage exit).
/// Synthetic spans (trace id 0) are excluded from the ranking.
pub fn trace_dump(obs: &Obs, n: usize) -> String {
    let mut spans = obs.sink().spans();
    spans.sort_by(|a, b| {
        (a.id, a.start_nanos, a.stage, a.end_nanos).cmp(&(
            b.id,
            b.start_nanos,
            b.stage,
            b.end_nanos,
        ))
    });
    let mut traces: Vec<Trace> = Vec::new();
    for span in spans {
        if span.id == 0 {
            continue;
        }
        match traces.last_mut() {
            Some(t) if t.id == span.id => {
                t.start = t.start.min(span.start_nanos);
                t.end = t.end.max(span.end_nanos);
                t.spans.push(span);
            }
            _ => traces.push(Trace {
                id: span.id,
                start: span.start_nanos,
                end: span.end_nanos,
                spans: vec![span],
            }),
        }
    }
    // Slowest first; ties broken by trace id for determinism.
    traces.sort_by(|a, b| (b.end - b.start, a.id).cmp(&(a.end - a.start, b.id)));
    traces.truncate(n);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "slowest {} trace(s) of {} resident",
        traces.len(),
        obs.sink().spans_resident()
    );
    for t in &traces {
        let _ = writeln!(
            out,
            "trace {} — {} ns total ({} span(s))",
            t.id,
            t.end - t.start,
            t.spans.len()
        );
        for s in &t.spans {
            let version = s
                .version
                .as_ref()
                .map(|v| format!(" [{v}]"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  {:<12} {:>12} .. {:<12} ({} ns){}",
                s.stage.as_str(),
                s.start_nanos,
                s.end_nanos,
                s.duration_nanos(),
                version
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Stage;
    use crate::Obs;
    use std::sync::Arc;

    fn obs() -> Obs {
        Obs::new(Arc::new(crate::ManualClock::default()))
    }

    #[test]
    fn prometheus_text_covers_every_family() {
        let o = obs();
        o.counter("serve_batches_total").add(3);
        let (depth, execute) = (crate::Gauge::default(), crate::Histogram::default());
        o.metrics().publish_gauge("serve_queue_depth_max", &depth);
        o.metrics().publish_histogram("serve_execute_us", &execute);
        depth.record_max(7);
        execute.record(100);
        o.record_drift(10, 20);
        o.record_span(1, Stage::Dispatch, None, 0, 50);
        let text = prometheus_text(&o);
        assert!(text.contains("dlr_spans_opened_total 1"), "{text}");
        assert!(text.contains("serve_batches_total 3"), "{text}");
        assert!(text.contains("serve_queue_depth_max 7"), "{text}");
        assert!(text.contains("serve_execute_us_count 1"), "{text}");
        assert!(text.contains("dlr_drift_ratio 2.000000"), "{text}");
        assert!(
            text.contains("dlr_drift_sign_error_rate 1.000000"),
            "{text}"
        );
    }

    #[test]
    fn json_text_is_balanced_and_complete() {
        let o = obs();
        o.counter("c_total").inc();
        let h = crate::Histogram::default();
        o.metrics().publish_histogram("h_us", &h);
        h.record(5);
        let json = json_text(&o);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.contains("\"dropped_by_ring_wrap\": 0"), "{json}");
        assert!(json.contains("\"c_total\": 1"), "{json}");
        assert!(json.contains("\"p50_le\": 7"), "{json}");
        assert!(json.contains("\"ratio\": null"), "{json}");
    }

    #[test]
    fn trace_dump_ranks_slowest_first_and_skips_synthetic() {
        let o = obs();
        o.record_span(1, Stage::QueueWait, None, 0, 10);
        o.record_span(1, Stage::Dispatch, None, 10, 30);
        o.record_span(2, Stage::QueueWait, None, 0, 100);
        o.record_span(0, Stage::Synthetic, None, 0, 9999);
        let dump = trace_dump(&o, 1);
        assert!(dump.contains("trace 2 — 100 ns total"), "{dump}");
        assert!(!dump.contains("trace 1"), "{dump}");
        assert!(!dump.contains("synthetic"), "{dump}");
        let both = trace_dump(&o, 10);
        assert!(both.contains("trace 1 — 30 ns total (2 span(s))"), "{both}");
        assert!(both.contains("queue-wait"), "{both}");
    }
}
