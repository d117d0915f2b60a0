//! Chrome `trace_event` export.
//!
//! The emitted JSON is the "JSON array format" understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): complete
//! (`ph: "X"`) events with microsecond `ts`/`dur`, instant (`ph: "i"`)
//! markers, and metadata events naming processes and threads. The mapping
//! onto the trace viewer's process/thread axes is:
//!
//! * **process (`pid`)** — one per correlation key (per call, keyed by
//!   Call-ID); `pid 0` groups uncorrelated spans. Perfetto then renders
//!   each call as its own lane group: the per-call timeline.
//! * **thread (`tid`)** — the node that recorded the span.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::esc;
use crate::span::SpanRecord;

/// A span plus the node that recorded it.
#[derive(Debug, Clone)]
pub struct TaggedSpan {
    /// Node label, e.g. `n3`.
    pub node: String,
    /// The recorded span.
    pub span: SpanRecord,
}

/// Renders spans as Chrome `trace_event` JSON (array format).
///
/// Deterministic for a fixed input: pid/tid assignment follows sorted
/// correlation keys and node labels.
pub fn chrome_trace_json(spans: &[TaggedSpan]) -> String {
    // pid 0 = uncorrelated; calls get 1.. in sorted-corr order.
    let mut pids: BTreeMap<&str, u64> = BTreeMap::new();
    let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
    for ts in spans {
        if let Some(c) = ts.span.corr.as_deref() {
            let next = pids.len() as u64 + 1;
            pids.entry(c).or_insert(next);
        }
        let next = tids.len() as u64;
        tids.entry(ts.node.as_str()).or_insert(next);
    }
    let mut out = String::from("[\n");
    let mut first = true;
    let mut emit = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(&line);
        *first = false;
    };
    emit(
        r#"{"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "(uncorrelated)"}}"#
            .to_owned(),
        &mut first,
    );
    for (corr, pid) in &pids {
        emit(
            format!(
                r#"{{"name": "process_name", "ph": "M", "pid": {}, "args": {{"name": "call {}"}}}}"#,
                pid,
                esc(corr)
            ),
            &mut first,
        );
    }
    for (node, tid) in &tids {
        // Thread metadata is per-process in the trace model; name the
        // node's lane in every process it appears in.
        let mut procs: Vec<u64> = vec![0];
        procs.extend(pids.values().copied());
        for pid in procs {
            emit(
                format!(
                    r#"{{"name": "thread_name", "ph": "M", "pid": {}, "tid": {}, "args": {{"name": "{}"}}}}"#,
                    pid,
                    tid,
                    esc(node)
                ),
                &mut first,
            );
        }
    }
    for ts in spans {
        let pid = ts
            .span
            .corr
            .as_deref()
            .and_then(|c| pids.get(c).copied())
            .unwrap_or(0);
        let tid = tids.get(ts.node.as_str()).copied().unwrap_or(0);
        let mut args = format!(r#""ok": {}, "node": "{}""#, ts.span.ok, esc(&ts.node));
        if let Some(corr) = ts.span.corr.as_deref() {
            let _ = write!(args, r#", "corr": "{}""#, esc(corr));
        }
        if let Some(note) = ts.span.note.as_deref() {
            let _ = write!(args, r#", "note": "{}""#, esc(note));
        }
        let line = if ts.span.instant {
            format!(
                r#"{{"name": "{}", "cat": "{}", "ph": "i", "s": "p", "ts": {}, "pid": {}, "tid": {}, "args": {{{}}}}}"#,
                esc(ts.span.name),
                ts.span.cat.as_str(),
                ts.span.start_us,
                pid,
                tid,
                args
            )
        } else {
            format!(
                r#"{{"name": "{}", "cat": "{}", "ph": "X", "ts": {}, "dur": {}, "pid": {}, "tid": {}, "args": {{{}}}}}"#,
                esc(ts.span.name),
                ts.span.cat.as_str(),
                ts.span.start_us,
                ts.span.dur_us,
                pid,
                tid,
                args
            )
        };
        emit(line, &mut first);
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanCat, SpanLog};

    fn sample_spans() -> Vec<TaggedSpan> {
        let mut log = SpanLog::default();
        let a = log.enter(SpanCat::Sip, "sip.invite", 1000);
        log.correlate(a, "call-1");
        log.exit(a, 4000, true);
        log.instant(SpanCat::Media, "media.start", 4200, Some("call-1"));
        let b = log.enter(SpanCat::Routing, "route.discovery", 500);
        log.exit(b, 900, true);
        log.records()
            .iter()
            .map(|span| TaggedSpan {
                node: "n0".to_owned(),
                span: span.clone(),
            })
            .collect()
    }

    #[test]
    fn chrome_trace_is_structured_json() {
        let json = chrome_trace_json(&sample_spans());
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains(r#""name": "sip.invite""#));
        assert!(json.contains(r#""ph": "X""#));
        assert!(json.contains(r#""ph": "i""#));
        assert!(json.contains(r#""name": "call call-1""#));
        // The uncorrelated discovery span stays in pid 0.
        assert!(json.contains(r#""name": "route.discovery", "cat": "routing", "ph": "X", "ts": 500, "dur": 400, "pid": 0"#));
    }

    #[test]
    fn empty_input_still_renders_an_array() {
        let json = chrome_trace_json(&[]);
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
    }
}
