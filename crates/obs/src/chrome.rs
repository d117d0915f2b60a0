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

use crate::json::Value;
use crate::span::SpanRecord;

/// A span plus the node that recorded it.
#[derive(Debug, Clone)]
pub struct TaggedSpan {
    /// Node label, e.g. `n3`.
    pub node: String,
    /// The recorded span.
    pub span: SpanRecord,
}

/// A JSON string.
fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// A metadata event naming a process (`tid` is `None`) or a thread.
fn meta(pid: u64, tid: Option<u64>, name: &str) -> Value {
    let kind = if tid.is_some() {
        "thread_name"
    } else {
        "process_name"
    };
    let mut members = vec![
        ("name", text(kind)),
        ("ph", text("M")),
        ("pid", Value::Int(pid)),
    ];
    members.extend(tid.map(|tid| ("tid", Value::Int(tid))));
    members.push(("args", Value::obj([("name", text(name))])));
    Value::obj(members)
}

/// Spans as a Chrome `trace_event` document (array format), for
/// [`Value::to_pretty`].
///
/// Deterministic for a fixed input: pid/tid assignment follows sorted
/// correlation keys and node labels.
pub fn chrome_trace_json(spans: &[TaggedSpan]) -> Value {
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
    let mut events = vec![meta(0, None, "(uncorrelated)")];
    for (corr, &pid) in &pids {
        events.push(meta(pid, None, &format!("call {corr}")));
    }
    for (node, &tid) in &tids {
        // Thread metadata is per-process in the trace model; name the
        // node's lane in every process it appears in.
        for &pid in std::iter::once(&0).chain(pids.values()) {
            events.push(meta(pid, Some(tid), node));
        }
    }
    for ts in spans {
        let span = &ts.span;
        let corr = span.corr.as_deref();
        let pid = corr.and_then(|c| pids.get(c).copied()).unwrap_or(0);
        let tid = tids.get(ts.node.as_str()).copied().unwrap_or(0);
        let mut args = vec![("ok", Value::Bool(span.ok)), ("node", text(&ts.node))];
        args.extend(corr.map(|c| ("corr", text(c))));
        args.extend(span.note.as_deref().map(|n| ("note", text(n))));
        let start = ("ts", Value::Int(span.start_us));
        let phase = if span.instant {
            [("ph", text("i")), ("s", text("p")), start]
        } else {
            [("ph", text("X")), start, ("dur", Value::Int(span.dur_us))]
        };
        let mut event = vec![("name", text(span.name)), ("cat", text(span.cat.as_str()))];
        event.extend(phase);
        event.extend([
            ("pid", Value::Int(pid)),
            ("tid", Value::Int(tid)),
            ("args", Value::obj(args)),
        ]);
        events.push(Value::obj(event));
    }
    Value::Arr(events)
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
        let doc = chrome_trace_json(&sample_spans());
        assert_eq!(crate::json::parse(&doc.to_pretty()), Ok(doc.clone()));
        let Value::Arr(events) = doc else {
            panic!("trace_event array format");
        };
        let named = |name: &str| {
            let found = events.iter().find(|e| e.get("name") == Some(&text(name)));
            found.unwrap_or_else(|| panic!("no {name} event"))
        };
        assert_eq!(named("sip.invite").get("ph"), Some(&text("X")));
        assert_eq!(named("media.start").get("ph"), Some(&text("i")));
        assert!(events.contains(&meta(1, None, "call call-1")));
        // The uncorrelated discovery span stays in pid 0.
        let discovery = Value::obj([
            ("name", text("route.discovery")),
            ("cat", text("routing")),
            ("ph", text("X")),
            ("ts", Value::Int(500)),
            ("dur", Value::Int(400)),
            ("pid", Value::Int(0)),
            ("tid", Value::Int(0)),
            (
                "args",
                Value::obj([("ok", Value::Bool(true)), ("node", text("n0"))]),
            ),
        ]);
        assert_eq!(named("route.discovery"), &discovery);
    }

    #[test]
    fn empty_input_still_renders_an_array() {
        let uncorrelated = Value::obj([
            ("name", text("process_name")),
            ("ph", text("M")),
            ("pid", Value::Int(0)),
            ("args", Value::obj([("name", text("(uncorrelated)"))])),
        ]);
        assert_eq!(chrome_trace_json(&[]), Value::Arr(vec![uncorrelated]));
    }
}
