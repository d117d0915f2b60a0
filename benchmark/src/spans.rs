//! The benchmark's own spans, recorded around its calls into the
//! program: one `workload` span per child process with `setup.build`,
//! `setup.warmup`, `run` and `collect` below it, and one span per probe.
//! Kept in memory and written with the report; spans inside the program
//! are the program's business (`World::obs_spans`).

use std::time::Instant;

use crate::json::Value;

/// One finished span. Times are host seconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The workload the span belongs to (shared by all spans of a run).
    pub workload: String,
}

/// Records spans against one clock. Spans nest by open/close order.
pub struct Recorder {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            origin: Instant::now(),
            workload: workload.to_owned(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Host seconds since the recorder was created.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        let now = self.now_s();
        self.spans.push(Span {
            name: name.to_owned(),
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    ///
    /// # Panics
    ///
    /// Panics when no span is open — an unbalanced exit is a bug here.
    pub fn exit(&mut self) -> f64 {
        let idx = self.open.pop().expect("span exit without enter");
        let now = self.now_s();
        let span = &mut self.spans[idx];
        span.end_s = now;
        span.end_s - span.start_s
    }

    /// Runs `f` inside a span and returns its result with the duration.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_s - s.start_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_s - s.start_s;
        }
    }
    own
}

/// Spans as JSON, each with its self time alongside.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .zip(self_times(spans))
            .map(|(s, self_s)| {
                Value::obj([
                    ("name", Value::from(s.name.as_str())),
                    ("start_s", Value::from(s.start_s)),
                    ("end_s", Value::from(s.end_s)),
                    ("self_s", Value::from(self_s)),
                    ("parent", s.parent.map_or(Value::Null, Value::from)),
                    ("workload", Value::from(s.workload.as_str())),
                ])
            })
            .collect(),
    )
}

pub fn from_json(v: &Value) -> Option<Vec<Span>> {
    v.as_arr()?
        .iter()
        .map(|s| {
            Some(Span {
                name: s.get("name")?.as_str()?.to_owned(),
                start_s: s.get("start_s")?.as_f64()?,
                end_s: s.get("end_s")?.as_f64()?,
                parent: match s.get("parent")? {
                    Value::Null => None,
                    p => Some(p.as_u64()? as usize),
                },
                workload: s.get("workload")?.as_str()?.to_owned(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut r = Recorder::new("toy");
        r.enter("workload");
        r.time("setup.build", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.time("run", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.exit();
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.workload == "toy" && s.end_s >= s.start_s));
        let own = self_times(spans);
        let children: f64 = spans[1..].iter().map(|s| s.end_s - s.start_s).sum();
        assert!((own[0] - (spans[0].end_s - spans[0].start_s - children)).abs() < 1e-12);
        assert!(own[0] >= 0.0);
    }

    #[test]
    fn spans_round_trip_through_json() {
        let mut r = Recorder::new("toy");
        r.enter("workload");
        r.time("probe.x", || ());
        r.exit();
        let back = from_json(&crate::json::parse(&to_json(r.spans()).render()).unwrap()).unwrap();
        assert_eq!(back, r.spans());
    }
}
