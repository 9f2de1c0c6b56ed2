//! Span trees rebuilt from a [`cgpa_obs::Recorder`] event list, and the
//! self time of each span (its duration minus the part its children cover).

use cgpa_obs::{ArgValue, Event};
use std::collections::HashMap;

/// One closed wall-clock span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span name (`layer.phase`).
    pub name: String,
    /// Category: the layer the span belongs to.
    pub cat: String,
    /// Start, trace microseconds.
    pub start_us: u64,
    /// End, trace microseconds.
    pub end_us: u64,
    /// Index of the enclosing span on the same track, if any.
    pub parent: Option<usize>,
    /// Annotations recorded on the span.
    pub args: Vec<(String, ArgValue)>,
}

impl SpanRec {
    /// Duration in microseconds.
    #[must_use]
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// A numeric annotation, if present.
    #[must_use]
    pub fn num_arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
            ArgValue::U64(x) => Some(*x as f64),
            ArgValue::I64(x) => Some(*x as f64),
            ArgValue::F64(x) => Some(*x),
            ArgValue::Str(_) | ArgValue::Bool(_) => None,
        })
    }
}

/// Pair the `Begin`/`End` events of every `(pid, tid)` track into spans,
/// in begin order. Counter and metadata events are ignored.
///
/// # Errors
/// An `End` with no open span, or a span still open at the end.
pub fn spans_from_events(events: &[Event]) -> Result<Vec<SpanRec>, String> {
    let mut spans: Vec<SpanRec> = Vec::new();
    let mut open: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    for e in events {
        match e {
            Event::Begin { name, cat, pid, tid, ts, args } => {
                let stack = open.entry((*pid, *tid)).or_default();
                spans.push(SpanRec {
                    name: name.clone(),
                    cat: cat.clone(),
                    start_us: *ts,
                    end_us: *ts,
                    parent: stack.last().copied(),
                    args: args.clone(),
                });
                stack.push(spans.len() - 1);
            }
            Event::End { pid, tid, ts } => {
                let i = open
                    .get_mut(&(*pid, *tid))
                    .and_then(Vec::pop)
                    .ok_or_else(|| format!("span end without a begin on track {pid}/{tid}"))?;
                spans[i].end_us = *ts;
            }
            Event::Counter { .. } | Event::ProcessName { .. } | Event::ThreadName { .. } => {}
        }
    }
    if let Some(i) = open.values().flatten().next() {
        return Err(format!("span {} never ended", spans[*i].name));
    }
    Ok(spans)
}

/// Self time of every span: its duration minus the durations of its direct
/// children. Children on one track nest and never overlap, so their
/// durations sum to the part of the parent they cover.
#[must_use]
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(SpanRec::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_us());
        }
    }
    own
}

/// Whether span `i` lies (strictly) below a span named `root`.
#[must_use]
pub fn has_ancestor(spans: &[SpanRec], i: usize, root: &str) -> bool {
    let mut cur = spans[i].parent;
    while let Some(p) = cur {
        if spans[p].name == root {
            return true;
        }
        cur = spans[p].parent;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(name: &str, ts: u64) -> Event {
        Event::Begin {
            name: name.to_string(),
            cat: "t".to_string(),
            pid: 1,
            tid: 1,
            ts,
            args: Vec::new(),
        }
    }

    fn end(ts: u64) -> Event {
        Event::End { pid: 1, tid: 1, ts }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) ⊃ run_with_accelerator [10,70) ⊃ run [20,50);
        // request ⊃ verify [75,95).
        let events = vec![
            begin("request", 0),
            begin("rwa", 10),
            begin("run", 20),
            end(50),
            end(70),
            begin("verify", 75),
            end(95),
            end(100),
        ];
        let spans = spans_from_events(&events).expect("balanced");
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["request", "rwa", "run", "verify"]);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let own = self_times(&spans);
        assert_eq!(own, [100 - 60 - 20, 60 - 30, 30, 20]);
        // Self times of a tree sum to its root's duration.
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur_us());
        assert!(has_ancestor(&spans, 2, "request"));
        assert!(!has_ancestor(&spans, 0, "request"));
    }

    #[test]
    fn tracks_pair_independently_and_imbalance_is_an_error() {
        let mut other = begin("b", 5);
        if let Event::Begin { tid, .. } = &mut other {
            *tid = 2;
        }
        let events = vec![begin("a", 0), other, end(10), Event::End { pid: 1, tid: 2, ts: 7 }];
        let spans = spans_from_events(&events).expect("balanced per track");
        assert_eq!(spans[0].end_us, 10);
        assert_eq!(spans[1].end_us, 7);
        assert_eq!(spans[1].parent, None);
        assert!(spans_from_events(&[end(1)]).is_err());
        assert!(spans_from_events(&[begin("open", 1)]).is_err());
    }
}
