//! In-memory spans around the calls the benchmark makes into each layer,
//! written out as Chrome trace-event JSON when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lift_tuner::json::Value;

/// The parent of the spans that re-run tuned configurations one layer call
/// at a time; they are left out of the timed phase.
pub const REPLAY: &str = "replay";

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The benchmark operation the call belongs to.
    pub op: u64,
    pub tid: u32,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    /// Output elements the call processed (0 when not meaningful).
    pub work: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Records spans when enabled; otherwise every call passes straight
/// through.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Time spent in the tracer's own bookkeeping.
    overhead_ns: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            overhead_ns: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, child of the innermost span
    /// open on this thread.
    pub fn span<T>(&self, name: &'static str, op: u64, work: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let entered = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            op,
            tid: TID.with(|t| *t),
            start: self.nanos(start),
            end: self.nanos(end),
            work,
        };
        self.spans.lock().expect("span list").push(span);
        let spent = (start - entered) + end.elapsed();
        self.overhead_ns
            .fetch_add(spent.as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list").clone()
    }

    pub fn overhead_s(&self) -> f64 {
        self.overhead_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Per-span self time: duration minus the part of it that child spans
/// cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end - s.start).saturating_sub(covered))
        })
        .collect()
}

/// Calls, self time and work of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub calls: u64,
    pub self_ns: u64,
    pub work: u64,
}

impl Layer {
    /// Mean self time per call in milliseconds (0 without calls).
    pub fn ms_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e6 / self.calls as f64
        }
    }
}

/// Totals per span name; with `replay_only`, only spans below a
/// [`REPLAY`] span count.
pub fn layers(spans: &[Span], replay_only: bool) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times(spans);
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let under_replay = |s: &Span| {
        let mut at = s.parent;
        while let Some(p) = at.and_then(|id| by_id.get(&id)) {
            if p.name == REPLAY {
                return true;
            }
            at = p.parent;
        }
        false
    };
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        if replay_only && !under_replay(s) {
            continue;
        }
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.self_ns += selfs[&s.id];
        l.work += s.work;
    }
    out
}

/// The spans as Chrome trace-event JSON (complete `X` events, microsecond
/// timestamps), with the run's resolved configuration as metadata.
pub fn chrome_json(spans: &[Span], config: &[(&str, String)]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("cat".into(), Value::Str("lift".into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Float(s.start as f64 / 1e3)),
                ("dur".into(), Value::Float((s.end - s.start) as f64 / 1e3)),
                ("pid".into(), Value::Int(1)),
                ("tid".into(), Value::Int(i64::from(s.tid))),
                (
                    "args".into(),
                    Value::Obj(vec![
                        ("id".into(), Value::UInt(s.id)),
                        ("parent".into(), s.parent.map_or(Value::Null, Value::UInt)),
                        ("op".into(), Value::UInt(s.op)),
                        ("work".into(), Value::UInt(s.work)),
                    ]),
                ),
            ])
        })
        .collect();
    let meta = config
        .iter()
        .map(|(k, v)| (k.to_string(), Value::Str(v.clone())))
        .collect();
    Value::Obj(vec![
        ("traceEvents".into(), Value::Arr(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        ("otherData".into(), Value::Obj(meta)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 7,
            tid: 1,
            start,
            end,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span(1, None, "driver.tune", 0, 100),
            span(2, Some(1), "oclsim.run", 10, 30),
            span(3, Some(1), "oclsim.run", 25, 50), // overlaps its sibling
            span(4, Some(1), "oclsim.verify", 90, 120), // runs past the parent
            span(5, Some(2), "stencils.golden", 12, 14),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 18);
        assert_eq!(selfs[&3], 25);
        assert_eq!(selfs[&5], 2);
        let all = layers(&spans, false);
        assert_eq!(all["oclsim.run"].calls, 2);
        assert_eq!(all["oclsim.run"].self_ns, 43);
    }

    #[test]
    fn replay_only_keeps_spans_below_a_replay_span() {
        let spans = vec![
            span(1, None, "oclsim.run", 0, 10),
            span(2, None, REPLAY, 20, 60),
            span(3, Some(2), "codegen.compile", 20, 30),
            span(4, Some(3), "oclsim.run", 21, 25),
        ];
        let replayed = layers(&spans, true);
        assert_eq!(replayed["oclsim.run"].calls, 1);
        assert_eq!(replayed["codegen.compile"].self_ns, 6);
        assert!(!replayed.contains_key(REPLAY));
    }

    #[test]
    fn recorded_spans_nest_and_the_trace_parses_back() {
        let tracer = Tracer::new(true);
        let v = tracer.span("driver.tune", 3, 0, || {
            tracer.span("oclsim.run", 3, 64, || 5) + 1
        });
        assert_eq!(v, 6);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start <= inner.start && inner.end <= outer.end);

        let text = chrome_json(&spans, &[("workload", "fig7-tune".into())]);
        let doc = Value::parse(&text).expect("trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").and_then(Value::as_str),
            Some("oclsim.run")
        );
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Value::as_u64), Some(outer.id));
        assert_eq!(args.get("work").and_then(Value::as_u64), Some(64));
        assert_eq!(
            doc.get("otherData")
                .and_then(|m| m.get("workload"))
                .and_then(Value::as_str),
            Some("fig7-tune")
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("oclsim.run", 1, 0, || 2), 2);
        assert!(tracer.spans().is_empty());
    }
}
