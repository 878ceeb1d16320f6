//! In-memory spans recorded around the calls into each layer, their
//! self times, and Chrome trace-event export (opens in Perfetto).

use pei_cpu::trace::{Op, PhasedTrace};
use pei_types::json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// The cell or job this span belongs to.
    pub op: u64,
    /// Worker thread (or load-generator role) that recorded it.
    pub tid: u64,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans from any number of threads; written out at the end.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves an id, so children can name a parent still open.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span lock poisoned").push(span);
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        tid: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.id();
        let start = self.now();
        let out = f();
        self.push(Span {
            id,
            parent,
            name,
            op,
            tid,
            start,
            end: self.now(),
        });
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children covers.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
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
            (s.id, s.dur() - covered)
        })
        .collect()
}

/// Sum of self times of every span named `name`, in seconds.
pub fn self_seconds(spans: &[Span], selfs: &HashMap<u64, u64>, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64)
        .sum::<f64>()
        / 1e9
}

/// Chrome trace-event JSON ("X" complete events, microseconds).
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".to_owned(), Json::from(s.name)),
                ("ph".to_owned(), Json::from("X")),
                ("ts".to_owned(), Json::from(s.start as f64 / 1e3)),
                ("dur".to_owned(), Json::from(s.dur() as f64 / 1e3)),
                ("pid".to_owned(), Json::from(1u64)),
                ("tid".to_owned(), Json::from(s.tid)),
                (
                    "args".to_owned(),
                    Json::Obj(vec![
                        ("op".to_owned(), Json::from(s.op)),
                        ("id".to_owned(), Json::from(s.id)),
                        ("parent".to_owned(), Json::from(s.parent)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![("traceEvents".to_owned(), Json::Arr(events))]).encode()
}

/// A trace generator wrapped so every `next_phase` call becomes a
/// `workloads.next_phase` span and its ops are counted.
pub struct TimedTrace {
    pub inner: Box<dyn PhasedTrace>,
    pub rec: Arc<Recorder>,
    pub parent: u64,
    pub op: u64,
    pub tid: u64,
    pub ops: Arc<AtomicU64>,
}

impl PhasedTrace for TimedTrace {
    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        let inner = &mut self.inner;
        let phase = self.rec.time(
            "workloads.next_phase",
            self.parent,
            self.op,
            self.tid,
            || inner.next_phase(),
        );
        if let Some(p) = &phase {
            let n: usize = p.iter().map(Vec::len).sum();
            self.ops.fetch_add(n as u64, Ordering::Relaxed);
        }
        phase
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            op: 0,
            tid: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),  // overlaps span 2: union is 10..50
            span(4, 1, 90, 120), // clipped to the parent's end
            span(5, 2, 12, 18),  // grandchild: counts against span 2 only
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20 - 6);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 30);
        assert_eq!(selfs[&5], 6);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let rec = Recorder::new();
        let root = rec.id();
        let start = rec.now();
        let v = rec.time("child", root, 7, 1, || 42);
        rec.push(Span {
            id: root,
            parent: 0,
            name: "root",
            op: 7,
            tid: 1,
            start,
            end: rec.now(),
        });
        assert_eq!(v, 42);
        let spans = rec.spans();
        let selfs = self_times(&spans);
        let child = &spans[0];
        assert_eq!(child.parent, root);
        assert!(selfs[&root] + child.dur() <= spans[1].dur());
        let json = Json::parse(&chrome_trace(&spans)).expect("valid JSON");
        assert_eq!(
            json.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[_]>::len),
            Some(2)
        );
    }
}
