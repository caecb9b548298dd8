//! The in-memory span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each crate — name, start, end, the span that caused it, and the
//! session it belongs to — kept in memory and written out as
//! `trace.json` when the run ends. Nothing inside the engines is
//! instrumented; that is a later issue.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

/// One finished span. Times are nanoseconds since the recorder was
/// created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within the recorder (1-based).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The session the span belongs to; spans of one session share it.
    pub session: u64,
    /// Layer-qualified name, e.g. `core.garbler_s`.
    pub name: &'static str,
    /// Start, ns since recorder creation.
    pub start_ns: u64,
    /// End, ns since recorder creation.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    next_id: u64,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent further spans (also from other threads).
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        session: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = {
            let mut st = self
                .state
                .lock()
                .expect("no span is recorded while panicking");
            st.next_id += 1;
            st.next_id
        };
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.state
            .lock()
            .expect("no span is recorded while panicking")
            .spans
            .push(Span {
                id,
                parent,
                session,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .state
            .lock()
            .expect("no span is recorded while panicking")
            .spans
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The `trace.json` document: one object per span.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans()
                .iter()
                .map(|s| {
                    Value::obj([
                        ("id", Value::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("session", Value::Num(s.session as f64)),
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Where a call hangs in a trace: the recorder, the parent span, and the
/// session id. `None` wherever a session is not traced.
pub type Under<'a> = Option<(&'a Recorder, Option<u64>, u64)>;

/// Runs `f` inside a span called `name` when `under` says the session is
/// traced, and plainly when it is not. `f` receives where its own calls
/// hang: under the new span, or nowhere.
pub fn in_span<T>(under: Under<'_>, name: &'static str, f: impl FnOnce(Under<'_>) -> T) -> T {
    match under {
        Some((rec, parent, session)) => rec.time(name, parent, session, |id| {
            f(Some((rec, Some(id), session)))
        }),
        None => f(None),
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Children may overlap one another (the two
/// parties of a session run in parallel), so the covered part is the
/// union of their intervals, clipped to the parent.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

/// Durations in seconds of the spans called `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}

/// Self times in seconds of the spans called `name`.
pub fn self_times_s(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push(s);
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            self_time_ns(s, kids) as f64 * 1e-9
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            session: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let all = [
            span(1, None, 0, 100),
            // Two overlapping children (parallel parties): cover 10..70.
            span(2, Some(1), 10, 60),
            span(3, Some(1), 40, 70),
            // A disjoint child: covers 80..90.
            span(4, Some(1), 80, 90),
            // A grandchild never counts against the grandparent.
            span(5, Some(2), 20, 30),
            // A child that outlives its parent is clipped to it.
            span(6, Some(1), 95, 140),
        ];
        let named: Vec<Span> = all
            .iter()
            .map(|s| Span {
                name: if s.id == 1 { "root" } else { "t" },
                ..s.clone()
            })
            .collect();
        assert_eq!(
            self_times_s(&named, "root"),
            [(100.0 - 60.0 - 10.0 - 5.0) * 1e-9]
        );
        let t = self_times_s(&named, "t");
        assert_eq!(t[0], (50.0 - 10.0) * 1e-9);
        assert_eq!(t[1], 30.0 * 1e-9);
        assert_eq!(durations_s(&named, "root"), [100.0 * 1e-9]);
    }

    #[test]
    fn recorder_links_parents_across_threads() {
        let rec = Recorder::new();
        in_span(Some((&rec, None, 7)), "session", |under| {
            std::thread::scope(|s| {
                s.spawn(move || in_span(under, "core.garbler_s", |_| ()));
                in_span(under, "core.evaluator_s", |_| ());
            });
        });
        // An untraced session records nothing and still runs its body.
        assert!(in_span(None, "session", |under| under.is_none()));
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "session").unwrap();
        assert_eq!(root.parent, None);
        for child in spans.iter().filter(|s| s.name != "session") {
            assert_eq!(child.parent, Some(root.id));
            assert_eq!(child.session, 7);
            assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        }
        let doc = crate::json::parse(&rec.to_json().to_line()).unwrap();
        assert_eq!(doc.elements().len(), 3);
    }
}
