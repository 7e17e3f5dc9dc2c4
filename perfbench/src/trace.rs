//! Spans recorded from outside the program: the benchmark wraps its
//! calls into each crate's public functions, keeps the spans in memory
//! and writes them out when the run ends.

use emx_obs::{ChromeTrace, Json};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: name, start, end and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `fock.build`.
    pub name: &'static str,
    /// Arm the call belongs to (one Chrome track per arm).
    pub track: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder for one benchmark run. When off, [`Tracer::span`]
/// only calls its closure.
pub struct Tracer {
    on: Cell<bool>,
    origin: Instant,
    track: Cell<u32>,
    tracks: RefCell<BTreeMap<u32, String>>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            on: Cell::new(false),
            origin: Instant::now(),
            track: Cell::new(0),
            tracks: RefCell::new(BTreeMap::new()),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Switches recording on or off for the calls that follow.
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    /// Files the following spans under the arm `name`.
    pub fn set_track(&self, track: u32, name: &str) {
        self.track.set(track);
        self.tracks
            .borrow_mut()
            .entry(track)
            .or_insert_with(|| name.to_string());
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                track: self.track.get(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Number of spans recorded so far — a mark for [`Tracer::since`].
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.spans.borrow()[mark..].to_vec()
    }

    /// Self time per (arm, span name): each span's duration minus the
    /// part its child spans cover, summed over all spans.
    pub fn self_times(&self) -> BTreeMap<(String, &'static str), (usize, f64)> {
        let spans = self.spans.borrow();
        let mut child = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let tracks = self.tracks.borrow();
        let mut out: BTreeMap<(String, &'static str), (usize, f64)> = BTreeMap::new();
        for (s, c) in spans.iter().zip(child) {
            let arm = tracks.get(&s.track).cloned().unwrap_or_default();
            let e = out.entry((arm, s.name)).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s.secs() - c;
        }
        out
    }

    /// The spans as a Chrome trace: one track per arm, children nested
    /// inside their parents by time.
    pub fn chrome(&self, process: &str) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.set_process_name(1, process);
        for (&track, name) in self.tracks.borrow().iter() {
            t.set_thread_name(1, track, name.clone());
        }
        for s in self.spans.borrow().iter() {
            t.add_span(
                1,
                s.track,
                s.name,
                "perfbench",
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            );
        }
        t
    }

    /// The spans with their parent links, as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let tracks = self.tracks.borrow();
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Num(i as f64)),
                ("name", Json::Str(s.name.to_string())),
                (
                    "arm",
                    Json::Str(tracks.get(&s.track).cloned().unwrap_or_default()),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
            ]);
            out.push_str(&line.to_json_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let t = Tracer::default();
        t.span("outer", || ());
        assert_eq!(t.mark(), 0, "off records nothing");
        t.set_on(true);
        t.set_track(3, "arm");
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let spans = t.since(0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let st = t.self_times();
        let outer = st[&("arm".to_string(), "outer")].1;
        let inner = st[&("arm".to_string(), "inner")].1;
        assert!(inner >= 0.002);
        assert!(outer >= 0.0 && outer < spans[0].secs() - 0.0019);
        let chrome = Json::parse(&t.chrome("test").to_json_string()).expect("chrome parses");
        let events = chrome.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
                .count(),
            2
        );
    }
}
