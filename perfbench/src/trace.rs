//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end, the span that was open on the
//! same thread when it began (its parent), and a request id shared by
//! every span of one end-to-end operation. Replays of an operation's
//! inner stages run after it, outside its interval, and are tied to it
//! by the request id alone. Spans stay in memory until the run ends.
//! With tracing off a span costs one relaxed load.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_REQ: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQ: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// A fresh request id for one end-to-end operation.
pub fn next_req() -> u64 {
    NEXT_REQ.fetch_add(1, Ordering::Relaxed)
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct Guard {
    open: Option<Span>,
    /// The request id to restore on the thread when a root closes.
    prev_req: Option<u64>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        if let Some(req) = self.prev_req {
            REQ.with(|r| r.set(req));
        }
        SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }
}

fn open(name: &'static str, root_req: Option<u64>) -> Guard {
    if !enabled() {
        return Guard {
            open: None,
            prev_req: None,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, prev_req) = match root_req {
        Some(req) => (0, Some(REQ.with(|r| r.replace(req)))),
        None => (
            STACK.with(|s| s.borrow().last().copied().unwrap_or(0)),
            None,
        ),
    };
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        open: Some(Span {
            id,
            parent,
            req: REQ.with(Cell::get),
            name,
            start_ns: now_ns(),
            end_ns: 0,
        }),
        prev_req,
    }
}

/// Opens a root span for request `req` on this thread.
pub fn root(name: &'static str, req: u64) -> Guard {
    open(name, Some(req))
}

/// Opens a child of the span currently open on this thread.
pub fn span(name: &'static str) -> Guard {
    open(name, None)
}

/// Takes every recorded span, leaving the store empty.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per span name: count, total time, and self time (the span minus the
/// part of its interval its children cover), in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let cov = covered(kids, s.start_ns, s.end_ns);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns() - cov;
    }
    out
}

/// The share of the time of the end-to-end spans named `op` that layer
/// spans account for: their children in time, plus replays of their
/// inner stages tied to them by request id (capped at the op's span).
/// Only ops with at least one such span count, so replaying a sample of
/// the ops measures the sample.
pub fn coverage(spans: &[Span], op: &str) -> f64 {
    let mut kids: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut replay_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            kids.entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        } else if s.name != op {
            *replay_ns.entry(s.req).or_default() += s.dur_ns();
        }
    }
    let (mut num, mut den) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == op && s.parent == 0) {
        let inner = kids.remove(&s.id);
        let beside = replay_ns.get(&s.req).copied();
        if inner.is_none() && beside.is_none() {
            continue;
        }
        let inner = covered(inner.unwrap_or_default(), s.start_ns, s.end_ns);
        num += (inner + beside.unwrap_or(0)).min(s.dur_ns());
        den += s.dur_ns();
    }
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> crate::stats::Samples {
    let mut out = crate::stats::Samples::new();
    for s in spans.iter().filter(|s| s.name == name) {
        out.push(s.dur_ns() as f64 / 1e6);
    }
    out
}

/// The spans plus their per-name self-time table, for the trace file.
pub fn to_json(spans: &[Span]) -> Json {
    let table = self_times(spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            Json::obj()
                .with("name", name)
                .with("count", count)
                .with("total_ms", total as f64 / 1e6)
                .with("self_ms", own as f64 / 1e6)
        })
        .collect::<Vec<_>>();
    let list = spans
        .iter()
        .map(|s| {
            Json::obj()
                .with("id", s.id)
                .with("parent", s.parent)
                .with("req", s.req)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
        })
        .collect::<Vec<_>>();
    Json::obj().with("self_times", table).with("spans", list)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, req: u64, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            req,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            sp(1, 0, 7, "op", 0, 100),
            sp(2, 1, 7, "a", 10, 40),
            sp(3, 1, 7, "b", 30, 60),
            sp(4, 1, 7, "c", 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (1, 100, 100 - 50 - 10));
        assert_eq!(t["a"], (1, 30, 30));
        // Children 10..60 and 90..100 of 100; no replays.
        assert!((coverage(&spans, "op") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn replays_count_by_request_id() {
        let spans = vec![
            sp(1, 0, 1, "op", 0, 100),
            sp(2, 0, 1, "replay", 200, 230),
            sp(3, 0, 2, "op", 300, 400),
            sp(4, 0, 2, "replay", 500, 700),
            sp(5, 0, 3, "op", 800, 900),
        ];
        // Request 1: 30 of 100; request 2: capped at 100 of 100;
        // request 3 was not replayed and does not count.
        assert!((coverage(&spans, "op") - 0.65).abs() < 1e-12);
    }

    #[test]
    fn guards_nest_and_tag_requests() {
        set_enabled(true);
        {
            let _r = root("t.op", 42);
            let _c = span("t.child");
        }
        {
            let _r = root("t.other", 43);
        }
        set_enabled(false);
        {
            let _off = root("t.off", 44);
        }
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.name.starts_with("t."))
            .collect();
        let op = spans.iter().find(|s| s.name == "t.op").unwrap();
        let child = spans.iter().find(|s| s.name == "t.child").unwrap();
        assert_eq!((op.parent, op.req), (0, 42));
        assert_eq!((child.parent, child.req), (op.id, 42));
        assert!(spans.iter().any(|s| s.name == "t.other" && s.req == 43));
        assert!(!spans.iter().any(|s| s.name == "t.off"));
    }
}
