//! Trace-event capture and Chrome-tracing/Perfetto export.
//!
//! When tracing is switched on ([`set_tracing`]) every completed span
//! appends a [`TraceEvent`] to a global buffer, stamped against a
//! process-wide epoch and tagged with the calling thread's *lane* — a
//! small dense id assigned on first use, mapped to the OS thread name
//! so the viewer shows one labelled track per pool worker.
//!
//! [`chrome_trace_json`] renders the drained buffer as the JSON object
//! form of the Chrome trace event format (`"traceEvents"` array of
//! `"ph": "X"` complete events plus `"ph": "M"` `thread_name`
//! metadata), which both `chrome://tracing` and Perfetto load
//! directly.

use crate::Json;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);
static LANE_NAMES: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());

thread_local! {
    static LANE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One completed (`"ph": "X"`) trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name, shared with the duration histogram.
    pub name: &'static str,
    /// Thread lane (dense per-thread id; 1 is the first thread seen).
    pub lane: u64,
    /// Start, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Viewer-visible numeric arguments.
    pub args: Vec<(&'static str, f64)>,
}

/// Switches trace-event capture on or off. Turning it on pins the
/// process epoch (timestamp zero) on first use. Capture is
/// independent of [`crate::set_enabled`] in the API but events are
/// only produced by live spans, so tracing without enabling telemetry
/// records nothing.
pub fn set_tracing(on: bool) {
    if on {
        let _ = EPOCH.set(Instant::now());
    }
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether trace-event capture is active.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// The calling thread's lane id, assigning one (and recording the
/// thread's name for the viewer) on first use.
fn lane_id() -> u64 {
    LANE.with(|l| {
        let mut id = l.get();
        if id == 0 {
            id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            l.set(id);
            let name = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{id}"), str::to_owned);
            LANE_NAMES
                .lock()
                .expect("lane names poisoned")
                .push((id, name));
        }
        id
    })
}

/// Appends one complete event for the calling thread. `start` is the
/// wall-clock instant the measured work began; `offset_ns` shifts the
/// event later by that amount (used to lay accumulated sub-phase
/// totals end to end inside their parent span).
pub(crate) fn push_event(
    name: &'static str,
    start: Instant,
    offset_ns: u64,
    dur_ns: u64,
    args: &[(&'static str, f64)],
) {
    let epoch = *EPOCH.get_or_init(Instant::now);
    let since = start
        .checked_duration_since(epoch)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    let ev = TraceEvent {
        name,
        lane: lane_id(),
        ts_ns: since.saturating_add(offset_ns),
        dur_ns,
        args: args.to_vec(),
    };
    EVENTS.lock().expect("trace buffer poisoned").push(ev);
}

/// Drains and returns every captured event (oldest first per thread;
/// globally sorted by timestamp).
pub fn take_trace() -> Vec<TraceEvent> {
    let mut events = std::mem::take(&mut *EVENTS.lock().expect("trace buffer poisoned"));
    events.sort_by_key(|e| e.ts_ns);
    events
}

/// Renders events as Chrome trace event format JSON (object form),
/// with a `thread_name` metadata record per lane seen so far.
/// Timestamps and durations are microseconds with nanosecond
/// precision, as the format expects; a non-finite figure writes as `0`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let num = |v: f64| Json::num(if v.is_finite() { v } else { 0.0 });
    let lanes = LANE_NAMES.lock().expect("lane names poisoned");
    let threads = lanes.iter().map(|(lane, name)| {
        Json::obj([
            ("ph", "M".into()),
            ("pid", 1u64.into()),
            ("tid", (*lane).into()),
            ("name", "thread_name".into()),
            ("args", Json::obj([("name", name.as_str().into())])),
        ])
    });
    let spans = events.iter().map(|ev| {
        let mut pairs = vec![
            ("ph", "X".into()),
            ("pid", 1u64.into()),
            ("tid", ev.lane.into()),
            ("name", ev.name.into()),
            ("ts", num(ev.ts_ns as f64 / 1000.0)),
            ("dur", num(ev.dur_ns as f64 / 1000.0)),
        ];
        if !ev.args.is_empty() {
            pairs.push(("args", Json::obj(ev.args.iter().map(|&(k, v)| (k, num(v))))));
        }
        Json::obj(pairs)
    });
    let mut out = Json::obj([("traceEvents", Json::Arr(threads.chain(spans).collect()))]).encode();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_shape() {
        let events = vec![
            TraceEvent {
                name: "round",
                lane: 1,
                ts_ns: 1_500,
                dur_ns: 2_000,
                args: vec![("msteps_per_sec", 12.5)],
            },
            TraceEvent {
                name: "shard",
                lane: 2,
                ts_ns: 0,
                dur_ns: 10_000,
                args: vec![],
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"round\""));
        assert!(json.contains("\"ts\":1.5"));
        assert!(json.contains("\"dur\":2"));
        assert!(json.contains("\"msteps_per_sec\":12.5"));
        // Balanced braces/brackets — cheap structural sanity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn spans_emit_events_when_tracing() {
        let _g = crate::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        set_tracing(true);
        static SPAN: crate::SpanMetric = crate::SpanMetric::new("test.trace.span");
        {
            let mut s = SPAN.start();
            s.arg("k", 3.0);
        }
        set_tracing(false);
        crate::set_enabled(false);
        let events = take_trace();
        let ev = events
            .iter()
            .find(|e| e.name == "test.trace.span")
            .expect("event captured");
        assert!(ev.lane >= 1);
        assert_eq!(ev.args, vec![("k", 3.0)]);
    }
}
