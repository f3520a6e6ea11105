//! The traced run's span recorder. Spans live in memory — name, start,
//! end, parent, and a group id shared by every span of one shard or
//! job — and are written out once, at exit.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Group id of spans that belong to no single shard or job.
pub const NO_GROUP: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span; closes (records its end) on drop.
#[derive(Debug)]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Guard<'_> {
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.ns(Instant::now());
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.id].end_ns = end;
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    fn push(&self, rec: SpanRec) -> usize {
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans.push(rec);
        spans.len() - 1
    }

    /// Opens a span now.
    pub fn start(&self, name: &'static str, parent: Option<usize>, group: u64) -> Guard<'_> {
        let now = self.ns(Instant::now());
        let id = self.push(SpanRec {
            name,
            group,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Guard { tracer: self, id }
    }

    /// Records a span whose interval was observed elsewhere (e.g. the
    /// gap between two events read off a socket).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.push(SpanRec {
            name,
            group,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        })
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let _g = self.start(name, parent, group);
        f()
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .clone()
    }
}

/// Per-span-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub max_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (children on other threads may
/// overlap one another; their union counts once).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

pub fn totals(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
        t.max_ns = t.max_ns.max(s.dur_ns());
    }
    out
}

/// Share of root-span wall time that no child span covers: time the
/// trace does not attribute to any layer.
pub fn unattributed_frac(spans: &[SpanRec]) -> f64 {
    let selfs = self_times(spans);
    let (mut unattributed, mut wall) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.parent.is_none() {
            unattributed += self_ns;
            wall += s.dur_ns();
        }
    }
    unattributed as f64 / wall.max(1) as f64
}

/// The span list as JSON: one object per span (ids are list
/// positions, `self_ns` its self time), then per-name totals.
pub fn to_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("{\"spans\": [\n");
    for ((i, s), self_ns) in spans.iter().enumerate().zip(self_times(spans)) {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let group = if s.group == NO_GROUP {
            "null".to_string()
        } else {
            s.group.to_string()
        };
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"group\": {group}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("],\n\"totals\": [\n");
    let totals = totals(spans);
    for (i, (name, t)) in totals.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \
             \"max_ns\": {}}}{}\n",
            t.count,
            t.total_ns,
            t.self_ns,
            t.max_ns,
            if i + 1 == totals.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            group: NO_GROUP,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec("root", None, 0, 100),
            rec("a", Some(0), 10, 50),
            rec("b", Some(0), 30, 70), // overlaps a (another thread)
            rec("c", Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 40, 10]);
        assert!((unattributed_frac(&spans) - 0.4).abs() < 1e-12);
        let t = totals(&spans);
        assert_eq!(t["a"].self_ns, 30);
        assert_eq!(t["root"].total_ns, 100);
    }

    #[test]
    fn guards_record_nested_intervals() {
        let tracer = Tracer::new();
        {
            let root = tracer.start("root", None, NO_GROUP);
            tracer.time("child", Some(root.id()), 3, || std::hint::black_box(1 + 1));
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].group, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json(&spans).contains("\"name\": \"child\", \"group\": 3, \"parent\": 0"));
    }
}
