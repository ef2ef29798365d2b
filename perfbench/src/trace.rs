//! The benchmark's own span recorder and the per-layer table built from it.
//!
//! Spans are recorded around the benchmark's calls into each layer's public
//! functions, kept in memory in one buffer per run (never in a process-global
//! collector shared with other users), and turned into the table once, at the
//! end. A disabled tracer records nothing; its `open`/`close` still return so
//! call sites need no branches.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (0 = a root).
    pub parent: u32,
    /// Shared by every span of one request or one compiled operator.
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A probe re-measures a layer the blocking call `parent` passed
    /// through, outside that call's interval; it is not on the blocking path.
    pub probe: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The run's span buffer.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// Spans recorded before the layer sweep began.
    workload_len: AtomicUsize,
}

/// An open span; close it with [`Buf::close`].
#[must_use]
pub struct Open {
    id: u32,
    parent: u32,
    req: u32,
    name: &'static str,
    start_ns: u64,
    probe: bool,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            workload_len: AtomicUsize::new(usize::MAX),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh id, for a request (`req`) or a span.
    pub fn id(&self) -> u32 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// A thread-local buffer that flushes into this tracer when dropped.
    pub fn buf(&self) -> Buf<'_> {
        Buf {
            tracer: self,
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far, moved out of the buffer.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    /// Mark the end of the workload's own traced loop: later spans belong
    /// to the layer sweep.
    pub fn end_workload(&self) {
        let n = self.spans.lock().expect("span buffer poisoned").len();
        self.workload_len.store(n, Ordering::Relaxed);
    }

    /// How many of [`Tracer::spans`] the workload's loop recorded.
    pub fn workload_len(&self) -> usize {
        self.workload_len.load(Ordering::Relaxed)
    }
}

/// Spans of one thread, appended to the tracer in one lock when dropped.
pub struct Buf<'a> {
    tracer: &'a Tracer,
    spans: Vec<Span>,
}

impl Buf<'_> {
    pub fn open(&mut self, name: &'static str, parent: u32, req: u32) -> Open {
        self.open_as(name, parent, req, false)
    }

    pub fn probe(&mut self, name: &'static str, parent: u32, req: u32) -> Open {
        self.open_as(name, parent, req, true)
    }

    fn open_as(&mut self, name: &'static str, parent: u32, req: u32, probe: bool) -> Open {
        let (id, start_ns) = if self.tracer.on {
            (self.tracer.id(), self.tracer.now())
        } else {
            (0, 0)
        };
        Open {
            id,
            parent,
            req,
            name,
            start_ns,
            probe,
        }
    }

    pub fn close(&mut self, o: Open) {
        if self.tracer.on {
            self.spans.push(Span {
                id: o.id,
                parent: o.parent,
                req: o.req,
                name: o.name,
                start_ns: o.start_ns,
                end_ns: self.tracer.now(),
                probe: o.probe,
            });
        }
    }

    /// Close `o` under a name chosen once its outcome is known.
    pub fn close_as(&mut self, mut o: Open, name: &'static str) {
        o.name = name;
        self.close(o);
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let o = self.open(name, parent, req);
        let r = f();
        self.close(o);
        r
    }

    /// Run `f` inside a probe span named `name`.
    pub fn time_probe<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let o = self.probe(name, parent, req);
        let r = f();
        self.close(o);
        r
    }
}

impl Drop for Buf<'_> {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut all) = self.tracer.spans.lock() {
                all.append(&mut self.spans);
            }
        }
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Default)]
pub struct Row {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Summed duration of the distinct blocking calls a probe re-measures.
    pub decomposed_ns: u64,
    pub probe: bool,
}

impl Row {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Aggregate spans by name. A span's self time is its duration minus the
/// part of its interval covered by its non-probe children.
pub fn rows(spans: &[Span]) -> BTreeMap<&'static str, Row> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| !s.probe && s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, Row> = BTreeMap::new();
    let mut probed: HashMap<&'static str, Vec<u32>> = HashMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| union_within(c, s));
        let row = out.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += s.dur_ns().saturating_sub(covered);
        row.probe = s.probe;
        if s.probe && s.parent != 0 {
            probed.entry(s.name).or_default().push(s.parent);
        }
    }
    for (name, mut parents) in probed {
        parents.sort_unstable();
        parents.dedup();
        let row = out.get_mut(name).expect("probe row exists");
        row.decomposed_ns = parents
            .iter()
            .filter_map(|p| by_id.get(p))
            .map(|s| s.dur_ns())
            .sum();
    }
    out
}

/// Length of the union of `intervals`, clipped to `s`.
fn union_within(intervals: &[(u64, u64)], s: &Span) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The per-layer table: blocking spans with their share of all blocking self
/// time, then probes with the share of the blocking calls they re-measure.
/// A probe that samples only some of the calls its parents made is listed
/// in `calls` with the number they made; its share is then its mean time
/// that many times over.
pub fn render(spans: &[Span], rows: &BTreeMap<&'static str, Row>, calls: &[(&str, u64)]) -> String {
    let blocking_self: u64 = rows.values().filter(|r| !r.probe).map(|r| r.self_ns).sum();
    let requests: std::collections::HashSet<u32> = spans.iter().map(|s| s.req).collect();
    let mut lines = vec![format!(
        "{} spans from {} requests or compiled ops",
        spans.len(),
        requests.len()
    )];
    lines.push(format!(
        "{:<34} {:>9} {:>12} {:>12} {:>8}",
        "span", "count", "self ms", "mean us", "share"
    ));
    let mut sorted: Vec<_> = rows.iter().collect();
    sorted.sort_by(|a, b| {
        (a.1.probe, std::cmp::Reverse(a.1.self_ns))
            .cmp(&(b.1.probe, std::cmp::Reverse(b.1.self_ns)))
    });
    for (name, r) in sorted {
        let share = if !r.probe {
            format!("{:.1}%", pct(r.self_ns, blocking_self))
        } else if r.decomposed_ns > 0 {
            let probed_ns = match calls.iter().find(|c| c.0 == *name) {
                Some(&(_, n)) => (r.mean_us() * 1e3 * n as f64) as u64,
                None => r.total_ns,
            };
            format!("~{:.1}%", pct(probed_ns, r.decomposed_ns))
        } else {
            "probe".to_string()
        };
        lines.push(format!(
            "{:<34} {:>9} {:>12.3} {:>12.3} {:>8}",
            name,
            r.count,
            r.self_ns as f64 / 1e6,
            r.mean_us(),
            share
        ));
    }
    lines.join("\n")
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, a: u64, b: u64, probe: bool) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns: a,
            end_ns: b,
            probe,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "tune", 0, 100, false),
            span(2, 1, "walk", 10, 60, false),
            span(3, 1, "walk", 40, 80, false),
            span(4, 1, "probe", 200, 230, true),
        ];
        let r = rows(&spans);
        assert_eq!(r["tune"].self_ns, 30);
        assert_eq!(r["walk"].self_ns, 90);
        assert_eq!(r["probe"].decomposed_ns, 100);
    }
}
