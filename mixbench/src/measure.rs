//! Clocks, order statistics and the in-memory span tracer.
//!
//! Everything here is owned by the benchmark: the program under test is
//! only ever called, never instrumented from inside.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed by the whole process so far, in
/// seconds (all threads).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One closed span: a timed call made by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `transtest.response`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Group id: every span of one fault extraction (or one die)
    /// shares it; 0 for spans outside any extraction.
    pub group: u64,
    /// Small per-thread lane number.
    pub lane: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    static LANE: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Records spans in memory; they are summarised and written out when
/// the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_group: AtomicU64,
    next_lane: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_group: AtomicU64::new(1),
            next_lane: AtomicU64::new(0),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lane(&self) -> u64 {
        LANE.with(|l| {
            if l.get() == u64::MAX {
                l.set(self.next_lane.fetch_add(1, Ordering::Relaxed));
            }
            l.get()
        })
    }

    /// A fresh group id for one extraction.
    pub fn group(&self) -> u64 {
        self.next_group.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span and returns its index.
    pub fn enter(&self, name: &'static str, parent: Option<usize>, group: u64) -> usize {
        let lane = self.lane();
        let start = self.now();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            group,
            lane,
        });
        spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn exit(&self, idx: usize) {
        let end = self.now();
        self.spans.lock().expect("span lock")[idx].end = end;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }
}

/// Runs `f` inside a span when a tracer is armed; `f` receives the
/// span's index to use as the parent of nested spans.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    group: u64,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match tracer {
        None => f(None),
        Some(t) => {
            let idx = t.enter(name, parent, group);
            let out = f(Some(idx));
            t.exit(idx);
            out
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed span durations, ns.
    pub ns: u64,
    /// Summed self time, ns: each span's duration minus the time any of
    /// its children (on any thread) was running.
    pub self_ns: u64,
}

/// Folds spans into per-name totals, in first-seen order.
pub fn layer_totals(spans: &[Span]) -> Vec<(&'static str, LayerTotals)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: Vec<(&'static str, LayerTotals)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let mut intervals: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start, spans[c].end))
            .collect();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut cursor = 0;
        for (a, b) in intervals {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let self_ns = s.ns().saturating_sub(covered);
        let slot = match out.iter().position(|(n, _)| *n == s.name) {
            Some(k) => k,
            None => {
                out.push((s.name, LayerTotals::default()));
                out.len() - 1
            }
        };
        let t = &mut out[slot].1;
        t.calls += 1;
        t.ns += s.ns();
        t.self_ns += self_ns;
    }
    out
}

/// Wall time covered by top-level spans (those without a parent), ns.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::ns)
        .sum()
}

/// Renders spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"group\":{}}}}}",
            s.name,
            s.lane,
            s.start as f64 / 1e3,
            s.ns() as f64 / 1e3,
            s.group
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mk = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            group: 0,
            lane: 0,
        };
        // Two overlapping children (parallel workers) cover 10..40.
        let spans = vec![
            mk("outer", 0, 100, None),
            mk("inner", 10, 30, Some(0)),
            mk("inner", 20, 40, Some(0)),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(totals[0].1.self_ns, 70);
        assert_eq!(totals[1].1.calls, 2);
        assert_eq!(totals[1].1.ns, 40);
        assert_eq!(top_level_ns(&spans), 100);
    }
}
