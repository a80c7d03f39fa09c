//! Outside-in tracing: spans the benchmark records around its own calls
//! into each layer's public functions.
//!
//! A span has a name, a start, an end and the span that caused it — the
//! innermost span open on the same thread, or, for a worker thread with
//! nothing open, the fan-out span it was adopted into. Spans stay in
//! memory while the workload runs; [`Tracer::summary`] turns them into
//! per-name self times and [`Tracer::write`] dumps them when the run ends.
//!
//! Names: [`PASS`] is the root span of one workload pass, `bench.*` spans
//! are the benchmark's own glue, and every other name is
//! `<layer>.<operation>` for a call into one of the program's layers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Root span of one workload pass.
pub const PASS: &str = "pass";

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// 1-based id of the causing span; 0 for a root.
    parent: u32,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The span log of one run.
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
    /// Parent of spans opened on threads with nothing open. Relaxed is
    /// enough: spawning the worker threads orders the store before their
    /// loads, and joining them orders their loads before the reset.
    adopt: AtomicU32,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
            adopt: AtomicU32::new(0),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; a no-op guard while tracing is off.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.is_on() {
            return SpanGuard {
                tracer: self,
                id: 0,
            };
        }
        let parent = OPEN
            .with(|open| open.borrow().last().copied())
            .unwrap_or_else(|| self.adopt.load(Ordering::Relaxed));
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span log lock");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            u32::try_from(spans.len()).expect("fewer than 2^32 spans")
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        SpanGuard { tracer: self, id }
    }

    /// Runs `f` with `guard`'s span as the parent of spans recorded on
    /// threads that have nothing open: the fan-out workers `f` spawns.
    pub fn adopting<R>(&self, guard: &SpanGuard<'_>, f: impl FnOnce() -> R) -> R {
        self.adopt.store(guard.id, Ordering::Relaxed);
        let out = f();
        self.adopt.store(0, Ordering::Relaxed);
        out
    }

    /// Adds `n` to the named counter while tracing is on.
    pub fn count(&self, name: &'static str, n: f64) {
        if self.is_on() {
            *self
                .counts
                .lock()
                .expect("counter lock")
                .entry(name)
                .or_default() += n;
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span log lock").len()
    }

    /// Per-name totals over every span recorded so far.
    pub fn summary(&self) -> Summary {
        let spans = self.spans.lock().expect("span log lock");
        // Time each span's children cover, as the union of their
        // intervals clipped to the parent's: children on several threads
        // may overlap one another.
        let mut kids: Vec<(u32, u64, u64)> = spans
            .iter()
            .filter(|s| s.parent != 0)
            .map(|s| (s.parent, s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        let mut covered = vec![0u64; spans.len()];
        for group in kids.chunk_by(|a, b| a.0 == b.0) {
            let parent = &spans[group[0].0 as usize - 1];
            let mut reach = parent.start_ns;
            let mut sum = 0;
            for &(_, start, end) in group {
                let (from, to) = (start.max(reach), end.min(parent.end_ns));
                if to > from {
                    sum += to - from;
                    reach = to;
                }
            }
            covered[group[0].0 as usize - 1] = sum;
        }
        let mut stats: BTreeMap<&'static str, Stat> = BTreeMap::new();
        for (span, covered) in spans.iter().zip(&covered) {
            let dur = span.end_ns.saturating_sub(span.start_ns);
            let stat = stats.entry(span.name).or_default();
            stat.calls += 1.0;
            stat.total_s += dur as f64 * 1e-9;
            stat.self_s += dur.saturating_sub(*covered) as f64 * 1e-9;
            stat.max_s = stat.max_s.max(dur as f64 * 1e-9);
        }
        Summary {
            stats,
            counts: self.counts.lock().expect("counter lock").clone(),
        }
    }

    /// Writes every span, one per line: id, name, start and end in ns
    /// since the run began, and the parent's id.
    pub fn write(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "# id\tname\tstart_ns\tend_ns\tparent")?;
        let spans = self.spans.lock().expect("span log lock");
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent
            )?;
        }
        out.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = self.tracer.now_ns();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.id as usize - 1].end_ns = end_ns;
        }
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
    }
}

/// Totals of all spans sharing one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stat {
    pub calls: f64,
    pub total_s: f64,
    /// Duration minus the time the span's children cover.
    pub self_s: f64,
    pub max_s: f64,
}

#[derive(Debug, Default)]
pub struct Summary {
    pub stats: BTreeMap<&'static str, Stat>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Summary {
    pub fn get(&self, name: &str) -> Stat {
        self.stats.get(name).copied().unwrap_or_default()
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn passes(&self) -> f64 {
        self.get(PASS).calls.max(1.0)
    }

    /// Self time of the pass roots and the `bench.*` glue: pass time no
    /// layer span accounts for.
    pub fn glue_s(&self) -> f64 {
        self.get(PASS).self_s
            + self
                .stats
                .iter()
                .filter(|(name, _)| name.starts_with("bench."))
                .map(|(_, s)| s.self_s)
                .sum::<f64>()
    }

    /// Share of pass wall time spent inside some layer's span.
    pub fn coverage(&self) -> f64 {
        let wall = self.get(PASS).total_s;
        if wall > 0.0 {
            1.0 - self.glue_s() / wall
        } else {
            0.0
        }
    }
}
