//! Summaries of timed samples, process probes, and the seeded input
//! generator.

use std::fs;

use monotone_coord::seed::splitmix64;

/// Median (mean of the middle two for an even count); NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn percentile(sorted: &[f64], rank: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * rank).round() as usize]
}

/// The tail rank `n` samples support: p99, or the highest rank that
/// leaves at least ten samples beyond it.
fn tail_rank(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// `n` ordered records split into consecutive chunks of at least
/// `min_len` records, at most 20 of them.
fn chunks(n: usize, min_len: usize) -> Vec<(usize, usize)> {
    let count = (n / min_len).clamp(1, 20);
    (0..count)
        .map(|i| (i * n / count, (i + 1) * n / count))
        .collect()
}

pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    /// The percentile rank `tail` is read at.
    pub rank: f64,
    pub samples: usize,
}

/// Latency percentiles as medians over consecutive chunks of the
/// samples, so that a burst of outside interference moves one chunk's
/// figures rather than the result.
pub fn latency(samples: &[f64]) -> Latency {
    let (mut p50s, mut tails, mut rank) = (Vec::new(), Vec::new(), f64::NAN);
    if !samples.is_empty() {
        for (lo, hi) in chunks(samples.len(), 200) {
            let mut chunk = samples[lo..hi].to_vec();
            chunk.sort_by(f64::total_cmp);
            rank = tail_rank(chunk.len());
            p50s.push(percentile(&chunk, 0.5));
            tails.push(percentile(&chunk, rank));
        }
    }
    Latency {
        p50: median(&mut p50s),
        tail: median(&mut tails),
        rank,
        samples: samples.len(),
    }
}

/// Work rate from `(seconds, units)` records: the median over
/// consecutive chunks of units ÷ seconds.
pub fn rate(records: &[(f64, f64)]) -> f64 {
    if records.is_empty() {
        return f64::NAN;
    }
    let mut rates: Vec<f64> = chunks(records.len(), 500)
        .into_iter()
        .map(|(lo, hi)| {
            let (secs, units) = records[lo..hi]
                .iter()
                .fold((0.0, 0.0), |(s, u), &(ds, du)| (s + ds, u + du));
            units / secs
        })
        .collect();
    median(&mut rates)
}

/// Peak resident set size of this process (VmHWM) in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Bytes written, bytes read, and read plus write syscalls of this
/// process so far (`/proc/self/io`; zeros where unavailable).
pub fn proc_io() -> [u64; 3] {
    let field = |key| proc_field("/proc/self/io", key).unwrap_or(0);
    [
        field("wchar:"),
        field("rchar:"),
        field("syscr:") + field("syscw:"),
    ]
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find_map(|line| line.strip_prefix(key))?;
    line.split_whitespace().next()?.parse().ok()
}

/// The generator every workload draws its inputs from: SplitMix64 over
/// a counter, so the seed fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0) % n
    }
}
