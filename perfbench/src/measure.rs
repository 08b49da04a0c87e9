//! Samples, percentiles, metrics and the in-memory span tracer shared by
//! every workload.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from (1 for counts and ratios).
    pub samples: usize,
}

/// What a workload reports back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the correctness check failed, one line each.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.errors.push(why);
    }
}

/// Raw per-operation samples. Percentiles interpolate linearly between
/// order statistics, so no value is ever snapped to a bucket edge. A failed
/// operation is recorded as `+inf`: it counts against every latency limit.
#[derive(Default, Clone, Debug)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The `q`-quantile (`q` in `[0, 1]`); NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if sorted[hi].is_infinite() {
            return sorted[hi];
        }
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }
}

/// The best (lowest) time each operation took over the repetitions of a
/// run, for workloads that repeat the same operations: the same tick of the
/// same route and seed, the same DSPN point, the same scheduled request,
/// the same arrivals of a service round. Other tenants of a shared host
/// only ever add time to an operation, so its best time is the program's
/// own cost, while a change that slows the program slows every repetition.
pub struct BestOf(Vec<f64>);

impl BestOf {
    pub fn new() -> Self {
        BestOf(Vec::new())
    }

    /// Records one repetition of operation `id`.
    pub fn record(&mut self, id: usize, value: f64) {
        if self.0.len() <= id {
            self.0.resize(id + 1, f64::NAN);
        }
        // `f64::min` ignores the NaN of an operation not seen yet.
        self.0[id] = self.0[id].min(value);
    }

    /// `(id, best time)` of every operation seen at least once.
    pub fn seen(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.0
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, v)| !v.is_nan())
    }

    /// The best time of every operation seen at least once.
    pub fn samples(&self) -> Samples {
        Samples(self.seen().map(|(_, v)| v).collect())
    }

    /// `(p50, tail, throughput)` of the best times in ms: their median,
    /// their `tail_q` quantile, and operations per second at those times.
    pub fn report(&self, tail_q: f64) -> (f64, f64, f64) {
        let best = self.samples();
        (
            best.median(),
            best.quantile(tail_q),
            best.len() as f64 / (best.sum() / 1e3),
        )
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
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

/// Runs `setup` `reps` times, keeping the last instance, and returns it
/// with the median set-up time in seconds. Earlier instances are dropped
/// before the next one is built.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Samples) {
    let mut times = Samples::new();
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        times.push(secs(t));
    }
    (kept.expect("at least one set-up"), times)
}

/// A small deterministic generator (SplitMix64) for arrival schedules and
/// request choices, so a seed fixes every workload input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with the given rate.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// One span: a timed call into a layer, made from the benchmark's code.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request (or tick, or point) the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Keeps spans in memory; a disabled tracer records nothing and only runs
/// the wrapped calls.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer::with_epoch(Instant::now(), enabled)
    }

    /// A tracer sharing `epoch`, for spans recorded on another thread.
    pub fn with_epoch(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id (`usize::MAX` when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Moves another tracer's spans (same epoch) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Samples {
        let mut out = Samples::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(s.us());
        }
        out
    }

    /// Per span id: the µs its direct children cover.
    pub fn child_us(&self) -> Vec<f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.us();
            }
        }
        covered
    }

    /// Share of the time of spans named `name` that their children cover.
    pub fn coverage(&self, name: &str) -> f64 {
        let covered = self.child_us();
        let (mut total, mut inner) = (0.0, 0.0);
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            total += s.us();
            inner += covered[i];
        }
        inner / total
    }

    /// Appends the spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, out: &mut String, phase: &str) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"phase\":\"{phase}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
    }
}
