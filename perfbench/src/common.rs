//! Shared pieces of the benchmark: sample statistics, the in-memory span
//! tracer, the metric report, peak memory and the host fingerprint.

use ppl_store::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of times each workload repeats its set-up; `setup_s` is the
/// median of these.
pub const SETUP_REPS: usize = 7;

/// The value at quantile `q` (0..=1) of `xs`, by linear interpolation
/// between order statistics (the "inclusive" method). `0.0` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Interquartile range of `xs` as a share of its median.
pub fn rel_iqr(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / m.abs()
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times `f`, returning its value and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, secs(t))
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up time in seconds.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        let (v, s) = timed(|| setup(rep));
        times.push(s);
        last = Some(v);
    }
    (last.expect("reps > 0"), median(&times))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A small seeded generator for workload inputs (SplitMix64), kept apart
/// from the engines' own RNG so input generation never shares state with
/// the code under test.
#[derive(Debug, Clone)]
pub struct InputRng(u64);

impl InputRng {
    /// A generator for `seed` and a named stream.
    pub fn new(seed: u64, stream: &str) -> InputRng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        InputRng(seed ^ h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// An exponential variate with the given rate.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// One recorded span: a named call into a layer, with its parent.
#[derive(Debug, Clone)]
struct SpanRec {
    layer: &'static str,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans beyond this many are counted but not kept, so a long traced run
/// stays within a fixed memory budget.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<SpanRec>,
    dropped: u64,
    /// Busy nanoseconds per layer, span durations minus child spans.
    self_ns: BTreeMap<&'static str, u64>,
}

thread_local! {
    /// The calling thread's open spans: (span index, child nanoseconds).
    static OPEN: std::cell::RefCell<Vec<(usize, u64)>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The benchmark's own tracer: spans around calls into each crate, kept
/// in memory and written out when the run ends. Disabled, a span costs
/// one relaxed load.
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    state: Mutex<TraceState>,
}

impl Tracer {
    /// A tracer, recording when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            t0: Instant::now(),
            state: Mutex::new(TraceState::default()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (used to measure the tracer's overhead).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span `name` of `layer`. Spans nest on the calling
    /// thread's own stack, so threads may trace concurrently.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.is_on() {
            return f();
        }
        let start_ns = self.now_ns();
        let parent = OPEN.with(|open| open.borrow().last().map(|&(i, _)| i));
        let index = {
            let mut st = self.state.lock().expect("tracer lock poisoned");
            let index = st.spans.len();
            if index < MAX_SPANS {
                st.spans.push(SpanRec {
                    layer,
                    name,
                    parent,
                    start_ns,
                    end_ns: start_ns,
                });
            } else {
                st.dropped += 1;
            }
            index
        };
        OPEN.with(|open| open.borrow_mut().push((index, 0)));
        let value = f();
        let end_ns = self.now_ns();
        let dur = end_ns - start_ns;
        let child_ns = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (_, child_ns) = open.pop().expect("span stack is balanced");
            if let Some(parent) = open.last_mut() {
                parent.1 += dur;
            }
            child_ns
        });
        let mut st = self.state.lock().expect("tracer lock poisoned");
        *st.self_ns.entry(layer).or_insert(0) += dur.saturating_sub(child_ns);
        if let Some(rec) = st.spans.get_mut(index) {
            rec.end_ns = end_ns;
        }
        value
    }

    /// Busy (self) seconds recorded per layer.
    pub fn busy_seconds(&self) -> BTreeMap<&'static str, f64> {
        let st = self.state.lock().expect("tracer lock poisoned");
        st.self_ns
            .iter()
            .map(|(k, v)| (*k, *v as f64 / 1e9))
            .collect()
    }

    /// Writes the retained spans as JSON lines to `path`, after a header
    /// line carrying `header`.
    pub fn write_to(&self, path: &std::path::Path, header: &Json) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let st = self.state.lock().expect("tracer lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut head = header.clone();
        if let Json::Obj(fields) = &mut head {
            fields.push(("spans".into(), Json::Num(st.spans.len() as f64)));
            fields.push(("dropped_spans".into(), Json::Num(st.dropped as f64)));
        }
        writeln!(out, "{}", head.write().unwrap_or_default())?;
        for (i, s) in st.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"parent":{parent},"layer":"{}","name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted in the run.
    pub attempted: u64,
    /// Operations that failed: errors, unexpected statuses, wrong answers.
    pub failed: u64,
    /// Human-readable notes on each failure (printed to stderr).
    pub failures: Vec<String>,
}

impl Report {
    /// Records a metric, replacing an earlier value of the same name.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    /// Counts one attempted operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Keeps only the metrics named in `names`, in that order, filling
    /// absent ones with 0 (a layer that does no work on this workload).
    pub fn select(&mut self, names: &[(&str, &'static str)]) {
        self.metrics = names
            .iter()
            .map(|&(name, unit)| (name.to_string(), self.get(name).unwrap_or(0.0), unit))
            .collect();
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::str(*unit)),
                    ]),
                )
            })
            .collect();
        let correct = self.failed == 0 && self.attempted > 0 && self.all_finite();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    fn all_finite(&self) -> bool {
        self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }
}

/// Runs a program and returns its trimmed standard output, if it ran.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = std::process::Command::new(program)
        .args(args)
        // Keep git from reporting an enclosing repository's commit when
        // the benchmark runs from a copy that is not a repository itself.
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host fingerprint stamped on every report, so a comparison can be
/// restricted to runs on the same host, toolchain, commit and profile.
pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("rustc".into(), Json::str(rustc)),
        ("commit".into(), Json::str(commit)),
        ("profile".into(), Json::str(profile)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_attributes_self_time_to_layers() {
        let t = Tracer::new(true);
        t.span("outer", "o", || {
            t.span("inner", "i", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let busy = t.busy_seconds();
        assert!(busy["inner"] >= 0.004);
        assert!(busy["outer"] < busy["inner"]);
    }
}
