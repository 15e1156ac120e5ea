//! Metric definitions, statistics, the host block, and the result line.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::gen::bucket_of;
use crate::trace::{self_times_ns, Span, LAYERS};

/// One op's spans by name: `(duration ns, count)`.
type SpanTimes = HashMap<&'static str, (u64, u64)>;

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The frontend passes timed per source byte.
pub const FRONTEND: [&str; 4] = [
    "syntax.parse",
    "syntax.table",
    "core.typeck",
    "runtime.lower",
];

/// Per-layer metrics that are not per-byte frontend rates, printed by a
/// traced run. A metric a workload's path does not pass through reads 0.
pub const PER_LAYER_OTHER: [(&str, &str); 28] = [
    ("core.typeck.obligations", "count"),
    ("runtime.compile.first_run_extra_us", "us"),
    ("runtime.stack.spawn_us", "us"),
    ("runtime.stack.spawns_per_op", "count"),
    ("runtime.exec.steps_per_s", "1/s"),
    ("runtime.exec.warm_run_us", "us"),
    ("cli.render_us", "us"),
    ("cli.process_floor_ms", "ms"),
    ("serve.proto.parse_us", "us"),
    ("serve.proto.parse_ns_per_byte", "ns/B"),
    ("serve.proto.reply_json_us", "us"),
    ("serve.server.submit_us", "us"),
    ("serve.server.reply_wait_us", "us"),
    ("serve.tcp.overhead_us", "us"),
    ("workloads.cache.hit_ratio", "ratio"),
    ("workloads.cache.lookup_us", "us"),
    ("workloads.cache.evictions", "count"),
    ("workloads.batch.steals", "count"),
    ("workloads.batch.chunks_claimed", "count"),
    ("workloads.batch.job_us_p50", "us"),
    ("serve.server.shed.overloaded", "count"),
    ("serve.server.shed.rate_limited", "count"),
    ("serve.server.shed.energy_budget", "count"),
    ("serve.server.shed.quarantined", "count"),
    ("serve.server.shed.fallback", "count"),
    ("serve.server.compile_errors", "count"),
    ("serve.server.runtime_errors", "count"),
    ("op.uncovered_us", "us"),
];

/// Every per-layer metric name and unit, in output order.
#[must_use]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for pass in FRONTEND {
        out.push((format!("{pass}.ns_per_byte"), "ns/B"));
        for (bucket, _) in crate::gen::SIZE_BUCKETS {
            out.push((format!("{pass}.ns_per_byte.{bucket}"), "ns/B"));
        }
    }
    out.extend(PER_LAYER_OTHER.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of unsorted values without their lowest and highest (the plain
/// mean when there are fewer than three; 0 when empty).
#[must_use]
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() >= 3 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Median of unsorted values (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// This process's peak resident set (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set (Linux 4.0
/// and later), so memory used before the call — the oracle's runs — does
/// not count in [`peak_rss_mb`]. `false` when the kernel refused.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s, then fourteen `long`s, the first of which is `ru_maxrss`.
#[repr(C)]
struct Rusage {
    times: [std::ffi::c_long; 4],
    maxrss_kb: std::ffi::c_long,
    rest: [std::ffi::c_long; 13],
}

extern "C" {
    fn getrusage(who: std::ffi::c_int, usage: *mut Rusage) -> std::ffi::c_int;
}

/// The largest peak resident set of any child process this process has
/// waited for (`getrusage(RUSAGE_CHILDREN).ru_maxrss`), in MB; 0 when
/// the call fails.
#[must_use]
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: std::ffi::c_int = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` for the call.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return 0.0;
    }
    usage.maxrss_kb as f64 / 1024.0
}

/// Time slices a window is cut into: the rate and the percentiles are
/// trimmed means over slices, so one slice's stall does not move them.
/// A median over slices would be steadier against stalls, but on the host
/// this was tuned on, speed shifts between two states some seconds apart,
/// and a median jumps between them where a trimmed mean moves in
/// proportion to the time spent in each.
pub const SLICES: usize = 10;

/// Samples a slice needs before its p99 counts: ten above the p99.
const P99_SAMPLES: usize = 1000;

/// What one timed window measured.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Latency of every completed op, in microseconds.
    pub latencies_us: Vec<f64>,
    /// When each completed op finished, in seconds since the window began.
    pub done_s: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused, or differ from the oracle.
    pub failed: u64,
    /// Wall time of the window, in seconds.
    pub elapsed_s: f64,
}

impl Window {
    /// Records one completed op that took `latency` and finished now.
    pub fn record(&mut self, start: Instant, latency: Duration) {
        self.latencies_us.push(latency.as_secs_f64() * 1e6);
        self.done_s.push(start.elapsed().as_secs_f64());
    }

    /// Latencies grouped into `n` equal time slices by when their op
    /// finished.
    fn slices(&self, n: usize) -> Vec<Vec<f64>> {
        let mut slices = vec![Vec::new(); n];
        for (&lat, &done) in self.latencies_us.iter().zip(&self.done_s) {
            let k = (done / self.elapsed_s * n as f64) as usize;
            slices[k.min(n - 1)].push(lat);
        }
        slices
    }

    /// Each slice's completed ops per second.
    #[must_use]
    pub fn slice_rates(&self) -> Vec<f64> {
        if self.elapsed_s <= 0.0 {
            return Vec::new();
        }
        let slice_s = self.elapsed_s / SLICES as f64;
        self.slices(SLICES)
            .iter()
            .map(|s| s.len() as f64 / slice_s)
            .collect()
    }

    /// Each non-empty slice's `q` latency percentile, over `n` slices.
    #[must_use]
    pub fn slice_percentiles(&self, n: usize, q: f64) -> Vec<f64> {
        self.slices(n)
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|mut s| {
                s.sort_by(f64::total_cmp);
                percentile(&s, q)
            })
            .collect()
    }

    /// Completed ops per second: the trimmed mean over slices.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        trimmed_mean(&self.slice_rates())
    }

    /// `(p50, p99)` latency in microseconds: the trimmed mean over slices
    /// of each slice's percentile. p99 uses fewer, longer slices when
    /// needed so that each holds at least ten samples above its p99.
    #[must_use]
    pub fn p50_p99(&self) -> (f64, f64) {
        let p99_slices = (self.latencies_us.len() / P99_SAMPLES).clamp(1, SLICES);
        (
            trimmed_mean(&self.slice_percentiles(SLICES, 0.5)),
            trimmed_mean(&self.slice_percentiles(p99_slices, 0.99)),
        )
    }

    /// Appends `next`, a window timed after this one, as if it had begun
    /// when this one ended: time spent between the two does not count.
    pub fn append(&mut self, next: Window) {
        let offset = self.elapsed_s;
        self.latencies_us.extend(next.latencies_us);
        self.done_s.extend(next.done_s.iter().map(|d| d + offset));
        self.attempted += next.attempted;
        self.failed += next.failed;
        self.elapsed_s += next.elapsed_s;
    }

    /// This window with every time multiplied by `k`: latencies, finish
    /// times and the window's length.
    #[must_use]
    pub fn scaled(mut self, k: f64) -> Window {
        for v in self.latencies_us.iter_mut().chain(self.done_s.iter_mut()) {
            *v *= k;
        }
        self.elapsed_s *= k;
        self
    }

    /// Appends `other`'s ops (from a client that ran over the same window).
    pub fn merge(&mut self, other: Window) {
        self.latencies_us.extend(other.latencies_us);
        self.done_s.extend(other.done_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }
}

/// The end-to-end metrics of an untraced window.
#[must_use]
pub fn end_to_end(window: &Window, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let (p50, p99) = window.p50_p99();
    let values = [window.ops_per_s(), p50, p99, setup_s, peak_rss_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect()
}

/// The host block every result carries: results only compare within one
/// host and one build. `nproc` is the CPUs this process may run on (what
/// the workloads size their pools by); `host_cpus` is the machine's.
#[must_use]
pub fn host_json(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let host_cpus = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or_else(
            || "unknown".to_string(),
            |rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string(),
        );
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"host_cpus\": {host_cpus}, \"cpu\": \"{}\", \"rustc\": \"{}\", \
         \"seed\": {seed}}}",
        ent_runtime::json_escape(&cpu),
        ent_runtime::json_escape(&rustc)
    )
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
#[must_use]
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// The last line of a run's standard output.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// Root span name of each span (`op` for the measured path, `probe` for
/// the benchmark's extra calls that isolate one layer).
fn roots(spans: &[Span]) -> Vec<&'static str> {
    let mut root_of: HashMap<(u32, u32), &'static str> = HashMap::new();
    spans
        .iter()
        .map(|s| {
            let root = if s.parent == 0 {
                s.name
            } else {
                root_of.get(&(s.tid, s.parent)).copied().unwrap_or(s.name)
            };
            root_of.insert((s.tid, s.id), root);
            root
        })
        .collect()
}

/// Per-root, per-layer self time: `(root, layer) -> (spans, total ns)`.
#[must_use]
pub fn self_time_table(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), (u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut table = BTreeMap::new();
    for ((s, root), self_ns) in spans.iter().zip(roots(spans)).zip(selfs) {
        let e = table.entry((root, s.layer())).or_insert((0, 0));
        e.0 += 1;
        e.1 += self_ns;
    }
    table
}

fn durs_us<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<f64> {
    spans.map(|s| s.dur_ns() as f64 / 1e3).collect()
}

/// Derives the per-layer metrics from a traced run's spans, plus the
/// counter readings (`extras`) that are not spans.
#[must_use]
pub fn per_layer(spans: &[Span], ops: u64, extras: &BTreeMap<&str, f64>) -> Vec<Metric> {
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();

    for pass in FRONTEND {
        let rate = |filter: &dyn Fn(&Span) -> bool| {
            let (ns, bytes) = named(pass)
                .filter(|s| filter(s))
                .fold((0u64, 0u64), |(n, b), s| (n + s.dur_ns(), b + s.bytes));
            if bytes == 0 {
                0.0
            } else {
                ns as f64 / bytes as f64
            }
        };
        values.insert(format!("{pass}.ns_per_byte"), rate(&|_| true));
        for (bucket, _) in crate::gen::SIZE_BUCKETS {
            values.insert(
                format!("{pass}.ns_per_byte.{bucket}"),
                rate(&|s| bucket_of(s.bytes as usize) == bucket),
            );
        }
    }
    let typeck: Vec<&Span> = named("core.typeck").collect();
    if !typeck.is_empty() {
        let total: u64 = typeck.iter().map(|s| s.count).sum();
        values.insert(
            "core.typeck.obligations".into(),
            total as f64 / typeck.len() as f64,
        );
    }

    // Per-op pairings: the first `cli.run_prepared` of a freshly lowered
    // program against a warm one, and a warm `run_prepared` against a warm
    // `run_lowered` of the same program.
    // (tid, op) -> span name -> (duration ns, count)
    let mut by_op: HashMap<(u32, u64), SpanTimes> = HashMap::new();
    for s in spans {
        by_op
            .entry((s.tid, s.op))
            .or_default()
            .insert(s.name, (s.dur_ns(), s.count));
    }
    let mut first_extra = Vec::new();
    let mut render = Vec::new();
    for names in by_op.values() {
        let warm_prepared = names.get("cli.run_prepared.warm").map(|&(d, _)| d as f64);
        if let (Some(&(first, 1)), Some(warm)) = (names.get("cli.run_prepared"), warm_prepared) {
            first_extra.push((first as f64 - warm) / 1e3);
        }
        if let (Some(&(exec, _)), Some(warm)) = (names.get("runtime.exec.warm"), warm_prepared) {
            render.push((warm - exec as f64) / 1e3);
        }
    }
    values.insert(
        "runtime.compile.first_run_extra_us".into(),
        median(&first_extra),
    );
    values.insert("cli.render_us".into(), median(&render));

    let stacks: Vec<&Span> = named("runtime.stack").collect();
    let selfs = self_times_ns(spans);
    let spawn_self: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "runtime.stack" && s.count == 1)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();
    values.insert("runtime.stack.spawn_us".into(), median(&spawn_self));
    if !stacks.is_empty() {
        let spawns: u64 = stacks.iter().map(|s| s.count).sum();
        values.insert(
            "runtime.stack.spawns_per_op".into(),
            spawns as f64 / stacks.len() as f64,
        );
    }
    let warm: Vec<&Span> = named("runtime.exec.warm").collect();
    let warm_ns: u64 = warm.iter().map(|s| s.dur_ns()).sum();
    if warm_ns > 0 {
        let steps: u64 = warm.iter().map(|s| s.count).sum();
        values.insert(
            "runtime.exec.steps_per_s".into(),
            steps as f64 / (warm_ns as f64 / 1e9),
        );
    }
    values.insert(
        "runtime.exec.warm_run_us".into(),
        median(&durs_us(warm.into_iter())),
    );

    values.insert(
        "serve.proto.parse_us".into(),
        median(&durs_us(named("serve.proto.parse"))),
    );
    let (parse_ns, parse_bytes) =
        named("serve.proto.parse").fold((0u64, 0u64), |(n, b), s| (n + s.dur_ns(), b + s.bytes));
    if parse_bytes > 0 {
        values.insert(
            "serve.proto.parse_ns_per_byte".into(),
            parse_ns as f64 / parse_bytes as f64,
        );
    }
    values.insert(
        "serve.proto.reply_json_us".into(),
        median(&durs_us(named("serve.proto.reply_json"))),
    );
    let submit = durs_us(named("serve.server.submit"));
    let wait = durs_us(named("serve.server.wait"));
    values.insert("serve.server.submit_us".into(), median(&submit));
    values.insert("serve.server.reply_wait_us".into(), median(&wait));
    let tcp = durs_us(named("serve.tcp"));
    if !tcp.is_empty() && !submit.is_empty() {
        let in_process: Vec<f64> = submit.iter().zip(&wait).map(|(a, b)| a + b).collect();
        values.insert(
            "serve.tcp.overhead_us".into(),
            median(&tcp) - median(&in_process),
        );
    }
    values.insert(
        "workloads.cache.lookup_us".into(),
        median(&durs_us(named("workloads.cache"))),
    );

    let uncovered: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "op")
        .map(|(_, &ns)| ns)
        .sum();
    if ops > 0 {
        values.insert(
            "op.uncovered_us".into(),
            uncovered as f64 / 1e3 / ops as f64,
        );
    }
    for (name, value) in extras {
        values.insert((*name).to_string(), *value);
    }

    per_layer_names()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect()
}

/// Renders the per-root self-time table as text: one row per layer with
/// its span count, total self time, self time per root span (per op for
/// `op`, per replayed job for `probe`, per program for `setup`, per pass
/// for `workloads.batch`), and share of the root's total.
#[must_use]
pub fn render_self_times(spans: &[Span]) -> String {
    let table = self_time_table(spans);
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for (&(root, _), &(_, ns)) in &table {
        *totals.entry(root).or_default() += ns;
    }
    let mut root_spans: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == 0) {
        *root_spans.entry(s.name).or_default() += 1;
    }
    let mut out = String::new();
    let stacks: Vec<&Span> = spans.iter().filter(|s| s.name == "runtime.stack").collect();
    let _ = writeln!(
        out,
        "runtime.stack probes: {}, of which spawned a thread: {}",
        stacks.len(),
        stacks.iter().filter(|s| s.count == 1).count()
    );
    let _ = writeln!(
        out,
        "{:<16} {:<18} {:>9} {:>14} {:>13} {:>7}",
        "root", "layer", "spans", "self_total_us", "self_us/root", "share"
    );
    for ((root, layer), (count, ns)) in &table {
        let total = totals.get(root).copied().unwrap_or(1).max(1);
        let per_root = root_spans.get(root).copied().unwrap_or(1).max(1);
        let label = if layer == root && !LAYERS.contains(layer) {
            "(uncovered)"
        } else {
            layer
        };
        let _ = writeln!(
            out,
            "{root:<16} {label:<18} {count:>9} {:>14.1} {:>13.2} {:>6.1}%",
            *ns as f64 / 1e3,
            *ns as f64 / 1e3 / per_root as f64,
            *ns as f64 * 100.0 / total as f64
        );
    }
    out
}
