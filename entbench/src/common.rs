//! Pieces the workloads share: run reports, seeding, and the traced
//! in-process replica of `ent_cli::execute`'s `run` path, one public call
//! per layer.

use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

use ent_cli::{run_prepared, Options, RunOutcome};
use ent_core::{typecheck_obligations, CompiledProgram};
use ent_energy::Platform;
use ent_runtime::{
    default_stack_size, lower_program, run_lowered, with_interp_stack, Enforcement, LoweredProgram,
    ProfileMode, RuntimeConfig, TierUp,
};
use ent_syntax::{parse_program, ClassTable};

use crate::report::Window;
use crate::trace::{Span, Tracer};

/// What a workload run measured.
#[derive(Default)]
pub struct RunReport {
    /// The untraced window: the end-to-end numbers.
    pub window: Window,
    /// Median set-up time, in seconds.
    pub setup_s: f64,
    /// Peak RSS after the untraced window, in MB.
    pub peak_rss_mb: f64,
    /// The traced window, when tracing was on.
    pub traced: Option<Traced>,
    /// Free-form `key: value` notes for the result file.
    pub notes: Vec<(String, String)>,
    /// Each host-speed reading ([`host_speed`], or [`process_host_speed`]
    /// for `cli_cold`), one before each part of the untraced window, after
    /// the set-up stretch that precedes it.
    pub host_speed: Vec<f64>,
}

/// What the traced window recorded.
#[derive(Default)]
pub struct Traced {
    /// The traced window's own end-to-end numbers (for the overhead).
    pub window: Window,
    /// Every span, all threads.
    pub spans: Vec<Span>,
    /// Ops the traced window ran.
    pub ops: u64,
    /// Per-layer readings taken from counters rather than spans.
    pub extras: BTreeMap<&'static str, f64>,
}

/// How the run's time budget splits: the whole budget untraced, or half
/// untraced (the overhead baseline) and half traced.
#[must_use]
pub fn phases(seconds: f64, trace: bool) -> (Duration, Duration) {
    if trace {
        let half = Duration::from_secs_f64(seconds / 2.0);
        (half, half)
    } else {
        (Duration::from_secs_f64(seconds), Duration::ZERO)
    }
}

/// Mixes a seed with a stream label and an index (splitmix64 finalizer).
#[must_use]
pub fn mix(seed: u64, label: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(label.rotate_left(24))
        .wrapping_add(index.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Set-up is timed in this many stretches of repetitions, spread over the
/// run: the first is the set-up the window runs on, and each later one
/// runs between two parts of the untraced window, outside their timing.
/// `setup_s` is the median over every repetition. On the host this was
/// tuned on, speed on the same work holds for seconds at a time and then
/// shifts by up to 40%, so set-up timed in one stretch read whichever
/// state that stretch fell in, while the window's figures average over
/// the whole run.
pub const SETUP_STRETCHES: u32 = 10;

/// The untraced window's share between two set-up stretches.
#[must_use]
pub fn window_part(untraced: Duration) -> Duration {
    untraced / SETUP_STRETCHES
}

/// [`calibrate`]'s reading on the host this benchmark was tuned on (a
/// 2-vCPU Intel Xeon VM at 2.0 GHz) in its usual, slower state, in
/// seconds. The end-to-end times are reported at this host speed.
pub const CALIBRATION_REF_S: f64 = 0.0035;

/// Times a fixed piece of CPU work that calls none of the repository's
/// code, so no change to the program moves it: the median of seven
/// repetitions, in seconds. The work is an interpreter-like loop: a
/// pseudo-random op code picks one of eight register operations, so it
/// runs from registers and L1 and mispredicts its branches the way a
/// dispatch loop does. It allocates nothing and touches no table: on the
/// tuning host a version that allocated read up to 1.5 times faster once
/// the heap had grown, and one that chased pointers through 1 MiB spread
/// over a factor of seven with the cache's state.
///
/// On the tuning host the whole machine's speed on the same work holds
/// for a minute or two and then shifts by a factor of up to 1.6, for
/// every workload alike, so whole runs fell in the fast or the slow state
/// and no estimate within a run could hide it. Readings taken between the
/// window's parts follow that state; see [`run_speed`].
#[must_use]
pub fn calibrate() -> f64 {
    let (times, _) = timed_reps(7, |_| {
        std::hint::black_box(dispatch_loop(std::hint::black_box(200_000)))
    });
    crate::report::median(&times)
}

fn dispatch_loop(steps: u64) -> u64 {
    let mut x = 0x1234_5678_u64;
    let mut acc = 0u64;
    let mut regs = [0u64; 8];
    for _ in 0..steps {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = ((x >> 58) & 7) as usize;
        match x >> 61 {
            0 => regs[r] = regs[r].wrapping_add(x),
            1 => regs[r] ^= x >> 7,
            2 => regs[r] = regs[r].rotate_left(3),
            3 => {
                if regs[r] & 1 == 0 {
                    acc = acc.wrapping_add(regs[r]);
                } else {
                    acc ^= regs[r];
                }
            }
            4 => regs[r] = regs[(r + 1) & 7].wrapping_sub(regs[r]),
            5 => acc = acc.wrapping_mul(regs[r] | 1),
            6 => regs[r] /= (x >> 40) | 1,
            _ => regs[r] = acc,
        }
    }
    regs.iter().fold(acc, |a, b| a ^ b)
}

/// How fast the host runs now, relative to the reference state:
/// [`CALIBRATION_REF_S`] over one [`calibrate`] reading. Above 1 means
/// faster.
#[must_use]
pub fn host_speed() -> f64 {
    CALIBRATION_REF_S / calibrate()
}

/// [`fault_calibrate`]'s reading on the tuning host in its usual state,
/// in seconds.
pub const FAULT_CALIBRATION_REF_S: f64 = 0.006;

/// Times a fixed piece of kernel work: mapping 48 MiB (above the largest
/// size the allocator serves from its heap, so every repetition maps
/// fresh memory), faulting in its first 2048 pages, and unmapping it —
/// the memory management that dominates starting a process. The median
/// of seven repetitions, in seconds.
///
/// The process's peak resident set is reset afterwards: a child started
/// with `vfork` semantics, as `Command::spawn` starts `ent`, reports its
/// parent's peak as its own, so the 8 MiB faulted in here would otherwise
/// read as the `ent` processes' memory in `cli_cold`'s `peak_rss_mb`.
#[must_use]
pub fn fault_calibrate() -> f64 {
    let (times, _) = timed_reps(7, |_| {
        let mut pages = vec![0u8; 48 << 20];
        for i in (0..8 << 20).step_by(4096) {
            pages[i] = 1;
        }
        std::hint::black_box(pages[4096])
    });
    crate::report::reset_peak_rss();
    crate::report::median(&times)
}

/// How fast the host runs work that is half user code and half kernel
/// memory management, like starting and running an `ent` process: the
/// geometric mean of [`host_speed`] and [`FAULT_CALIBRATION_REF_S`] over
/// one [`fault_calibrate`] reading. On the tuning host a whole run of
/// `cli_cold` moved with the host's state by up to 1.47 times while the
/// CPU reading moved 1.31 and the fault reading 1.50 times, and `ent run`
/// spent 48% of its time in user code and 52% in the kernel.
#[must_use]
pub fn process_host_speed() -> f64 {
    (host_speed() * FAULT_CALIBRATION_REF_S / fault_calibrate()).sqrt()
}

/// The host speed of a run: the median of its host-speed readings
/// (1 when there are none). The median, because one reading now and then
/// lands on a moment of contention and reads half the speed.
#[must_use]
pub fn run_speed(readings: &[f64]) -> f64 {
    if readings.is_empty() {
        1.0
    } else {
        crate::report::median(readings)
    }
}

/// Runs `f` `reps` times and returns each run's wall time in seconds and
/// the last result (earlier results are dropped outside the timing).
pub fn timed_reps<R>(reps: usize, mut f: impl FnMut(usize) -> R) -> (Vec<f64>, R) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps.max(1) {
        let t = Instant::now();
        let result = f(rep);
        times.push(t.elapsed().as_secs_f64());
        last = Some(result);
    }
    (times, last.expect("at least one repetition"))
}

/// The `(platform, config)` `ent_cli::run_prepared` builds from flag-less
/// `Options` — every `Options` the benchmark runs, whether from `run
/// <file>` or from a request without flags — so the benchmark can time
/// the bare `run_lowered` call it wraps. Keep it in step with
/// `run_prepared`.
#[must_use]
pub fn run_config() -> (Platform, RuntimeConfig) {
    let config = RuntimeConfig {
        profile: ProfileMode::from_env(),
        tier_up: TierUp::from_env(),
        enforcement: Enforcement::from_env(),
        ..RuntimeConfig::default()
    };
    (Platform::system_a(), config)
}

/// Parses, builds the class table, and typechecks `src` (the three calls
/// `ent_core::compile` makes), then lowers it when `lower` is set — each
/// call in its own span. `None` when the source does not compile.
pub fn traced_frontend(
    t: &mut Tracer,
    op: u64,
    src: &str,
    lower: bool,
) -> Option<Option<LoweredProgram>> {
    let bytes = src.len() as u64;
    let s = t.begin("syntax.parse", op);
    let program = parse_program(src);
    t.end(s, bytes, 0);
    let program = program.ok()?;
    let s = t.begin("syntax.table", op);
    let table = ClassTable::new(&program);
    t.end(s, bytes, 0);
    let table = table.ok()?;
    let s = t.begin("core.typeck", op);
    let obligations = typecheck_obligations(&program, &table);
    let count = obligations.as_ref().map_or(0, |o| o.len() as u64);
    t.end(s, bytes, count);
    let compiled = CompiledProgram {
        program,
        table,
        obligations: obligations.ok()?,
    };
    if !lower {
        return Some(None);
    }
    let s = t.begin("runtime.lower", op);
    let lowered = lower_program(&compiled);
    t.end(s, bytes, 0);
    Some(Some(lowered))
}

/// `run_prepared` on an interpreter stack, the way `run_lowered` gets one:
/// `runtime.stack` spans the `with_interp_stack` call (its count is 1 when
/// the call spawned a thread), `cli.run_prepared` the run and render
/// inside it (its count is 1 when `first` says the program is freshly
/// lowered).
pub fn traced_run(
    t: &mut Tracer,
    op: u64,
    options: &Options,
    lowered: &LoweredProgram,
    first: bool,
) -> RunOutcome {
    let caller = thread::current().id();
    let stack = t.begin("runtime.stack", op);
    let (spawned, outcome) = with_interp_stack(stack_size(options), || {
        let spawned = thread::current().id() != caller;
        let s = t.begin("cli.run_prepared", op);
        let outcome = run_prepared(options, lowered);
        t.end(s, 0, u64::from(first));
        (spawned, outcome)
    });
    t.end(stack, 0, u64::from(spawned));
    outcome
}

/// The warm-run probe, rooted at its own `probe` span after the op: after
/// one untimed warm-up run, one bare `run_lowered` (`runtime.exec.warm`,
/// count = steps) and one `run_prepared` (`cli.run_prepared.warm`) of the
/// same program, all on one interpreter stack. Their difference is the
/// render cost; the op's first `run_prepared` minus the warm one is the
/// first-run compile cost.
pub fn probe_warm(t: &mut Tracer, op: u64, options: &Options, lowered: &LoweredProgram) {
    let (platform, config) = run_config();
    let root = t.begin("probe", op);
    let stack = t.begin("probe.stack", op);
    with_interp_stack(stack_size(options), || {
        // The second run of a program is still slower than later ones;
        // without this, render cost (a few microseconds) reads negative.
        let _ = run_lowered(lowered, platform.clone(), config.clone());
        let s = t.begin("runtime.exec.warm", op);
        let result = run_lowered(lowered, platform, config);
        t.end(s, 0, result.stats.steps);
        let s = t.begin("cli.run_prepared.warm", op);
        let _ = run_prepared(options, lowered);
        t.end(s, 0, 0);
    });
    t.end(stack, 0, 0);
    t.end(root, 0, 0);
}

fn stack_size(options: &Options) -> usize {
    options.stack_size.unwrap_or_else(default_stack_size)
}
