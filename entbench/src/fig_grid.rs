//! `fig_grid`: the fig9 E1 grid, the fig8 chaos cells (faults on), and
//! the fig6 E2 overhead pairs, prepared once in set-up and then run in
//! repeated passes through the batch engine at `jobs = nproc`.
//!
//! An op is one cell. Batch workers keep one interpreter stack for their
//! whole life, so after set-up this workload does no frontend work and
//! spawns no stack per op: it measures execution and the scheduler.
//!
//! Set-up builds every program the grid needs exactly as `prepare_e1` /
//! `prepare_e2` do (generate, compile, lower, pick the default engine)
//! but without the process-wide program cache, so each repetition
//! compiles: [`SETUP_REPS`] of them in each of the [`SETUP_STRETCHES`]
//! stretches, the first before the passes and the rest between parts of
//! them; `setup_s` is the median repetition. Before
//! set-up, the oracle runs every cell once on the tree walker; each op's
//! outcome must equal its cell's, bit for bit. `peak_rss_mb` is reset
//! after the oracle and read after one untimed pass, so it covers set-up
//! and a pass but not the window's growing per-op samples.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ent_bench::{e_benchmarks, VIOLATING_COMBOS};
use ent_energy::{FaultPlan, Platform, PlatformKind};
use ent_runtime::{default_stack_size, lower_program, with_interp_stack, Engine, RuntimeConfig};
use ent_workloads::{
    all_benchmarks, battery_for_boot, default_enforcement, default_engine_for, default_tier_up,
    e1_program, e2_program, lowered_cache_stats, platform_for, platform_of,
    run_batch_outcomes_with_telemetry, run_e1_chaos_prepared, run_e1_prepared,
    run_overhead_pair_prepared, source_fingerprint, BatchPolicy, BenchmarkSpec, ChaosOutcome,
    Outcome, PreparedProgram,
};

use crate::common::{
    host_speed, phases, timed_reps, traced_frontend, window_part, RunReport, Traced,
    SETUP_STRETCHES,
};
use crate::report::{median, peak_rss_mb, reset_peak_rss, Window};
use crate::trace::{Span, Tracer};

/// Set-up repetitions in each stretch: about 0.2 s of them on a 2 GHz
/// Xeon.
const SETUP_REPS: usize = 20;
const SYSTEMS: [PlatformKind; 3] = [
    PlatformKind::SystemA,
    PlatformKind::SystemB,
    PlatformKind::SystemC,
];

/// Workload settings.
pub struct Config {
    /// Input seed: moves every cell's run seed and fault seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether to add the traced window.
    pub trace: bool,
}

/// One grid cell: a program and the run it makes.
#[derive(Clone, Debug)]
enum Cell {
    /// A fig9 E1 run (ENT, silent, or the silent full-throttle reference).
    E1 {
        prog: usize,
        boot: usize,
        silent: bool,
        seed: u64,
    },
    /// A fig8 run with the chaos fault plan installed.
    Chaos {
        prog: usize,
        boot: usize,
        silent: bool,
        seed: u64,
        fault_seed: u64,
    },
    /// A fig6 E2 tagged/untagged overhead pair.
    Pair {
        prog: usize,
        system: PlatformKind,
        seed: u64,
    },
}

/// A cell's observable outcome.
#[derive(Clone, Debug, PartialEq)]
enum CellOut {
    E1(Outcome),
    Chaos(ChaosOutcome),
    Pair(u64, u64),
}

/// The grid: its distinct programs (by `(e2, system, name, workload)`)
/// and its cells.
struct Grid {
    keys: Vec<(bool, PlatformKind, &'static str, usize)>,
    cells: Vec<Cell>,
}

impl Grid {
    fn new(seed: u64) -> Grid {
        let mut keys = Vec::new();
        let mut index: HashMap<(bool, PlatformKind, &'static str, usize), usize> = HashMap::new();
        let mut prog = |key| {
            *index.entry(key).or_insert_with(|| {
                keys.push(key);
                keys.len() - 1
            })
        };
        let s = seed % 1000 + 1;
        let mut cells = Vec::new();
        for system in SYSTEMS {
            for spec in e_benchmarks(system) {
                for (boot, workload) in VIOLATING_COMBOS {
                    let p = prog((false, system, spec.name, workload));
                    for (boot, silent, salt) in
                        [(boot, false, 1), (boot, true, 5003), (2, true, 9001)]
                    {
                        cells.push(Cell::E1 {
                            prog: p,
                            boot,
                            silent,
                            seed: s * 17 + salt,
                        });
                    }
                }
            }
        }
        for spec in e_benchmarks(PlatformKind::SystemA) {
            for workload in 0..3 {
                let p = prog((false, PlatformKind::SystemA, spec.name, workload));
                for boot in 0..3 {
                    for silent in [false, true] {
                        let fault_seed = seed.wrapping_add(cells.len() as u64);
                        cells.push(Cell::Chaos {
                            prog: p,
                            boot,
                            silent,
                            seed: 131 + s,
                            fault_seed,
                        });
                    }
                }
            }
        }
        for spec in all_benchmarks() {
            let system = spec.primary_platform();
            let p = prog((true, system, spec.name, 1));
            let salt: u64 = spec
                .name
                .bytes()
                .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
            cells.push(Cell::Pair {
                prog: p,
                system,
                seed: s * 31 + 7 + salt,
            });
        }
        Grid { keys, cells }
    }

    /// Every program's platform and source.
    fn sources(&self) -> Vec<(BenchmarkSpec, Platform, String)> {
        let specs: HashMap<&str, BenchmarkSpec> =
            all_benchmarks().into_iter().map(|s| (s.name, s)).collect();
        self.keys
            .iter()
            .map(|&(e2, system, name, workload)| {
                let spec = specs[name].clone();
                let platform = platform_for(&spec, system);
                let src = if e2 {
                    e2_program(&spec, &platform, workload)
                } else {
                    e1_program(&spec, &platform, workload)
                };
                (spec, platform, src)
            })
            .collect()
    }

    /// Builds every program: what `prepare_e1` / `prepare_e2` do, minus
    /// the program cache.
    fn prepare(&self) -> Vec<PreparedProgram> {
        self.sources()
            .into_iter()
            .map(|(spec, platform, src)| {
                let fingerprint = source_fingerprint(&src);
                let compiled = ent_core::compile(&src).expect("fig programs compile");
                PreparedProgram {
                    name: spec.name,
                    platform,
                    lowered: Arc::new(lower_program(&compiled)),
                    engine: default_engine_for(fingerprint),
                    tier_up: default_tier_up(),
                    enforcement: default_enforcement(),
                    fingerprint,
                }
            })
            .collect()
    }
}

fn run_cell(progs: &[PreparedProgram], cell: &Cell, plan: &FaultPlan) -> CellOut {
    match *cell {
        Cell::E1 {
            prog,
            boot,
            silent,
            seed,
        } => CellOut::E1(run_e1_prepared(&progs[prog], boot, silent, seed)),
        Cell::Chaos {
            prog,
            boot,
            silent,
            seed,
            fault_seed,
        } => CellOut::Chaos(run_e1_chaos_prepared(
            &progs[prog],
            boot,
            silent,
            seed,
            Some(plan.clone()),
            fault_seed,
        )),
        Cell::Pair { prog, system, seed } => {
            let (tagged, plain) = run_overhead_pair_prepared(&progs[prog], system, seed);
            CellOut::Pair(tagged.to_bits(), plain.to_bits())
        }
    }
}

/// Interpreter steps a cell executes, from the same configurations the
/// `run_*_prepared` calls build (traced set-up only).
fn cell_steps(progs: &[PreparedProgram], cell: &Cell, plan: &FaultPlan) -> u64 {
    let e1 = |boot, silent, seed| RuntimeConfig {
        silent,
        battery_level: battery_for_boot(boot),
        seed,
        ..RuntimeConfig::default()
    };
    match *cell {
        Cell::E1 {
            prog,
            boot,
            silent,
            seed,
        } => progs[prog].run(e1(boot, silent, seed)).stats.steps,
        Cell::Chaos {
            prog,
            boot,
            silent,
            seed,
            fault_seed,
        } => {
            let config = RuntimeConfig {
                faults: Some(plan.clone()),
                fault_seed,
                ..e1(boot, silent, seed)
            };
            progs[prog].run(config).stats.steps
        }
        Cell::Pair { prog, system, seed } => {
            let base = e1(1, false, seed);
            let tagged = progs[prog].run_on(platform_of(system), base.clone());
            let plain = progs[prog].run(RuntimeConfig {
                tagging: false,
                seed: seed + 1000,
                ..base
            });
            tagged.stats.steps + plain.stats.steps
        }
    }
}

/// Everything a pass loop needs.
struct Bench<'a> {
    progs: &'a [PreparedProgram],
    cells: &'a [(usize, Cell)],
    expected: &'a [CellOut],
    plan: &'a FaultPlan,
    jobs: usize,
}

/// What a window of passes measured.
#[derive(Default)]
struct Passes {
    window: Window,
    spans: Vec<Span>,
    passes: u64,
    steals: u64,
    chunks: u64,
}

impl Bench<'_> {
    /// Runs whole passes over the grid until `budget` is spent. Traced
    /// passes record an `op` span per cell (with a `runtime.stack` probe
    /// showing whether the cell's run would spawn a stack, and the run as
    /// `runtime.exec.warm`) and a `workloads.batch` span per pass.
    fn passes(&self, budget: Duration, trace: Option<(Instant, &[u64])>) -> Passes {
        let policy = BatchPolicy::default();
        let mut out = Passes::default();
        let mut main = trace.map(|(epoch, _)| Tracer::new(epoch, 0));
        let n = self.cells.len() as u64;
        let start = Instant::now();
        while start.elapsed() < budget {
            let pass = out.passes;
            let batch = main.as_mut().map(|t| t.begin("workloads.batch", pass));
            let (results, telemetry) = run_batch_outcomes_with_telemetry(
                self.jobs,
                self.cells,
                &policy,
                |(i, cell), _attempt| {
                    let op = pass * n + *i as u64;
                    let Some((epoch, steps)) = trace else {
                        let t = Instant::now();
                        let got = run_cell(self.progs, cell, self.plan);
                        return (got, t.elapsed(), Vec::new());
                    };
                    let mut t = Tracer::new(epoch, 1 + op as u32);
                    let root = t.begin("op", op);
                    let caller = thread::current().id();
                    let s = t.begin("runtime.stack", op);
                    let spawned = with_interp_stack(default_stack_size(), || {
                        thread::current().id() != caller
                    });
                    t.end(s, 0, u64::from(spawned));
                    let s = t.begin("runtime.exec.warm", op);
                    let got = run_cell(self.progs, cell, self.plan);
                    t.end(s, 0, steps[*i]);
                    t.end(root, 0, 0);
                    let spans = t.into_spans();
                    (got, Duration::from_nanos(spans[0].dur_ns()), spans)
                },
            );
            if let (Some(t), Some(b)) = (main.as_mut(), batch) {
                t.end(b, 0, telemetry.steals);
            }
            for (i, result) in results.into_iter().enumerate() {
                out.window.attempted += 1;
                match result {
                    Ok((got, took, spans)) => {
                        out.window.record(start, took);
                        if got != self.expected[i] {
                            out.window.failed += 1;
                        }
                        out.spans.extend(spans);
                    }
                    Err(_) => out.window.failed += 1,
                }
            }
            out.passes += 1;
            out.steals += telemetry.steals;
            out.chunks += telemetry.chunks_claimed;
        }
        out.window.elapsed_s = start.elapsed().as_secs_f64();
        if let Some(t) = main {
            out.spans.extend(t.into_spans());
        }
        out
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> RunReport {
    let (untraced, traced) = phases(cfg.seconds, cfg.trace);
    let grid = Grid::new(cfg.seed);
    let mut report = RunReport::default();
    let plan = FaultPlan::chaos();
    let tree: Vec<PreparedProgram> = grid
        .prepare()
        .into_iter()
        .map(|p| p.with_engine(Engine::Tree))
        .collect();
    let expected: Vec<CellOut> = grid
        .cells
        .iter()
        .map(|c| with_interp_stack(default_stack_size(), || run_cell(&tree, c, &plan)))
        .collect();
    drop(tree);
    if !reset_peak_rss() {
        report
            .notes
            .push(("peak_rss_includes_oracle".into(), "true".into()));
    }

    let (mut setup_times, progs) = timed_reps(SETUP_REPS, |_| grid.prepare());
    let cells: Vec<(usize, Cell)> = grid.cells.iter().cloned().enumerate().collect();
    let bench = Bench {
        progs: &progs,
        cells: &cells,
        expected: &expected,
        plan: &plan,
        jobs: thread::available_parallelism().map_or(1, usize::from),
    };

    // Peak memory is read after one untimed pass over the grid, which
    // holds everything a pass needs, and before the window: the window
    // keeps 16 bytes per op, about 4 MB over a 25 s run, in vectors that
    // double as they grow, so a peak read after it moved in steps of up
    // to 1.8 MB with the op rate.
    let _ = bench.passes(Duration::from_millis(50), None);
    report.peak_rss_mb = peak_rss_mb();
    let cache0 = lowered_cache_stats();
    let mut untraced_run = Passes::default();
    for stretch in 0..SETUP_STRETCHES {
        if stretch > 0 {
            setup_times.extend(timed_reps(SETUP_REPS, |_| grid.prepare()).0);
        }
        report.host_speed.push(host_speed());
        let part = bench.passes(window_part(untraced), None);
        untraced_run.window.append(part.window);
        untraced_run.passes += part.passes;
        untraced_run.steals += part.steals;
        untraced_run.chunks += part.chunks;
    }
    let cache1 = lowered_cache_stats();
    report.setup_s = median(&setup_times);
    report.window = untraced_run.window;
    report.notes.push((
        "grid".into(),
        format!(
            "{} cells, {} programs, {} passes",
            cells.len(),
            progs.len(),
            untraced_run.passes
        ),
    ));
    report.notes.push((
        "cache_lookups_in_window".into(),
        (cache1.hits + cache1.misses - cache0.hits - cache0.misses).to_string(),
    ));

    if cfg.trace {
        let steps: Vec<u64> = cells
            .iter()
            .map(|(_, c)| with_interp_stack(default_stack_size(), || cell_steps(&progs, c, &plan)))
            .collect();
        // The frontend runs in set-up only: replay it under a `setup`
        // root so its per-byte rates are on record for this workload too.
        let epoch = Instant::now();
        let mut setup = Tracer::new(epoch, u32::MAX);
        for (i, (_, _, src)) in grid.sources().iter().enumerate() {
            let root = setup.begin("setup", i as u64);
            let _ = traced_frontend(&mut setup, i as u64, src, true);
            setup.end(root, src.len() as u64, 0);
        }
        let mut run = bench.passes(traced, Some((epoch, &steps)));
        run.spans.extend(setup.into_spans());
        let ops = run.window.latencies_us.len() as u64;
        let mut extras = BTreeMap::new();
        let per_pass = |v: u64| v as f64 / untraced_run.passes.max(1) as f64;
        extras.insert("workloads.batch.steals", per_pass(untraced_run.steals));
        extras.insert(
            "workloads.batch.chunks_claimed",
            per_pass(untraced_run.chunks),
        );
        extras.insert(
            "workloads.batch.job_us_p50",
            median(&run.window.latencies_us),
        );
        report.traced = Some(Traced {
            ops,
            window: run.window,
            spans: run.spans,
            extras,
        });
    }
    report
}
