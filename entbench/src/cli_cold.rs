//! `cli_cold`: one client spawns the release `ent run <file>` on a program
//! it has not run before, on every op.
//!
//! Programs come from [`crate::gen`] in a fixed size mix — four 1 KB,
//! three 4 KB, two 16 KB, and one 64 KB program in every block of ten,
//! shuffled by the seed — so the median op sits inside the 4 KB bucket
//! and the 99th percentile inside the 64 KB one. Set-up writes the input
//! files before the window; each later set-up stretch (see
//! [`SETUP_STRETCHES`]) writes the first few chunks of them again,
//! between parts of the window, so that the later stretches together
//! write about as many chunks as the first. The oracle (`Engine::Tree`
//! through `ent_cli::execute`) reads them back after the window and is
//! not timed. `peak_rss_mb` is the
//! largest peak resident set of the `ent` processes, which do the work,
//! not the benchmark's own.
//!
//! The traced window times the same kind of fresh sources in-process,
//! through the calls `ent_cli::execute` makes for `run` (parse, class
//! table, typecheck, lower, `run_prepared` on a fresh interpreter stack),
//! and reports `cli.process_floor_ms`, the cost of an `ent` process that
//! does no work, beside them.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use ent_cli::{execute, parse_args, Options};

use crate::common::{
    mix, phases, probe_warm, process_host_speed, traced_frontend, traced_run, window_part,
    RunReport, Traced, SETUP_STRETCHES,
};
use crate::gen::{self, Rng, SIZE_BUCKETS};
use crate::report::{children_peak_rss_mb, median, Window};
use crate::trace::Tracer;

/// An `ent` process's exit code and standard output.
type Exit = (i32, Vec<u8>);

/// Bucket index of each slot in a block of ten ops.
const BLOCK: [usize; 10] = [0, 0, 0, 0, 1, 1, 1, 2, 2, 3];

/// Programs written per second of budget: well above the 140-320 ops/s
/// the mix reaches on a 2 GHz Xeon, so the window, not the pool, ends a
/// run (a run that exhausts the pool ends early and says so).
const POOL_PER_S: f64 = 400.0;

/// Set-up writes the pool in chunks of this many files — ten whole
/// blocks, so every chunk has the same size mix — and reports the median
/// chunk time times the chunk count, so slow stretches of the host or
/// the filesystem do not decide the figure.
const SETUP_CHUNK: usize = 10 * BLOCK.len();

/// Longest an `ent` process may run before it is killed and its op
/// counted as failed; the slowest ops (64 KB programs) take tens of
/// milliseconds.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Workload settings.
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether to add the traced window.
    pub trace: bool,
    /// The release `ent` binary.
    pub ent: PathBuf,
    /// Directory for the input files. It is kept between runs and its
    /// files are overwritten in place (see [`write_in_place`]): on the
    /// ext4 host this was tuned on, creating 5000 fresh files took
    /// 0.5-3.8 s from run to run, which made set-up time mostly a reading
    /// of the filesystem's state.
    pub work_dir: PathBuf,
}

/// The first `n` of the pool's sources, in op order: `(size bucket
/// label, source)`.
#[must_use]
pub fn sources(seed: u64, n: usize) -> Vec<(&'static str, String)> {
    sources_iter(seed).take(n).collect()
}

/// The pool's sources, in op order, without end.
fn sources_iter(seed: u64) -> impl Iterator<Item = (&'static str, String)> {
    let mut rng = Rng::new(mix(seed, 1, 0));
    (0u64..)
        .flat_map(move |_| {
            let mut block = BLOCK;
            rng.shuffle(&mut block);
            block
        })
        .enumerate()
        .map(move |(i, b)| {
            let (label, bytes) = SIZE_BUCKETS[b];
            (label, gen::program(mix(seed, 2, i as u64), bytes))
        })
}

fn run_options(path: &Path, tree: bool) -> Options {
    let mut args = vec!["run".to_string(), path.display().to_string()];
    if tree {
        args.extend(["--engine".to_string(), "tree".to_string()]);
    }
    parse_args(&args).expect("static `ent run` arguments parse")
}

/// `ent run <path>`: the exit code and standard output, or `None` when
/// the process could not start, was killed by a signal, or was still
/// running after [`OP_TIMEOUT`] (it is then killed). The deadline covers
/// the process until it closes its standard output, which `ent` does by
/// exiting.
fn run_ent(ent: &Path, path: &Path) -> Option<Exit> {
    let mut child = Command::new(ent)
        .arg("run")
        .arg(path)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    let mut stdout = child.stdout.take()?;
    let (tx, rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = stdout.read_to_end(&mut buf);
        let _ = tx.send(buf);
    });
    let out = rx.recv_timeout(OP_TIMEOUT).ok();
    if out.is_none() {
        let _ = child.kill();
    }
    let status = child.wait();
    let _ = reader.join();
    Some((status.ok()?.code()?, out?))
}

/// Runs the workload.
pub fn run(cfg: &Config) -> RunReport {
    let (untraced, traced) = phases(cfg.seconds, cfg.trace);
    let n = ((POOL_PER_S * cfg.seconds).ceil() as usize + 20).next_multiple_of(SETUP_CHUNK);
    let mut report = RunReport::default();

    // Set-up: generate and write the input files, timed per chunk. Only
    // the paths stay in memory.
    std::fs::create_dir_all(&cfg.work_dir).expect("create the input directory");
    let paths: Vec<PathBuf> = (0..n)
        .map(|i| cfg.work_dir.join(format!("p{i}.ent")))
        .collect();
    let mut chunk_s = write_pool(cfg.seed, &cfg.work_dir, &paths);
    // Each later stretch writes the pool's first chunks again, with the
    // same contents. Together they write about as many chunks as the
    // first stretch, so the median chunk does not come from the first
    // stretch's one stretch of host time alone.
    let again = (n / SETUP_CHUNK).div_ceil(SETUP_STRETCHES as usize - 1) * SETUP_CHUNK;

    // Untraced window: one `ent run` process per op.
    // (pool index, exit code and stdout when the process ran)
    let mut outputs: Vec<(usize, Option<Exit>)> = Vec::new();
    let mut window = Window::default();
    let mut next = 0;
    for part in 0..SETUP_STRETCHES {
        if part > 0 {
            chunk_s.extend(write_pool(cfg.seed, &cfg.work_dir, &paths[..again]));
        }
        report.host_speed.push(process_host_speed());
        let mut w = Window::default();
        let start = Instant::now();
        while next < paths.len() && start.elapsed() < window_part(untraced) {
            let t = Instant::now();
            let result = run_ent(&cfg.ent, &paths[next]);
            w.attempted += 1;
            if result.is_some() {
                w.record(start, t.elapsed());
            }
            outputs.push((next, result));
            next += 1;
        }
        w.elapsed_s = start.elapsed().as_secs_f64();
        window.append(w);
    }
    report.peak_rss_mb = children_peak_rss_mb();
    if next == paths.len() {
        report.notes.push(("pool_exhausted".into(), "true".into()));
    }
    report.setup_s = median(&chunk_s) * (n / SETUP_CHUNK) as f64;

    // Oracle: the tree walker through the same CLI entry point.
    for (i, got) in &outputs {
        let (code, expected) = oracle(&paths[*i]);
        if got.as_ref() != Some(&(code, expected.into_bytes())) {
            window.failed += 1;
        }
    }
    report.window = window;

    if cfg.trace {
        report.traced = Some(traced_window(cfg, &paths, next, traced));
    }
    report
}

/// Generates the pool's first `paths.len()` sources and writes them to
/// `paths`; returns each chunk's wall time in seconds. The pool's pages
/// are written back to disk after the timing, so that writeback does not
/// run during the window.
fn write_pool(seed: u64, dir: &Path, paths: &[PathBuf]) -> Vec<f64> {
    let mut all = sources_iter(seed);
    let times = paths
        .chunks(SETUP_CHUNK)
        .map(|chunk| {
            let t = Instant::now();
            for (path, (_, src)) in chunk.iter().zip(all.by_ref()) {
                write_in_place(path, src.as_bytes()).expect("write an input file");
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    sync_dir_fs(dir);
    times
}

/// Overwrites the file at `path` with `bytes` from offset 0, then cuts it
/// to length. It is never truncated to zero first: ext4 writes a file
/// truncated to zero and rewritten back to disk when it is closed, so
/// every write waited on the disk. On the tuning host rewriting the 5000
/// files of a 20 s pool took 1.4-1.5 s that way and 0.10-0.15 s in place.
fn write_in_place(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = OpenOptions::new().write(true).create(true).open(path)?;
    file.write_all(bytes)?;
    file.set_len(bytes.len() as u64)
}

extern "C" {
    fn syncfs(fd: std::ffi::c_int) -> std::ffi::c_int;
}

/// Writes back the dirty pages of the filesystem that holds `dir`.
fn sync_dir_fs(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        // SAFETY: `d` stays open for the whole call.
        unsafe { syncfs(d.as_raw_fd()) };
    }
}

/// The tree walker's exit code and output for the input file at `path`.
fn oracle(path: &Path) -> (i32, String) {
    let src = std::fs::read_to_string(path).expect("read an input file back");
    execute(&run_options(path, true), &src)
}

fn traced_window(
    cfg: &Config,
    paths: &[PathBuf],
    first: usize,
    budget: std::time::Duration,
) -> Traced {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    let mut window = Window::default();
    let mut results = Vec::new();
    let start = Instant::now();
    let mut i = first;
    while i < paths.len() && start.elapsed() < budget {
        let op = i as u64;
        let src = &std::fs::read_to_string(&paths[i]).expect("read an input file back");
        let options = run_options(&paths[i], false);
        let t = Instant::now();
        let root = tracer.begin("op", op);
        let outcome = traced_frontend(&mut tracer, op, src, true)
            .flatten()
            .map(|lowered| {
                let outcome = traced_run(&mut tracer, op, &options, &lowered, true);
                (outcome, lowered)
            });
        tracer.end(root, src.len() as u64, 0);
        window.attempted += 1;
        window.record(start, t.elapsed());
        match outcome {
            Some((outcome, lowered)) => {
                probe_warm(&mut tracer, op, &options, &lowered);
                results.push((i, Some((outcome.code, outcome.output))));
            }
            None => results.push((i, None)),
        }
        i += 1;
    }
    window.elapsed_s = start.elapsed().as_secs_f64();
    for (i, got) in results {
        if got != Some(oracle(&paths[i])) {
            window.failed += 1;
        }
    }

    // The process floor: `ent` with no arguments prints its usage and
    // exits, so this is process start and teardown alone.
    let floor: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let _ = Command::new(&cfg.ent)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let mut extras = BTreeMap::new();
    extras.insert("cli.process_floor_ms", median(&floor));
    Traced {
        ops: window.latencies_us.len() as u64,
        window,
        spans: tracer.into_spans(),
        extras,
    }
}
