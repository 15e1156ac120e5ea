//! Scaling benchmark for the work-stealing batch engine: the Figure-9
//! measurement grid (system × benchmark × violating combo, ENT + silent +
//! reference runs) swept over worker counts, with determinism
//! fingerprints — faults off *and* on — proving every point computed
//! bit-for-bit the same rows.
//!
//! Usage:
//!   cargo run -p ent-bench --release --bin engine_scaling [repeats] [--jobs N]
//!
//! Defaults: 3 repeats, sweeping jobs ∈ {1, 2, 4, 8}; `--jobs N` replaces
//! the sweep with {1, N}. Writes `BENCH_engine.json` at the workspace
//! root and exits nonzero if any point's rows diverge from the
//! sequential ones. Each data point records the host's core count and its
//! scheduler counters (steals, stolen jobs, owner-side chunk grabs);
//! speedups are reported against the jobs=1 pass **only when the host can
//! actually run workers in parallel** — on a single-core host the ratio
//! measures scheduling overhead, not scaling, so the point carries
//! `"speedup": null` and a note instead of a misleading number.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use ent_bench::{fig8, fig9, parse_grid_args};
use ent_energy::FaultPlan;
use ent_runtime::Settings;
use ent_workloads::sched_totals;

/// FNV-1a accumulator over raw bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprint of the fault-off grid: every row field, f64s by bit
/// pattern, in job order.
fn fingerprint(rows: &[fig9::Row]) -> u64 {
    let mut h = Fnv::new();
    for r in rows {
        h.eat(r.benchmark.as_bytes());
        h.eat(&(r.system as u64).to_le_bytes());
        h.eat(&(r.boot as u64).to_le_bytes());
        h.eat(&(r.workload as u64).to_le_bytes());
        for v in [
            r.ent_j,
            r.silent_j,
            r.ent_normalized,
            r.silent_normalized,
            r.savings_pct,
        ] {
            h.eat(&v.to_bits().to_le_bytes());
        }
        h.eat(&r.snapshot_failures.to_le_bytes());
        h.eat(&r.dfall_failures.to_le_bytes());
    }
    h.0
}

/// Fingerprint of the fault-injected grid, including the resilience
/// counters and any per-cell error strings.
fn fingerprint_chaos(rows: &[fig8::ChaosRow]) -> u64 {
    let mut h = Fnv::new();
    for r in rows {
        h.eat(r.benchmark.as_bytes());
        h.eat(&(r.workload as u64).to_le_bytes());
        h.eat(&(r.boot as u64).to_le_bytes());
        h.eat(&[r.silent as u8]);
        match r.energy_j {
            Some(e) => h.eat(&e.to_bits().to_le_bytes()),
            None => h.eat(b"failed"),
        }
        h.eat(&[r.exception as u8]);
        h.eat(&r.sensor_faults.to_le_bytes());
        h.eat(&r.stale_reads.to_le_bytes());
        h.eat(&r.degraded_decisions.to_le_bytes());
        if let Some(e) = &r.error {
            h.eat(e.as_bytes());
        }
    }
    h.0
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

struct Point {
    jobs: usize,
    elapsed_s: f64,
    fp: u64,
    fp_faults: u64,
    steals: u64,
    stolen_jobs: u64,
    chunks_claimed: u64,
}

/// Scheduler-counter deltas around one timed pass.
fn run_point(repeats: usize, jobs: usize, fault_seed: u64, settings: Settings) -> Point {
    let before = sched_totals();
    let start = Instant::now();
    let rows = fig9::rows(repeats, jobs, settings);
    let elapsed_s = start.elapsed().as_secs_f64();
    let chaos = fig8::chaos_rows(jobs, &FaultPlan::chaos(), fault_seed, settings);
    let after = sched_totals();
    Point {
        jobs,
        elapsed_s,
        fp: fingerprint(&rows),
        fp_faults: fingerprint_chaos(&chaos),
        steals: after.steals - before.steals,
        stolen_jobs: after.stolen_jobs - before.stolen_jobs,
        chunks_claimed: after.chunks_claimed - before.chunks_claimed,
    }
}

fn main() {
    let args = parse_grid_args(3);
    let repeats = args.value as usize;
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    // Unlike the figure binaries (reproducibility-first, jobs default 1),
    // this benchmark exists to exercise the pool: sweep worker counts.
    let jobs_given = std::env::args().any(|a| a == "--jobs" || a.starts_with("--jobs="));
    let sweep: Vec<usize> = if jobs_given {
        if args.jobs == 1 {
            vec![1]
        } else {
            vec![1, args.jobs]
        }
    } else {
        vec![1, 2, 4, 8]
    };
    let fault_seed = 11;

    eprintln!(
        "engine scaling: Figure-9 grid, {repeats} repeats, jobs sweep {sweep:?} \
         (host parallelism {host})"
    );

    // Pre-warm the compile cache so every timed pass measures pure
    // interpretation, as a long harness session would see.
    let warm = fig9::rows(1, *sweep.last().unwrap(), args.settings);
    let cells = warm.len();

    let points: Vec<Point> = sweep
        .iter()
        .map(|&jobs| run_point(repeats, jobs, fault_seed, args.settings))
        .collect();
    let base = &points[0];
    let deterministic = points
        .iter()
        .all(|p| p.fp == base.fp && p.fp_faults == base.fp_faults);

    let mut json = String::from("{\n  \"suite\": \"engine_scaling\",\n");
    let _ = writeln!(json, "  \"grid\": \"fig9_e1_all + fig8_chaos\",");
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"grid_cells\": {cells},");
    let _ = writeln!(json, "  \"fault_seed\": {fault_seed},");
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"jobs\": {}, \"host_parallelism\": {host}, \"elapsed_s\": {:.4}, ",
            p.jobs, p.elapsed_s
        );
        if p.jobs == 1 {
            json.push_str("\"speedup\": null, \"note\": \"baseline\", ");
        } else if host == 1 {
            json.push_str(
                "\"speedup\": null, \"note\": \"host_parallelism is 1: workers time-slice \
                 one core, so the ratio measures scheduling overhead, not scaling\", ",
            );
        } else {
            let _ = write!(
                json,
                "\"speedup\": {:.3}, \"note\": \"vs the jobs=1 pass\", ",
                base.elapsed_s / p.elapsed_s
            );
        }
        let _ = write!(
            json,
            "\"steals\": {}, \"stolen_jobs\": {}, \"chunks_claimed\": {}, ",
            p.steals, p.stolen_jobs, p.chunks_claimed
        );
        let _ = write!(
            json,
            "\"fingerprint\": \"{:016x}\", \"fingerprint_faults\": \"{:016x}\"}}",
            p.fp, p.fp_faults
        );
        json.push_str(if i + 1 == points.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"fingerprint_sequential\": \"{:016x}\",", base.fp);
    let _ = writeln!(json, "  \"deterministic\": {deterministic},");
    let _ = writeln!(
        json,
        "  \"note\": \"Every point's fingerprints (faults off and on) must equal the \
         jobs=1 baseline on every host; speedups are only meaningful when \
         host_parallelism exceeds 1.\""
    );
    json.push_str("}\n");

    let path = repo_root().join("BENCH_engine.json");
    std::fs::write(&path, &json).unwrap();
    eprintln!("wrote {}", path.display());
    for p in &points {
        eprintln!(
            "jobs {:>2}: {:.2}s, {} steals ({} jobs moved), {} chunk grabs, \
             fingerprint {:016x}/{:016x}",
            p.jobs, p.elapsed_s, p.steals, p.stolen_jobs, p.chunks_claimed, p.fp, p.fp_faults
        );
    }
    if !deterministic {
        eprintln!("DETERMINISM VIOLATION: some point's rows differ from the jobs=1 baseline");
        std::process::exit(1);
    }
    eprintln!(
        "all {} points byte-identical (faults off and on)",
        points.len()
    );
}
