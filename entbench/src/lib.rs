//! The ENT reproduction's benchmark: three closed-loop workloads that
//! time what a user of ENT waits for, a tree-walker oracle check on every
//! op, and a traced run that splits each op into the repository's layers.
//! See `README.md` beside this crate for the workloads, the metrics, and
//! how to read them.

pub mod cli_cold;
pub mod common;
pub mod fig_grid;
pub mod gen;
pub mod report;
pub mod serve_mix;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

use common::{run_speed, RunReport};
use report::{end_to_end, per_layer, render_self_times, result_line, Metric};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["cli_cold", "serve_mix", "fig_grid"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (fractions allowed, for tests).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// The release `ent` binary (`cli_cold` only).
    pub ent: PathBuf,
    /// Directory for result files and the `cli_cold` input files.
    pub out: PathBuf,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--ent P]
    /// [--out D]`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for a missing, unknown, or malformed flag.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            ent: PathBuf::from(".bench_build/release/ent"),
            out: PathBuf::from("entbench/out"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|_| bad())?;
                    if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--ent" => parsed.ent = PathBuf::from(value),
                "--out" => parsed.out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&parsed.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(parsed)
    }

    fn stem(&self) -> String {
        format!(
            "{}-seed{}-trace{}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        )
    }
}

/// A finished run: the result line, whether every op matched the oracle,
/// and the files to write beside it.
pub struct Finished {
    /// The JSON object printed as the last line of standard output.
    pub line: String,
    /// True when no op failed.
    pub correct: bool,
    /// Lines printed before the result line (host block, overhead).
    pub preamble: Vec<String>,
    /// `(file name, contents)` pairs for the output directory.
    pub files: Vec<(String, String)>,
}

/// Runs one workload and assembles its result.
#[must_use]
pub fn run(args: &Args) -> Finished {
    let report = match args.workload.as_str() {
        "cli_cold" => cli_cold::run(&cli_cold::Config {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            ent: args.ent.clone(),
            work_dir: args.out.join("cli_cold-inputs"),
        }),
        "serve_mix" => serve_mix::run(&serve_mix::Config {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        }),
        _ => fig_grid::run(&fig_grid::Config {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        }),
    };
    finish(args, &report)
}

fn finish(args: &Args, report: &RunReport) -> Finished {
    let host = report::host_json(args.seed);
    let mut attempted = report.window.attempted;
    let mut failed = report.window.failed;
    let mut preamble = vec![format!("host: {host}")];
    let mut files = Vec::new();
    let (p50, p99) = report.window.p50_p99();
    // The end-to-end metrics in reference host time: every time multiplied
    // by the run's host speed.
    let speed = run_speed(&report.host_speed);
    let metrics = end_to_end(
        &report.window.clone().scaled(speed),
        report.setup_s * speed,
        report.peak_rss_mb,
    );
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"schema\": \"entbench-result/1\", \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"host\": {host}, \
         \"untraced\": {{\"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \
         \"samples\": {}, \"samples_above_p99\": {}, \"slices\": {{\"ops_per_s\": {:?}, \
         \"p50_us\": {:?}}}, \"host_speed\": {:?}, \"raw_metrics\": {}, \
         \"metrics\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        report.window.attempted,
        report.window.failed,
        failed_frac(report.window.failed, report.window.attempted),
        report.window.latencies_us.len(),
        report
            .window
            .latencies_us
            .iter()
            .filter(|&&l| l > p99)
            .count(),
        report.window.slice_rates(),
        report.window.slice_percentiles(report::SLICES, 0.5),
        report.host_speed,
        report::metrics_json(&end_to_end(
            &report.window,
            report.setup_s,
            report.peak_rss_mb
        )),
        report::metrics_json(&metrics),
    );
    let metrics: Vec<Metric> = match &report.traced {
        None => metrics,
        Some(traced) => {
            attempted += traced.window.attempted;
            failed += traced.window.failed;
            let layers = per_layer(&traced.spans, traced.ops, &traced.extras);
            let (tp50, _) = traced.window.p50_p99();
            let overhead = format!(
                "tracing overhead ({}): p50 {:.1} us untraced vs {:.1} us traced ({:+.1}%), \
                 {:.1} vs {:.1} ops/s ({:+.1}%)",
                args.workload,
                p50,
                tp50,
                pct(tp50, p50),
                report.window.ops_per_s(),
                traced.window.ops_per_s(),
                pct(traced.window.ops_per_s(), report.window.ops_per_s()),
            );
            let table = render_self_times(&traced.spans);
            preamble.push(overhead.clone());
            preamble.extend(table.lines().map(str::to_string));
            let _ = write!(
                doc,
                ", \"traced\": {{\"ops\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"overhead\": {{\"p50_us_untraced\": {p50}, \"p50_us_traced\": {tp50}, \
                 \"ops_per_s_untraced\": {}, \"ops_per_s_traced\": {}}}, \"metrics\": {}}}",
                traced.ops,
                traced.window.attempted,
                traced.window.failed,
                report.window.ops_per_s(),
                traced.window.ops_per_s(),
                report::metrics_json(&layers),
            );
            let mut text = format!("{overhead}\n\n");
            text.push_str(&table);
            text.push('\n');
            for m in &layers {
                let _ = writeln!(text, "{:<40} {:>16.4} {}", m.name, m.value, m.unit);
            }
            files.push((format!("{}.layers.txt", args.stem()), text));
            files.push((
                format!("{}.spans.jsonl", args.stem()),
                trace::to_jsonl(&traced.spans),
            ));
            layers
        }
    };
    let notes = report
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", ent_runtime::json_escape(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = write!(doc, ", \"notes\": {{{notes}}}");
    let correct = failed == 0;
    let line = result_line(correct, attempted.max(1), failed, &metrics);
    let _ = writeln!(doc, ", \"result\": {line}}}");
    files.push((format!("{}.json", args.stem()), doc));
    preamble.push(format!(
        "{}: {} ops, {} failed, p50 {:.1} us, p99 {:.1} us, failed_frac {}",
        args.workload,
        report.window.latencies_us.len(),
        report.window.failed,
        p50,
        p99,
        failed_frac(report.window.failed, report.window.attempted)
    ));
    Finished {
        line,
        correct,
        preamble,
        files,
    }
}

fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

fn pct(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new / base - 1.0) * 100.0
    }
}
