//! Regenerates Figure 11: temperature-casing (E3) runs — CPU temperature
//! traces of the ENT and Java variants for the five System A benchmarks.

use ent_bench::{fig11, metrics, parse_grid_args, sparkline};

fn main() {
    let args = parse_grid_args(7);
    let seed = args.value;
    println!("Figure 11: System A temperature-casing (E3) runs (seed {seed})");
    println!("Thresholds: hot at 60 °C, overheating at 65 °C; sleep mcase 0/250/1000 ms.\n");
    let mut metric_rows = Vec::new();
    for series in fig11::series(seed, args.jobs, args.settings) {
        let summarize = |trace: &[(f64, f64)]| -> (f64, f64, Vec<f64>) {
            let temps: Vec<f64> = trace.iter().map(|(_, c)| *c).collect();
            let peak = temps.iter().copied().fold(f64::MIN, f64::max);
            let last_half: Vec<f64> = temps[temps.len() / 2..].to_vec();
            let avg = last_half.iter().sum::<f64>() / last_half.len().max(1) as f64;
            // Downsample to 60 columns for the sparkline.
            let step = (temps.len() / 60).max(1);
            let sampled: Vec<f64> = temps.iter().step_by(step).copied().collect();
            (peak, avg, sampled)
        };
        let (ent_peak, ent_avg, ent_line) = summarize(&series.ent);
        let (java_peak, java_avg, java_line) = summarize(&series.java);
        metric_rows.push(
            metrics::Row::new(series.benchmark)
                .with("ent_peak_c", ent_peak)
                .with("ent_steady_c", ent_avg)
                .with("java_peak_c", java_peak)
                .with("java_steady_c", java_avg),
        );
        println!("== {} ==", series.benchmark);
        println!(
            "  ent  [{}] peak {ent_peak:.1} °C, steady ~{ent_avg:.1} °C",
            sparkline(&ent_line, 42.0, 80.0)
        );
        println!(
            "  java [{}] peak {java_peak:.1} °C, steady ~{java_avg:.1} °C",
            sparkline(&java_line, 42.0, 80.0)
        );
        println!();
    }
    println!("(Sparkline scale: 42–80 °C. The ENT runs hover near the hot threshold;");
    println!(" the Java runs climb toward thermal saturation, as in the paper.)");
    match metrics::write("fig11_e3_thermal", "fig11_e3_thermal", &metric_rows) {
        Ok(path) => eprintln!("metrics written to {}", path.display()),
        Err(e) => eprintln!("could not write metrics json: {e}"),
    }
    match metrics::write_sched("fig11_e3_thermal") {
        Ok(path) => eprintln!("scheduler telemetry written to {}", path.display()),
        Err(e) => eprintln!("could not write scheduler telemetry: {e}"),
    }
}
