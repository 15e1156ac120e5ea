//! Regenerates Figure 6: benchmark descriptions, statistics, and the
//! percentage energy overhead of ENT's runtime versus a no-op baseline.

use ent_bench::{fig6, metrics, parse_grid_args, render_table};

fn main() {
    let args = parse_grid_args(5);
    let repeats = args.value as usize;
    println!("Figure 6: ENT benchmark descriptions and statistics ({repeats} runs averaged)\n");
    let data = fig6::rows(repeats, args.jobs, args.settings);
    let metric_rows: Vec<metrics::Row> = data
        .iter()
        .map(|r| metrics::Row::new(r.name).with("overhead_pct", r.overhead_pct))
        .collect();
    let rows: Vec<Vec<String>> = data
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.description.to_string(),
                r.systems,
                r.cloc.to_string(),
                r.ent_changes.to_string(),
                format!("{:+.2}%", r.overhead_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "name",
                "description",
                "System",
                "CLOC",
                "ENT Changes",
                "% Energy Overhead"
            ],
            &rows,
        )
    );
    println!("(CLOC and ENT-change counts reproduce the paper's table for context;");
    println!(" the overhead column is measured on this reproduction's runtime.)");
    match metrics::write("fig6_overhead", "fig6_overhead", &metric_rows) {
        Ok(path) => eprintln!("metrics written to {}", path.display()),
        Err(e) => eprintln!("could not write metrics json: {e}"),
    }
    match metrics::write_sched("fig6_overhead") {
        Ok(path) => eprintln!("scheduler telemetry written to {}", path.display()),
        Err(e) => eprintln!("could not write scheduler telemetry: {e}"),
    }
}
