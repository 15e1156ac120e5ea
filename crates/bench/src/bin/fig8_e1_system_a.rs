//! Regenerates Figure 8: the System A battery-exception (E1) grid — all
//! nine boot × workload combinations per benchmark, with silent
//! counterparts.
//!
//! `--faults <spec> [--fault-seed N]` runs the fault-injected variant of
//! the grid instead: one run per cell under the given fault plan, with
//! the resilience counters (faulted reads, stale serves, degraded
//! decisions) in the table and `results/fig8_chaos.json`. The fault-off
//! invocation is untouched by the flag machinery — its output and
//! `results/fig8_e1_system_a.json` stay bit-identical.

use ent_bench::{fig8, metrics, mode_name, parse_grid_args, render_table, GridArgs};

fn main() {
    let args = parse_grid_args(5);
    if let Some(plan) = &args.faults {
        run_chaos(plan, &args);
        return;
    }
    let repeats = args.value as usize;
    println!("Figure 8: System A battery-exception (E1) runs ({repeats} runs averaged)\n");
    let rows = fig8::rows(repeats, args.jobs, args.settings);
    let metric_rows = fig8::metric_rows(&rows);
    let mut current = "";
    let mut table: Vec<Vec<String>> = Vec::new();
    for r in &rows {
        if r.benchmark != current && !table.is_empty() {
            print_benchmark(current, &table);
            table.clear();
        }
        current = r.benchmark;
        table.push(vec![
            mode_name(r.workload).to_string(),
            mode_name(r.boot).to_string(),
            if r.silent { "silent" } else { "ent" }.to_string(),
            format!("{:.1}", r.energy_j),
            if r.exception { "EnergyException" } else { "-" }.to_string(),
        ]);
    }
    if !table.is_empty() {
        print_benchmark(current, &table);
    }
    match metrics::write("fig8_e1_system_a", "fig8_e1_system_a", &metric_rows) {
        Ok(path) => eprintln!("metrics written to {}", path.display()),
        Err(e) => eprintln!("could not write metrics json: {e}"),
    }
    match metrics::write_sched("fig8_e1_system_a") {
        Ok(path) => eprintln!("scheduler telemetry written to {}", path.display()),
        Err(e) => eprintln!("could not write scheduler telemetry: {e}"),
    }
}

fn run_chaos(plan: &ent_energy::FaultPlan, args: &GridArgs) {
    let fault_seed = args.fault_seed;
    println!("Figure 8 (fault-injected): System A E1 grid, fault seed {fault_seed}\n");
    let rows = fig8::chaos_rows(args.jobs, plan, fault_seed, args.settings);
    let metric_rows = fig8::chaos_metric_rows(&rows);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                mode_name(r.workload).to_string(),
                mode_name(r.boot).to_string(),
                if r.silent { "silent" } else { "ent" }.to_string(),
                match r.energy_j {
                    Some(e) => format!("{e:.1}"),
                    None => "failed".to_string(),
                },
                format!(
                    "{}/{}/{}",
                    r.sensor_faults, r.stale_reads, r.degraded_decisions
                ),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "workload",
                "boot",
                "runtime",
                "energy (J)",
                "faults/stale/degraded",
            ],
            &table,
        )
    );
    let failed = rows.iter().filter(|r| r.error.is_some()).count();
    println!("cells failed: {failed} of {}", rows.len());
    match metrics::write("fig8_chaos", "fig8_chaos", &metric_rows) {
        Ok(path) => eprintln!("metrics written to {}", path.display()),
        Err(e) => eprintln!("could not write metrics json: {e}"),
    }
    match metrics::write_sched("fig8_chaos") {
        Ok(path) => eprintln!("scheduler telemetry written to {}", path.display()),
        Err(e) => eprintln!("could not write scheduler telemetry: {e}"),
    }
}

fn print_benchmark(name: &str, table: &[Vec<String>]) {
    println!("== {name} ==");
    println!(
        "{}",
        render_table(
            &[
                "workload mode",
                "boot mode",
                "runtime",
                "energy (J)",
                "violation"
            ],
            table,
        )
    );
}
