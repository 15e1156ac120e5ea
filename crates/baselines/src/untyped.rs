//! The "Alice" baseline of §2: hand-rolled if-then-else energy management
//! with no mode types at all.
//!
//! Alice's program guards every use of a workload with an explicit battery
//! check. Functionally it adapts like the ENT E2 program, but nothing
//! enforces consistency between the checks — the motivating problem the
//! type system solves. The harness uses this baseline to confirm that
//! ENT's discipline costs no energy relative to ad-hoc adaptation.

use ent_energy::Platform;
use ent_workloads::{unit_scale, BenchmarkSpec, Shape};

/// Generates the untyped (mode-free) adaptive equivalent of a benchmark's
/// E2 program: the same QoS decisions made with raw `if` cascades.
pub fn untyped_e2_program(spec: &BenchmarkSpec, platform: &Platform, workload: usize) -> String {
    let items = spec.workload_items[workload];
    let kind = spec.work_kind;
    match spec.shape {
        Shape::Batch { .. } => {
            let scale = unit_scale(spec, platform);
            let q = spec.qos_factors;
            format!(
                "class App {{
  unit runOn(double items) {{
    // Ad-hoc adaptation: every use site re-checks the battery.
    let quality = if (Ext.battery() >= 0.9) {{ {q2:.4} }}
                  else if (Ext.battery() >= 0.7) {{ {q1:.4} }}
                  else {{ {q0:.4} }};
    Sim.work(\"{kind}\", items * quality * {scale:.4});
    return {{}};
  }}
}}
class Main {{
  unit main() {{
    let a = new App();
    a.runOn({items:.4});
    return {{}};
  }}
}}",
                q0 = q[0],
                q1 = q[1],
                q2 = q[2],
            )
        }
        Shape::TimeFixed { durations_s, duty } => {
            let ticks = durations_s[workload] as i64;
            let busy_units =
                platform.ops_per_sec / ent_energy::WorkKind::parse(spec.work_kind).ops_per_unit();
            let wfactor = ent_workloads::workload_duty_factor(spec, workload);
            format!(
                "class App {{
  unit loop(int remaining, double d) {{
    if (remaining <= 0) {{ return {{}}; }}
    Sim.work(\"{kind}\", d * {busy_units:.4});
    Sim.sleepMs(1000 - Math.floor(d * 1000.0));
    return this.loop(remaining - 1, d);
  }}
  unit run() {{
    let base = if (Ext.battery() >= 0.9) {{ {d2:.4} }}
               else if (Ext.battery() >= 0.7) {{ {d1:.4} }}
               else {{ {d0:.4} }};
    this.loop({ticks}, Math.fmin(0.95, base * {wfactor:.4}));
    return {{}};
  }}
}}
class Main {{
  unit main() {{
    let a = new App();
    a.run();
    return {{}};
  }}
}}",
                d0 = duty[0],
                d1 = duty[1],
                d2 = duty[2],
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_core::compile;
    use ent_energy::PlatformKind;
    use ent_runtime::{run, RuntimeConfig};
    use ent_workloads::{all_benchmarks, battery_for_boot, benchmark, platform_of, run_e2};

    #[test]
    fn untyped_programs_compile() {
        for spec in all_benchmarks() {
            let platform = platform_of(spec.primary_platform());
            let src = untyped_e2_program(&spec, &platform, 1);
            compile(&src)
                .unwrap_or_else(|e| panic!("{} untyped failed:\n{}", spec.name, e.render(&src)));
        }
    }

    #[test]
    fn untyped_adaptation_matches_ent_energy_modulo_overhead() {
        // ENT's discipline should cost (almost) nothing: the typed E2 run
        // and the ad-hoc run at the same boot mode consume comparable
        // energy.
        let spec = benchmark("pagerank").unwrap();
        let platform = platform_of(PlatformKind::SystemA);
        let settings = ent_runtime::Settings::from_env();
        for boot in 0..3 {
            let ent = run_e2(&spec, PlatformKind::SystemA, boot, 2, 9, settings);
            let src = untyped_e2_program(&spec, &platform, 2);
            let compiled = compile(&src).unwrap();
            let untyped = run(
                &compiled,
                platform_of(PlatformKind::SystemA),
                RuntimeConfig {
                    battery_level: battery_for_boot(boot),
                    seed: 9,
                    ..RuntimeConfig::default()
                },
            );
            let uj = untyped.measurement.energy_j;
            let rel = (ent.energy_j - uj).abs() / uj;
            assert!(
                rel < 0.05,
                "boot {boot}: ent {} vs untyped {uj}",
                ent.energy_j
            );
        }
    }
}
