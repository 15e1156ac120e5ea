//! Workspace-level integration tests: the full pipeline (parse → class
//! table → typecheck → interpret → energy simulation) across crates, plus
//! cross-checks between the experiment harness and the baselines.

use ent_baselines::{check_energy_types, EnergyTypesResult};
use ent_core::{compile, CompileError, TypeErrorKind};
use ent_energy::{Platform, PlatformKind};
use ent_runtime::{run, RtError, RuntimeConfig, Value};
use ent_workloads::{benchmark, e1_program, e2_program, platform_of, run_e1};

/// The paper's Listing 1, written out in full in the reproduction's
/// concrete syntax: the discover–check–crawl loop, three modes, dynamic
/// Agent and Site, configuration rules, mode cases.
const LISTING_1: &str = r#"
modes { energy_saver <= managed; managed <= full_throttle; }

class Rule@mode<R> {
  bool localOnly;
  bool isLocalOnly() { return this.localOnly; }
}

class Resource@mode<E> {
  int weight;
  int process(int depth) {
    Sim.work("net", Math.toDouble(this.weight * depth) * 1000000.0);
    return this.weight * depth;
  }
}

class Site@mode<? <= S> {
  int resources;
  attributor {
    if (this.resources > 200) { return full_throttle; }
    else if (this.resources > 50) { return managed; }
    else { return energy_saver; }
  }
  int crawl(int depth) {
    Sim.work("net", Math.toDouble(this.resources * depth) * 1000000.0);
    return this.resources * depth;
  }
}

class Agent@mode<? <= X> {
  Rule@mode<energy_saver> rule;
  mcase<int> depth = mcase{ energy_saver: 1; managed: 2; full_throttle: 3; };
  attributor {
    if (Ext.battery() >= 0.75) { return full_throttle; }
    else if (this.rule.isLocalOnly()) { return full_throttle; }
    else if (Ext.battery() >= 0.50) { return managed; }
    else { return energy_saver; }
  }
  int work(int resources) {
    let ds = new Site(resources);
    let Site s = snapshot ds [_, X];
    return s.crawl(this.depth <| X);
  }
}

class Main {
  int main() {
    let da = new Agent(new Rule@mode<energy_saver>(false));
    let Agent a = snapshot da [_, _];
    return try { a.work(150) } catch { 0 - 1 };
  }
}
"#;

#[test]
fn listing1_compiles_and_adapts_to_battery() {
    let compiled =
        compile(LISTING_1).unwrap_or_else(|e| panic!("listing 1 failed:\n{}", e.render(LISTING_1)));

    // Full battery: full_throttle agent, managed site, depth 3.
    let r = run(
        &compiled,
        Platform::system_a(),
        RuntimeConfig {
            battery_level: 0.95,
            ..RuntimeConfig::default()
        },
    );
    assert_eq!(r.value.unwrap(), Value::Int(450));

    // Mid battery: managed agent, managed site, depth 2.
    let r = run(
        &compiled,
        Platform::system_a(),
        RuntimeConfig {
            battery_level: 0.6,
            ..RuntimeConfig::default()
        },
    );
    assert_eq!(r.value.unwrap(), Value::Int(300));

    // Low battery: energy_saver agent, managed site → EnergyException,
    // caught, -1.
    let r = run(
        &compiled,
        Platform::system_a(),
        RuntimeConfig {
            battery_level: 0.3,
            ..RuntimeConfig::default()
        },
    );
    assert_eq!(r.value.unwrap(), Value::Int(-1));
    assert_eq!(r.stats.energy_exceptions, 1);
}

#[test]
fn listing1_configuration_dependence() {
    // With the local-only rule set, the agent boots full_throttle even on
    // low battery (intention A1 of §2).
    let src = LISTING_1.replace(
        "new Rule@mode<energy_saver>(false)",
        "new Rule@mode<energy_saver>(true)",
    );
    let compiled = compile(&src).unwrap();
    let r = run(
        &compiled,
        Platform::system_a(),
        RuntimeConfig {
            battery_level: 0.3,
            ..RuntimeConfig::default()
        },
    );
    assert_eq!(r.value.unwrap(), Value::Int(450));
}

#[test]
fn listing1_is_not_expressible_in_energy_types() {
    assert!(matches!(
        check_energy_types(LISTING_1),
        EnergyTypesResult::RequiresEnt(_)
    ));
}

#[test]
fn the_debugging_story_of_section_6_3() {
    // Forgetting the [_, X] bound produces the compile-time waterfall
    // error described in §6.3.
    let src = LISTING_1.replace("snapshot ds [_, X]", "snapshot ds [_, _]");
    match compile(&src) {
        Err(CompileError::Type(errors)) => {
            assert!(errors
                .iter()
                .any(|e| e.kind == TypeErrorKind::WaterfallViolation));
        }
        other => panic!("expected a waterfall violation, got {other:?}"),
    }
}

#[test]
fn harness_and_direct_runtime_agree_on_e1() {
    // The workloads crate's runner and a by-hand run of the generated
    // program must produce identical measurements.
    let spec = benchmark("jspider").unwrap();
    let platform = platform_of(PlatformKind::SystemA);
    let src = e1_program(&spec, &platform, 2);
    let compiled = compile(&src).unwrap();
    let direct = run(
        &compiled,
        platform_of(PlatformKind::SystemA),
        RuntimeConfig {
            battery_level: ent_workloads::battery_for_boot(0),
            seed: 42,
            ..RuntimeConfig::default()
        },
    );
    let settings = ent_runtime::Settings::from_env();
    let via_runner = run_e1(&spec, PlatformKind::SystemA, 0, 2, false, 42, settings);
    assert_eq!(direct.measurement.energy_j, via_runner.energy_j);
    assert!(via_runner.exception);
}

#[test]
fn all_generated_benchmark_programs_are_well_typed_and_runnable() {
    for spec in ent_workloads::all_benchmarks() {
        for system in spec.systems {
            let platform = platform_of(*system);
            for workload in 0..3 {
                let src = e2_program(&spec, &platform, workload);
                let compiled = compile(&src).unwrap_or_else(|e| {
                    panic!("{} on {:?}: {}", spec.name, system, e.render(&src))
                });
                let r = run(
                    &compiled,
                    platform_of(*system),
                    RuntimeConfig {
                        battery_level: 0.78,
                        ..RuntimeConfig::default()
                    },
                );
                assert!(
                    r.value.is_ok(),
                    "{} w{} on {:?}: {:?}",
                    spec.name,
                    workload,
                    system,
                    r.value
                );
            }
        }
    }
}

#[test]
fn exceptions_never_fire_in_e2_programs() {
    // The battery-casing shape adapts through mode cases only.
    for spec in ent_workloads::all_benchmarks() {
        let platform = platform_of(spec.primary_platform());
        let src = e2_program(&spec, &platform, 2);
        let compiled = compile(&src).unwrap();
        for boot in 0..3 {
            let r = run(
                &compiled,
                platform_of(spec.primary_platform()),
                RuntimeConfig {
                    battery_level: ent_workloads::battery_for_boot(boot),
                    ..RuntimeConfig::default()
                },
            );
            assert!(r.value.is_ok());
            assert_eq!(r.stats.energy_exceptions, 0, "{} boot {boot}", spec.name);
        }
    }
}

#[test]
fn uncaught_energy_exception_terminates_the_program() {
    let src = LISTING_1.replace("try { a.work(150) } catch { 0 - 1 }", "a.work(150)");
    let compiled = compile(&src).unwrap();
    let r = run(
        &compiled,
        Platform::system_a(),
        RuntimeConfig {
            battery_level: 0.3,
            ..RuntimeConfig::default()
        },
    );
    assert!(matches!(r.value, Err(RtError::EnergyException(_))));
}
