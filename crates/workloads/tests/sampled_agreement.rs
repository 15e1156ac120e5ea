//! Statistical agreement of the sampled profiler with the exact ground
//! truth over the Figure-6 E2 suite, plus batch determinism: the same
//! seed/period must produce byte-identical telemetry at every worker
//! count and on both engines.
//!
//! Everything here is driven by the virtual clock and the seeded jitter
//! stream, so the assertions are deterministic — the thresholds are
//! contracts, not flaky tolerances.

use ent_energy::PlatformKind;
use ent_runtime::{
    default_stack_size, run_lowered, with_interp_stack, Engine, ProfileMode, RuntimeConfig,
    Settings,
};
use ent_workloads::{all_benchmarks, prepare_e2, run_batch};

/// Finer than the default period so even the smallest E2 program
/// (~1.2k steps) takes enough samples to rank methods.
const AGREEMENT_PERIOD: u64 = 16;

fn config(engine: Engine, profile: ProfileMode) -> RuntimeConfig {
    RuntimeConfig {
        engine,
        battery_level: 0.75,
        seed: 42,
        profile,
        ..RuntimeConfig::default()
    }
}

/// Upper bound of the 95% Wilson interval at zero hits, as a proportion:
/// the CI a method the sampler never saw implicitly carries.
fn wilson_zero_hi(n: u64) -> f64 {
    const Z: f64 = 1.959963984540054;
    let z2 = Z * Z;
    z2 / (n as f64 + z2)
}

#[test]
fn sampled_estimates_agree_with_exact_on_fig6() {
    let (overlaps, coverages) = with_interp_stack(default_stack_size(), || {
        let mut overlaps = Vec::new();
        let mut coverages = Vec::new();
        for spec in all_benchmarks() {
            let prepared = prepare_e2(&spec, PlatformKind::SystemA, 1, Settings::default());
            let exact_run = run_lowered(
                &prepared.lowered,
                prepared.platform.clone(),
                config(Engine::Tree, ProfileMode::Exact),
            );
            let sampled_run = run_lowered(
                &prepared.lowered,
                prepared.platform.clone(),
                config(
                    Engine::Tree,
                    ProfileMode::Sampled {
                        period: AGREEMENT_PERIOD,
                        seed: ProfileMode::DEFAULT_SAMPLE_SEED,
                    },
                ),
            );
            let exact = exact_run.profile.as_ref().unwrap().as_exact().unwrap();
            let sampled = sampled_run.profile.as_ref().unwrap().as_sampled().unwrap();
            assert!(sampled.samples > 0, "{}: no samples taken", spec.name);

            // Top-5 methods by exclusive steps, both sides.
            let mut exact_rank: Vec<(&str, u64)> = exact
                .methods
                .iter()
                .map(|m| (m.name.as_str(), m.exclusive.steps))
                .collect();
            exact_rank.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            let mut sampled_rank: Vec<(&str, f64)> = sampled
                .methods
                .iter()
                .map(|m| (m.name.as_str(), m.est_steps_excl))
                .collect();
            sampled_rank.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            let depth = 5.min(exact_rank.len()).min(sampled_rank.len());
            if depth > 0 {
                let top: Vec<&str> = exact_rank[..depth].iter().map(|(n, _)| *n).collect();
                let hits = sampled_rank[..depth]
                    .iter()
                    .filter(|(n, _)| top.contains(n))
                    .count();
                overlaps.push(hits as f64 / depth as f64);
            }

            // CI coverage of the exact exclusive steps, every exact method.
            let total = sampled.total_steps as f64;
            let zero_hi = wilson_zero_hi(sampled.samples) * total;
            let mut covered = 0usize;
            for m in &exact.methods {
                let truth = m.exclusive.steps as f64;
                let (lo, hi) = sampled
                    .methods
                    .iter()
                    .find(|s| s.name == m.name)
                    .map(|s| s.ci_steps_excl)
                    .unwrap_or((0.0, zero_hi));
                if lo <= truth && truth <= hi {
                    covered += 1;
                }
            }
            coverages.push(covered as f64 / exact.methods.len() as f64);
        }
        (overlaps, coverages)
    });

    let overlap_mean = overlaps.iter().sum::<f64>() / overlaps.len() as f64;
    let coverage_mean = coverages.iter().sum::<f64>() / coverages.len() as f64;
    assert!(
        overlap_mean >= 0.6,
        "top-5 rank overlap degraded: mean {overlap_mean:.3} from {overlaps:?}"
    );
    assert!(
        coverage_mean >= 0.9,
        "CI coverage degraded: mean {coverage_mean:.3} from {coverages:?}"
    );
}

#[test]
fn sampled_telemetry_is_byte_identical_across_jobs_and_engines() {
    let specs = all_benchmarks();
    let telemetry = |jobs: usize, engine: Engine| -> Vec<String> {
        run_batch(jobs, &specs, |spec| {
            let prepared = prepare_e2(spec, PlatformKind::SystemA, 1, Settings::default());
            run_lowered(
                &prepared.lowered,
                prepared.platform.clone(),
                config(engine, ProfileMode::sampled_default()),
            )
            .to_json()
        })
    };
    let serial = telemetry(1, Engine::Tree);
    let parallel = telemetry(8, Engine::Tree);
    let vm = telemetry(8, Engine::Bytecode);
    assert!(!serial.is_empty());
    for (i, spec) in specs.iter().enumerate() {
        assert_eq!(
            serial[i], parallel[i],
            "{}: telemetry diverged between --jobs 1 and --jobs 8",
            spec.name
        );
        assert_eq!(
            serial[i], vm[i],
            "{}: telemetry diverged between engines",
            spec.name
        );
        assert!(serial[i].contains("\"mode\": \"sampled\""), "{}", spec.name);
    }
}
