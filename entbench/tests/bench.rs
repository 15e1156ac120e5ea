//! The benchmark's own checks: the generator is deterministic and only
//! emits programs that compile, in the size bucket asked for; the cold
//! mix has its stated shape; the slice estimate trims one extreme slice
//! on each side; a window converted to reference host time keeps its
//! shape; and a run at a tiny budget prints a result line whose metrics
//! are exactly the ones `BENCHMARK.json` lists.

use ent_serve::json::{self, Json};
use entbench::gen::{bucket_of, program, SIZE_BUCKETS};
use entbench::{cli_cold, Args};

#[test]
fn same_seed_gives_byte_identical_sources() {
    for (_, bytes) in SIZE_BUCKETS {
        assert_eq!(program(7, bytes), program(7, bytes));
        assert_ne!(program(7, bytes), program(8, bytes));
    }
    assert_eq!(cli_cold::sources(3, 40), cli_cold::sources(3, 40));
}

#[test]
fn generated_programs_compile_in_their_bucket() {
    for (label, bytes) in SIZE_BUCKETS {
        for seed in 0..6 {
            let src = program(seed, bytes);
            assert_eq!(
                bucket_of(src.len()),
                label,
                "seed {seed}: {} bytes",
                src.len()
            );
            if let Err(e) = ent_core::compile(&src) {
                panic!(
                    "seed {seed} at {label} does not compile:\n{}",
                    e.render(&src)
                );
            }
        }
    }
}

#[test]
fn cold_mix_has_four_three_two_one_per_block() {
    let pool = cli_cold::sources(11, 100);
    for block in pool.chunks(10) {
        let count = |l: &str| block.iter().filter(|(b, _)| *b == l).count();
        assert_eq!(
            (count("1k"), count("4k"), count("16k"), count("64k")),
            (4, 3, 2, 1)
        );
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_result_line(workload: &str, trace: bool) {
    let args = Args::parse(&[
        "--workload".into(),
        workload.into(),
        "--seed".into(),
        "5".into(),
        "--seconds".into(),
        "0.4".into(),
        "--trace".into(),
        if trace { "1" } else { "0" }.into(),
    ])
    .expect("arguments parse");
    let finished = entbench::run(&args);
    let doc = json::parse(&finished.line).expect("the result line is JSON");
    let Json::Obj(fields) = &doc else {
        panic!("the result line is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    let key = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(printed, declared(key), "{workload} trace={trace}");
}

#[test]
fn fig_grid_result_line_matches_the_declared_metrics() {
    check_result_line("fig_grid", false);
    check_result_line("fig_grid", true);
}

#[test]
fn serve_mix_result_line_matches_the_declared_metrics() {
    check_result_line("serve_mix", false);
    check_result_line("serve_mix", true);
}

#[test]
fn bad_arguments_are_refused() {
    let parse = |a: &[&str]| Args::parse(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    assert!(parse(&["--workload", "nope"]).is_err());
    assert!(parse(&["--workload", "fig_grid", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "fig_grid", "--seconds", "0"]).is_err());
    assert!(parse(&["--workload", "fig_grid", "--bogus", "1"]).is_err());
    assert!(parse(&["--workload", "fig_grid", "--seed"]).is_err());
}

#[test]
fn slice_estimate_drops_one_extreme_slice_each_side() {
    use entbench::report::trimmed_mean;
    assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0, 3.0, 100.0]), 14.0 / 3.0);
    assert_eq!(trimmed_mean(&[4.0, 2.0]), 3.0);
    assert_eq!(trimmed_mean(&[]), 0.0);
}

#[test]
fn reference_time_scales_rates_down_and_latencies_up() {
    use entbench::report::Window;
    let window = Window {
        latencies_us: (1..=100).map(f64::from).collect(),
        done_s: (1..=100).map(|i| f64::from(i) / 10.0).collect(),
        attempted: 100,
        failed: 0,
        elapsed_s: 10.0,
    };
    let (p50, p99) = window.p50_p99();
    let slow = window.clone().scaled(2.0);
    assert_eq!(slow.p50_p99(), (p50 * 2.0, p99 * 2.0));
    assert_eq!(slow.ops_per_s(), window.ops_per_s() / 2.0);
}
