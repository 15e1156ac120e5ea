//! Drives the CLI against the on-disk `.ent` example programs.

use ent_cli::{execute, parse_args};

fn example(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/ent/");
    std::fs::read_to_string(format!("{path}{name}"))
        .unwrap_or_else(|e| panic!("missing example {name}: {e}"))
}

fn cli(args: &[&str], src: &str) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let options = parse_args(&args).expect("valid arguments");
    execute(&options, src)
}

#[test]
fn crawler_checks_and_runs_at_every_battery_level() {
    let src = example("crawler.ent");
    let (code, out) = cli(&["check", "crawler.ent"], &src);
    assert_eq!(code, 0, "{out}");

    // Full battery: everything crawled.
    let (code, out) = cli(&["run", "crawler.ent", "--battery", "0.95"], &src);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("crawled"));
    assert!(out.contains("0 EnergyExceptions"), "{out}");

    // Low battery: exceptions fire and are caught.
    let (code, out) = cli(&["run", "crawler.ent", "--battery", "0.3"], &src);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("EnergyException"), "{out}");
}

#[test]
fn co_adaptation_adapts_output_to_battery() {
    let src = example("co_adaptation.ent");
    let run_at = |battery: &str| {
        let (code, out) = cli(&["run", "x.ent", "--battery", battery], &src);
        assert_eq!(code, 0, "{out}");
        out.lines()
            .find(|l| l.starts_with("result:"))
            .unwrap()
            .to_string()
    };
    let high = run_at("0.95");
    let low = run_at("0.2");
    assert_ne!(high, low, "modes must change the co-adapted result");
}

#[test]
fn media_agent_runs_and_its_waterfall_variant_fails_to_check() {
    let src = example("media_agent.ent");
    let (code, _) = cli(&["check", "x.ent"], &src);
    assert_eq!(code, 0);

    // The paper's Listing 3 error: a managed agent calling the
    // full_throttle-annotated mediaCrawl.
    let broken = src
        .replace(
            "class Agent@mode<full_throttle>",
            "class Agent@mode<managed>",
        )
        .replace("new Site@mode<full_throttle>", "new Site@mode<managed>")
        .replace("new Saver@mode<full_throttle>", "new Saver@mode<managed>");
    let (code, out) = cli(&["check", "x.ent"], &broken);
    assert_eq!(code, ent_cli::EXIT_COMPILE, "{out}");
    assert!(out.contains("waterfall"), "{out}");
}

#[test]
fn fmt_canonicalizes_all_examples() {
    for name in ["crawler.ent", "co_adaptation.ent", "media_agent.ent"] {
        let src = example(name);
        let (code, formatted) = cli(&["fmt", name], &src);
        assert_eq!(code, 0, "{name}: {formatted}");
        // Formatting is idempotent.
        let (code2, again) = cli(&["fmt", name], &formatted);
        assert_eq!(code2, 0);
        assert_eq!(formatted, again, "{name}: fmt must be idempotent");
    }
}

#[test]
fn silent_flag_changes_the_low_battery_outcome() {
    let src = example("crawler.ent");
    let (_, strict) = cli(&["run", "x.ent", "--battery", "0.3"], &src);
    let (_, silent) = cli(&["run", "x.ent", "--battery", "0.3", "--silent"], &src);
    // The silent run crawls everything (no skips), so it reports more
    // pages and more energy.
    let pages = |out: &str| -> i64 {
        out.lines()
            .find(|l| l.starts_with("result:"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    assert!(
        pages(&silent) > pages(&strict),
        "silent {silent} vs strict {strict}"
    );
}

#[test]
fn platform_flag_selects_the_simulator() {
    let src = example("crawler.ent");
    let energy = |platform: &str| {
        let (_, out) = cli(&["run", "x.ent", "--platform", platform], &src);
        out.lines()
            .find(|l| l.starts_with("energy:"))
            .unwrap()
            .to_string()
    };
    // The Pi draws far less power than the laptop for the same program.
    let a = energy("a");
    let b = energy("b");
    assert_ne!(a, b);
}

#[test]
fn ent_engine_env_reaches_ent_run_and_the_flag_beats_it() {
    // `ENT_ENGINE=threaded ENT_TIER_UP=0` must put `ent run` on the
    // threaded tier; an explicit `--engine bytecode` beats the env.
    let threaded_entries = |extra: &[&str]| {
        let metrics = std::env::temp_dir().join(format!("ent-env-{}.json", std::process::id()));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ent"))
            .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
            .args(["run", "examples/ent/crawler.ent", "--metrics-json"])
            .arg(&metrics)
            .args(extra)
            .env("ENT_ENGINE", "threaded")
            .env("ENT_TIER_UP", "0")
            .output()
            .expect("spawn ent");
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let json = std::fs::read_to_string(&metrics).expect("metrics written");
        let _ = std::fs::remove_file(&metrics);
        let (_, count) = json
            .split_once("\"threaded_entries\": ")
            .expect("tier counters");
        count[..count.find(',').unwrap()].parse::<u64>().unwrap()
    };
    assert!(threaded_entries(&[]) > 0, "ENT_ENGINE=threaded was ignored");
    assert_eq!(threaded_entries(&["--engine", "bytecode"]), 0);
}
