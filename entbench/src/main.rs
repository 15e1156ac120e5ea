//! `entbench --workload <cli_cold|serve_mix|fig_grid> --seed <n>
//! --seconds <s> --trace <0|1> [--ent <path>] [--out <dir>]`
//!
//! Prints the host block, a summary, and (traced) the tracing overhead
//! and per-layer self-time table, then one JSON result line. Writes the
//! result document, and for a traced run the span dump and per-layer
//! table, to the output directory. Exits 1 when any op failed or differed
//! from the tree-walker oracle, 2 on a usage error.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match entbench::Args::parse(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("entbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "cli_cold" && !args.ent.is_file() {
        eprintln!(
            "entbench: no `ent` binary at {} (build it with `cargo build --release --bin ent`)",
            args.ent.display()
        );
        return ExitCode::from(2);
    }
    let finished = entbench::run(&args);
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("entbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    for (name, contents) in &finished.files {
        let path = args.out.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("entbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    for line in &finished.preamble {
        println!("{line}");
    }
    println!("{}", finished.line);
    if finished.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("entbench: some ops failed or differed from the tree-walker oracle");
        ExitCode::from(1)
    }
}
