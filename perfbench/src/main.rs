//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, measures for the given
//! number of seconds, checks every output, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`. A wrong output makes the exit code 1.

mod check;
mod inputs;
mod oneshot;
mod report;
mod service;
mod stats;
mod sys;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use report::{per_layer, Report, END_TO_END, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report: Report = match args.workload.as_str() {
        "oneshot" => oneshot::run(args.seed, args.seconds, args.trace),
        "service_mix" => service::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (one of {WORKLOADS:?})");
            return ExitCode::from(2);
        }
    };
    for p in report.problems.iter().take(20) {
        eprintln!("perfbench: {p}");
    }
    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.csv", args.workload, args.seed));
        match trace::write_csv(&report.spans, &path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let table: Vec<(String, &str)> = if args.trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0.to_string(), m.1)).collect()
    };
    let notes = report.notes_json();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"notes\": {notes}}}",
        args.workload, args.seed
    );
    println!("{}", report.result_json(&table));
    if report.wrong_outputs > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
