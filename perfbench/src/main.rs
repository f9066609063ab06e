//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bo-stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run and writes
//! its Chrome trace under `perfbench/out/`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 0 only when every output check passed.

use std::process::ExitCode;

use perfbench::context::{self, MachineContext};
use perfbench::scenario::{Workload, NAMES};
use perfbench::{report, run_traced, run_untraced};

const USAGE: &str =
    "usage: perfbench --workload <bo-stream|sim-sweep|warm-provider> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !NAMES.contains(&args.workload.as_str()) {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    context::pin_threads();
    let ctx = MachineContext::get();
    println!("# context {}", ctx.to_json(args.seed));

    let workload = Workload::new(&args.workload, args.seed).expect("name checked above");
    let run = if args.trace {
        run_traced(&workload, &perfbench::default_trace_dir())
    } else {
        run_untraced(&workload, args.seconds)
    };

    for note in &run.notes {
        println!("# {note}");
    }
    if args.trace {
        println!(
            "| {:<30} | {:>10} | {:>16} |",
            "per-layer metric",
            "unit",
            workload.name()
        );
        for m in &run.metrics {
            println!("| {:<30} | {:>10} | {:>16.6} |", m.name, m.unit, m.value);
        }
    } else {
        println!("{}", report::table(workload.name(), &run.metrics));
    }
    for why in &run.failures {
        eprintln!("CHECK FAILED: {why}");
    }
    println!(
        "{}",
        report::result_json(run.correct, run.attempted, run.failed, &run.metrics)
    );
    if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
