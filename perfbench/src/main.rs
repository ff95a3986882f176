//! MeanCache serving benchmark.
//!
//! ```text
//! perfbench --workload chat-hot|cold-mpnet|durable-restart --seed N \
//!           --seconds S --trace 0|1
//! ```
//!
//! Runs one workload against a real `mc_serve::Server` over localhost TCP
//! with an open-loop generator, checks every served decision against a
//! sequential in-process replay, and prints one JSON object as the last line
//! of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (from a traced run plus an in-process replay of the
//! same inputs through each layer) with `--trace 1`. Scratch files, the span
//! dump and a detailed report go to `.perfbench_out/` in the working
//! directory. See `perfbench/README.md` for the workloads and metrics.

mod gen;
mod layers;
mod load;
mod plan;
mod run;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::Workload;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
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
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload chat-hot|cold-mpnet|durable-restart \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench_out");
    let run_dir = out_dir.join(format!(
        "run-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let outcome = run::run(&args, &out_dir, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    println!("{}", outcome.env_line);
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        for failure in &outcome.failures {
            eprintln!("perfbench: check failed: {failure}");
        }
        ExitCode::from(1)
    }
}
