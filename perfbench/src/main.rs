//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--corrupt-reference]
//! perfbench --print-reference
//! ```
//!
//! Prints a host line and, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed`, and `metrics`.
//! The full record (host, per-cell detail, failure messages) goes to
//! `<out-dir>/<workload>-seed<n>-trace<t>.json`; traced runs also write
//! their span log there. Exits non-zero, printing no result, when the
//! arguments are bad or the workload cannot be set up.
//!
//! `--print-reference` computes every workload's fixed-seed reference
//! set and prints it in the format of `reference.json`.

use h2p_perfbench::engine::{self, EngineWorkload};
use h2p_perfbench::metrics::{Outcome, PER_LAYER, WORKLOADS};
use h2p_perfbench::{fleet, host, paper, reference, RunArgs};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn parse_args() -> Result<RunArgs, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut corrupt_reference = false;
    let mut out_dir = PathBuf::from(".perfbench");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                });
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        corrupt_reference,
        out_dir,
    })
}

fn run(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let t0 = Instant::now();
    let workload: Box<dyn EngineWorkload> = if args.workload == "paper-sweep" {
        Box::new(paper::PaperSweep::setup(args.seed)?)
    } else {
        Box::new(fleet::FleetStream::setup(args.seed)?)
    };
    engine::measure(&*workload, args, t0.elapsed().as_secs_f64(), out)
}

/// The content of `reference.json` for the program as built.
fn print_reference() -> Result<(), String> {
    let seed = reference::seed()?;
    let workloads: [(&str, Box<dyn EngineWorkload>); 2] = [
        ("paper-sweep", Box::new(paper::PaperSweep::setup(seed)?)),
        ("fleet-stream", Box::new(fleet::FleetStream::setup(seed)?)),
    ];
    let mut runs = Vec::with_capacity(workloads.len());
    for (name, workload) in workloads {
        runs.push((name, workload.reference_runs()?));
    }
    println!("{}", reference::render(seed, &runs));
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq(["--print-reference"]) {
        return match print_reference() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: creating {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let host = host::describe();
    let mut out = Outcome::default();
    if let Err(e) = run(&args, &mut out) {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let line = out.result_line(args.trace);
    let record = json!({
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host.clone(),
        "result": line.clone(),
        "failures": out.notes.clone(),
        "detail": Value::Object(out.detail.clone()),
    });
    let path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{record}\n")) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    for note in &out.notes {
        eprintln!("perfbench: failure: {note}");
    }
    if args.trace {
        // The per-layer table, readable without a JSON tool.
        for (name, unit) in PER_LAYER {
            let value = out.values.get(name).copied().unwrap_or(0.0);
            eprintln!("{name:<28} {value:>16.6} {unit}");
        }
    }
    println!("# host {host}");
    println!("{line}");
    ExitCode::SUCCESS
}
