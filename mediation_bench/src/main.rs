//! Command line:
//!
//! ```text
//! mediation-bench --workload <add-mem|photo-browse|add-tcp|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable table, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Exits non-zero
//! on any failed or wrong reply. `--workload all` runs each workload in a
//! child process of its own (so `peak_rss_mib` stays per workload).

use mediation_bench::run::{self, end_to_end_schema, per_layer_schema, Report};
use mediation_bench::workload::Workload;
use std::process::ExitCode;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if workload.is_none() && !all {
        return Err("--workload is required".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive integer")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs every workload in its own child process, forwarding its output.
fn run_all(args: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let mut failed = false;
    for workload in Workload::ALL {
        let mut child_args = args.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "all") {
            child_args[i] = workload.name().to_owned();
        }
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(_) | Err(_) => failed = true,
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn json(report: &Report, correct: bool) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted(),
        report.tally.failed(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mediation-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&raw);
    };
    let result = if args.trace {
        run::traced(workload, args.seed, args.seconds)
    } else {
        run::untraced(workload, args.seed, args.seconds)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("mediation-bench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    let schema = if args.trace {
        per_layer_schema()
    } else {
        end_to_end_schema()
    };
    let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    let expected: Vec<&str> = schema.iter().map(|(n, _, _)| n.as_str()).collect();
    let mut sorted = (names.clone(), expected.clone());
    sorted.0.sort_unstable();
    sorted.1.sort_unstable();
    if sorted.0 != sorted.1 {
        eprintln!(
            "mediation-bench: reported metrics {names:?} differ from the schema {expected:?}"
        );
        return ExitCode::FAILURE;
    }
    print!("{}", report.text);
    for (name, value, unit) in &report.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    let failed = report.tally.failed();
    let failed_ratio = failed as f64 / report.tally.attempted().max(1) as f64;
    println!("{:<44} {failed_ratio:>16.4} ratio", "failed_ratio");
    if let Some(first) = report.tally.first_failure() {
        println!("first failure: {first}");
    }
    println!("{}", json(&report, failed == 0));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
