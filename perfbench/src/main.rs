//! Command line of the ZKDET benchmark.
//!
//! ```text
//! zkdet-perfbench --workload <publish|sale|market|audit> --seed <n> --seconds <s> --trace <0|1>
//! zkdet-perfbench compare <old.json> <new.json>
//! ```
//!
//! A run prints the workload's one-screen summary, writes its result file
//! to `perfbench/results/`, and ends its standard output with one JSON
//! line: `correct`, `attempted`, `failed` and `metrics`. It exits 1 when
//! any output check failed. `compare` refuses (exit 2) two results whose
//! hardware, build or seed stamps differ.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use zkdet_perfbench::report::{compare, RunResult};
use zkdet_perfbench::spec::Workload;
use zkdet_telemetry::Value;

/// Where result files go, relative to the repository root.
const RESULTS_DIR: &str = "perfbench/results";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn read_result(path: &str) -> Result<RunResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value =
        Value::parse(&text).map_err(|e| format!("{path}: bad JSON at byte {}", e.offset))?;
    RunResult::from_json(&value).ok_or_else(|| format!("{path}: not a perfbench result"))
}

/// Regression bound of an end-to-end metric, from `BENCHMARK.json`.
fn bound_of(benchmark: &Option<Value>, name: &str) -> Option<f64> {
    benchmark
        .as_ref()?
        .get("end_to_end")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|m| match m.get("bound")? {
            Value::Float(f) => Some(*f),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        })
}

fn run_compare(old: &str, new: &str) -> ExitCode {
    let (old, new) = match (read_result(old), read_result(new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let benchmark = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| Value::parse(&t).ok());
    match compare(&old, &new, |name| bound_of(&benchmark, name)) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(diffs) => {
            eprintln!("compare: refusing to compare results with different stamps:");
            for d in diffs {
                eprintln!("  {d}");
            }
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, old, new] => run_compare(old, new),
            _ => {
                eprintln!("usage: zkdet-perfbench compare <old.json> <new.json>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zkdet-perfbench: {e}");
            eprintln!("usage: zkdet-perfbench --workload <publish|sale|market|audit> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let result = match zkdet_perfbench::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("zkdet-perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!("op_s = {}", args.workload.op_description());
    print!("{}", result.summary());
    let file = format!(
        "{RESULTS_DIR}/{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    match std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|()| std::fs::write(&file, result.to_json().encode_pretty()))
    {
        Ok(()) => println!("wrote {file}"),
        Err(e) => eprintln!("could not write {file}: {e}"),
    }
    println!("{}", result.contract_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
