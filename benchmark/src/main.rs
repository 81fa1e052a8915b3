//! `dlr-benchmark`: the repo's benchmark. One run is one workload at one
//! seed; it checks the outputs it measures and prints every metric as
//! `name value unit`, then one JSON object on the last line.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload serve-rerank --seed 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --all --trace
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload score-hybrid --repeat 5
//! ```

#![forbid(unsafe_code)]

mod layers;
mod load;
mod models;
mod schedule;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::{Config, Report, Workload};

const USAGE: &str = "usage: dlr-benchmark (--workload <name> | --all) [--seed N] [--seconds S] \
[--trace [0|1]] [--repeat N] [--check] | --emit-spec";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    check: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        check: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--emit-spec" => return Ok(None),
            "--all" => args.workloads = Workload::ALL.to_vec(),
            "--check" => args.check = true,
            "--workload" => {
                let name = value("a workload name")?;
                let workload = Workload::parse(&name).ok_or(format!("no workload {name}"))?;
                args.workloads = vec![workload];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("name a workload or pass --all".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) || args.repeat == 0 {
        return Err("--seconds is in (0, 60] and --repeat at least 1".into());
    }
    Ok(Some(args))
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken, as a JSON object.
fn meta_json(workload: Workload, args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"check\":{},\"commit\":\"{}\",\"nproc\":{},\"isa_detected\":\"{}\",\"isa_active\":\"{}\",\"rustc\":\"{}\"}}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        args.check,
        command_line("git", &["rev-parse", "HEAD"]),
        nproc,
        dlr_simd::detect_best(),
        dlr_simd::active(),
        command_line("rustc", &["-V"]),
    )
}

/// The contract's result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                spec::unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.violations.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    )
}

/// Run one workload in this process and print what it found; the last line
/// is the contract's JSON object.
fn run_once(workload: Workload, args: &Args) -> bool {
    let cfg = Config {
        workload,
        seed: args.seed,
        // A smoke run is a fiftieth of the length.
        seconds: if args.check {
            args.seconds / 50.0
        } else {
            args.seconds
        },
        trace: args.trace,
        check: args.check,
    };
    let report = workloads::run(&cfg);
    let meta = meta_json(workload, args);
    println!("meta {meta}");
    for (name, value, unit) in &report.info {
        println!("info {name} {value} {unit}");
    }
    for (name, value) in &report.metrics {
        println!("{name} {value} {}", spec::unit_of(name));
    }
    println!("ops_attempted {} count", report.attempted);
    println!("ops_failed {} count", report.failed);
    for violation in &report.violations {
        println!("violation {violation}");
    }
    if let Some(tracer) = &report.tracer {
        // Beside the sources whatever the current directory, where the root
        // `.gitignore` expects it.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.trace.json", workload.name()));
        match trace::write_trace_file(&path, &meta, &tracer.spans(), tracer.dropped()) {
            Ok(()) => println!("info trace_file {} path", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&report));
    report.violations.is_empty()
}

/// Run one workload in a process of its own, pass its output through, and
/// return its end-to-end metrics and whether it exited clean. `--all` and
/// `--repeat` go this way so that every run starts from a fresh allocator
/// and reads its own `VmHWM`.
fn run_in_child(workload: Workload, args: &Args) -> (Vec<(&'static str, f64)>, bool) {
    let exe = std::env::current_exe().expect("the running program has a path");
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.check {
        command.arg("--check");
    }
    let output = command.output().expect("the benchmark can start itself");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let metrics = stdout
        .lines()
        .filter_map(|line| {
            let (name, rest) = line.split_once(' ')?;
            let spec = spec::END_TO_END.iter().find(|m| m.name == name)?;
            Some((spec.name, rest.split(' ').next()?.parse().ok()?))
        })
        .collect();
    (metrics, output.status.success())
}

/// `--repeat N`: median, quartiles and range of every end-to-end metric over
/// N runs of one seed, beside the metric's bound, as a Markdown table.
fn print_repeat_table(workload: Workload, runs: &[Vec<(&'static str, f64)>]) {
    println!();
    println!("| workload | metric | median | q1 | q3 | (max-min)/median | bound |");
    println!("|---|---|---|---|---|---|---|");
    for spec in &spec::END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .flatten()
            .filter(|(name, _)| *name == spec.name)
            .map(|&(_, value)| value)
            .collect();
        if values.len() < 2 {
            continue;
        }
        let [q1, med, q3] = stats::quartiles(&values);
        let (min, max) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        println!(
            "| {} | {} | {med:.4} | {q1:.4} | {q3:.4} | {:.4} | {} |",
            workload.name(),
            spec.name,
            (max - min) / med,
            spec.bound
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    if let ([workload], 1) = (&args.workloads[..], args.repeat) {
        correct = run_once(*workload, &args);
    } else {
        for &workload in &args.workloads {
            let (runs, clean): (Vec<_>, Vec<bool>) = (0..args.repeat)
                .map(|_| run_in_child(workload, &args))
                .unzip();
            correct &= clean.iter().all(|&ok| ok);
            // Training is bit-deterministic: one seed, one ratio.
            let ratios: Vec<u64> = runs
                .iter()
                .flatten()
                .filter(|(name, _)| *name == "ndcg10_ratio")
                .map(|(_, value)| value.to_bits())
                .collect();
            if ratios.windows(2).any(|w| w[0] != w[1]) {
                println!(
                    "violation ndcg10_ratio differs between runs of seed {}",
                    args.seed
                );
                correct = false;
            }
            if args.repeat > 1 && !args.trace {
                print_repeat_table(workload, &runs);
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool) -> Report {
        workloads::run(&Config {
            workload,
            seed: 3,
            seconds: spec::RUN_SECONDS as f64 / 50.0,
            trace,
            check: true,
        })
    }

    /// Every workload at a fiftieth of its length and smoke sizes, all
    /// output checks on, printing exactly the metrics `BENCHMARK.json` names.
    #[test]
    fn check_run_of_every_workload_passes_its_output_checks() {
        for workload in Workload::ALL {
            let report = smoke(workload, false);
            assert_eq!(
                report.violations,
                Vec::<String>::new(),
                "{}",
                workload.name()
            );
            assert_eq!(report.failed, 0);
            assert!(report.attempted > 0);
            let names: Vec<&str> = report.metrics.keys().copied().collect();
            let mut wanted: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
            wanted.sort_unstable();
            assert_eq!(names, wanted, "{}", workload.name());
            for (name, value) in &report.metrics {
                assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
            }
            assert!(result_json(&report).starts_with("{\"correct\":true,\"attempted\":"));
        }
    }

    #[test]
    fn traced_check_run_reports_every_per_layer_metric_and_its_spans() {
        for workload in Workload::ALL {
            let report = smoke(workload, true);
            assert_eq!(
                report.violations,
                Vec::<String>::new(),
                "{}",
                workload.name()
            );
            let names: Vec<&str> = report.metrics.keys().copied().collect();
            let mut wanted: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
            wanted.sort_unstable();
            assert_eq!(names, wanted, "{}", workload.name());
            assert!(report.metrics.values().all(|v| v.is_finite()));
            assert!(report.metrics["gbdt.train_s"] > 0.0);
            let tracer = report.tracer.expect("a traced run keeps its spans");
            assert!(!tracer.spans().is_empty(), "{}", workload.name());
        }
    }

    /// Training is bit-deterministic: one seed gives one `ndcg10_ratio`.
    #[test]
    fn one_seed_gives_one_ndcg10_ratio() {
        let a = smoke(Workload::TrainDistill, false).metrics["ndcg10_ratio"];
        let b = smoke(Workload::TrainDistill, false).metrics["ndcg10_ratio"];
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
