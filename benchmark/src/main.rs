//! The repository's yardstick benchmark. See `README.md` beside this
//! crate for what is measured and why; run from the repository root.
//!
//! ```text
//! esp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--strict]
//!     one workload in this process; the last line of standard output is
//!     {"correct":…,"attempted":…,"failed":…,"metrics":{…}}; with --strict
//!     doubtful timings (an invalid paced pass that repeating did not
//!     cure, CPU shares in the wrong order) fail the run as wrong outputs
//!     always do; the two modes below run their children with it
//! esp-benchmark --seed <n> [--seconds <s>] [--trace]
//!     every workload, each in a fresh child process
//! esp-benchmark --self-check [--seed <n>] [--seconds <s>]
//!     the full set twice in alternating order; exits non-zero when an
//!     end-to-end metric differs between the two by more than its bound
//! ```

mod drive;
mod layers;
mod metrics;
mod procfs;
mod reference;
mod run;
mod sched;
mod script;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value as Json;

use drive::Res;
use workloads::Spec;

/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is absent.
const DEFAULT_SECONDS: u64 = 24;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    strict: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        strict: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            "--trace" => {
                args.traced = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--strict" => args.strict = true,
            "--self-check" => args.self_check = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The result line of a single-workload run.
fn result_line(outcome: &run::Outcome, traced: bool) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics::to_json(metrics::reported(traced), &outcome.values)?
    ))
}

fn run_one(spec: &Spec, args: &Args) -> Res<ExitCode> {
    let outcome = run::run(spec, args.seed, args.seconds, args.traced, args.strict)?;
    println!("{}", result_line(&outcome, args.traced)?);
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run `spec` in a child process (so peak RSS and the process-global
/// metrics registry never leak between workloads) and parse its result
/// line.
fn run_child(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Res<Json> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--strict")
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let doc: Json = serde_json::from_str(last).map_err(|e| {
        format!(
            "{}: no result line ({e}); exit status {}",
            spec.name, output.status
        )
    })?;
    if !output.status.success() {
        return Err(format!("{}: checks failed, see above", spec.name).into());
    }
    Ok(doc)
}

fn metric(doc: &Json, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Every workload once, in `order`; returns each one's result document.
fn run_set(order: &[Spec], args: &Args) -> Res<Vec<(Spec, Json)>> {
    order
        .iter()
        .map(|spec| {
            Ok((
                *spec,
                run_child(spec, args.seed, args.seconds, args.traced)?,
            ))
        })
        .collect()
}

fn run_all(args: &Args) -> Res<ExitCode> {
    let results = run_set(&workloads::ALL, args)?;
    println!(
        "\n{:<40} {}",
        "metric",
        workloads::ALL.map(|s| format!("{:>16}", s.name)).join(" ")
    );
    for (name, unit) in metrics::reported(args.traced) {
        let row: Vec<String> = results
            .iter()
            .map(|(_, d)| format!("{:>16.4}", metric(d, name)))
            .collect();
        println!("{:<40} {}  {unit}", name, row.join(" "));
    }
    // The same table, machine-readable.
    let body: Vec<String> = results
        .iter()
        .map(|(s, d)| Ok(format!("\"{}\": {}", s.name, serde_json::to_string(d)?)))
        .collect::<Res<_>>()?;
    let path = Path::new(run::OUT_DIR).join("result.json");
    std::fs::create_dir_all(run::OUT_DIR)?;
    std::fs::write(
        &path,
        format!(
            "{{\"seed\": {}, \"seconds\": {}, \"traced\": {}, \"workloads\": {{{}}}}}\n",
            args.seed,
            args.seconds,
            args.traced,
            body.join(", ")
        ),
    )?;
    println!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

/// Two full sets in alternating workload order; every end-to-end metric
/// must agree between them within the bound `BENCHMARK.json` fixes for it.
fn self_check(args: &Args) -> Res<ExitCode> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let contract: Json = serde_json::from_str(&text)?;
    let bounds = contract
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut reversed = workloads::ALL;
    reversed.reverse();
    let first = run_set(&workloads::ALL, args)?;
    let second = run_set(&reversed, args)?;
    let mut misses = 0;
    println!(
        "\n{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (spec, a) in &first {
        let b = &second
            .iter()
            .find(|(s, _)| s.name == spec.name)
            .ok_or("workload missing")?
            .1;
        for m in bounds {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            let (name, bound) = (
                field("name"),
                m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
            );
            let (x, y) = (metric(a, name), metric(b, name));
            // How much worse the worse of the two is, as a share of the
            // better one.
            let (better, worse) = if (field("better") == "higher") == (x >= y) {
                (x, y)
            } else {
                (y, x)
            };
            let diff = (worse - better).abs() / better.abs();
            let miss = diff.is_nan() || diff > bound;
            misses += usize::from(miss);
            println!(
                "{:<16} {:<24} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}%{}",
                spec.name,
                name,
                diff * 100.0,
                bound * 100.0,
                if miss { "  MISS" } else { "" }
            );
        }
    }
    println!("self-check: {misses} miss(es)");
    Ok(if misses == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("esp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        _ if args.self_check => self_check(&args),
        Some(name) => match workloads::by_name(name) {
            Some(spec) => run_one(&spec, &args),
            None => Err(format!("unknown workload '{name}'").into()),
        },
        None => run_all(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("esp-benchmark: {e}");
        ExitCode::FAILURE
    })
}
