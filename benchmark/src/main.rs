//! Command line of the benchmark. `run.sh` builds and calls this.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use arm2gc_benchmark::compare::{compare, spread};
use arm2gc_benchmark::json::{self, Value};
use arm2gc_benchmark::report::{format_value, END_TO_END};
use arm2gc_benchmark::run::{run, Config};
use arm2gc_benchmark::sys;
use arm2gc_benchmark::workloads::Workload;
use arm2gc_benchmark::DEFAULT_SECONDS;

const USAGE: &str = "\
usage: run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1|both]
              [--quick] [--out FILE] [--break-expected]
       run.sh compare A.json B.json
       run.sh spread RESULT.json RESULT.json ...

Without --workload every workload runs, each in a child process of its
own, and the result file is written to --out (default
benchmark/out/result.json). --trace 1 makes the traced run that yields
the per-crate metrics and trace.json; --trace both (all workloads only)
makes the untraced run and then the traced one. --quick runs one
measured session per workload; its numbers are not comparable.
--break-expected corrupts every expected output, to show that a wrong
result makes the command fail.";

/// Which passes a command makes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Passes {
    Untraced,
    Traced,
    Both,
}

struct Args {
    workload: Option<Workload>,
    passes: Passes,
    out: PathBuf,
    cfg: Config,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        passes: Passes::Untraced,
        out: PathBuf::from("benchmark/out/result.json"),
        cfg: Config {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            break_expected: false,
            trace_out: None,
        },
    };
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.map(Workload::name).to_vec();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => args.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.cfg.seconds > 0.0 && args.cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.passes = match value()?.as_str() {
                    "0" => Passes::Untraced,
                    "1" => Passes::Traced,
                    "both" => Passes::Both,
                    other => return Err(format!("--trace: expected 0, 1 or both, got {other:?}")),
                }
            }
            "--quick" => args.cfg.quick = true,
            "--break-expected" => args.cfg.break_expected = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.workload.is_some() && args.passes == Passes::Both {
        return Err("--trace both needs every workload; drop --workload".to_string());
    }
    Ok(args)
}

/// Runs one workload in this process: the text report, then the result
/// object as the last line of stdout.
fn run_one(workload: Workload, mut cfg: Config, traced: bool) -> ExitCode {
    cfg.trace = traced;
    if traced {
        cfg.trace_out = Some(PathBuf::from(format!(
            "benchmark/out/trace-{}.json",
            workload.name()
        )));
    }
    let result = run(workload, &cfg);
    print!("{}", result.to_text());
    if result.metrics.is_empty() {
        // Nothing verified, so nothing was measured: no result line.
        return ExitCode::FAILURE;
    }
    println!("{}", result.to_json().to_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process of its own and returns the
/// result object it printed last.
fn run_child(workload: Workload, args: &Args, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.cfg.seed.to_string()])
        .args(["--seconds", &args.cfg.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.cfg.quick {
        cmd.arg("--quick");
    }
    if args.cfg.break_expected {
        cmd.arg("--break-expected");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    let result =
        json::parse(last).map_err(|e| format!("{}: no result line ({e})", workload.name()))?;
    if !output.status.success() {
        println!(
            "  FAILED: {} exited with {}",
            workload.name(),
            output.status
        );
    }
    Ok(result)
}

/// Runs every workload, prints the summary, writes the result file.
fn run_all(args: &Args) -> ExitCode {
    let meta = sys::metadata(args.cfg.seed, args.cfg.seconds, args.cfg.quick);
    println!("{}", meta.to_pretty());
    let mut ok = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut entry: Vec<(String, Value)> = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let passes: &[bool] = match args.passes {
            Passes::Untraced => &[false],
            Passes::Traced => &[true],
            Passes::Both => &[false, true],
        };
        for &traced in passes {
            match run_child(workload, args, traced) {
                Ok(result) => {
                    ok &= result.get("correct") == Some(&Value::Bool(true));
                    attempted += result
                        .get("attempted")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0);
                    failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
                    let key = if traced { "per_layer" } else { "end_to_end" };
                    entry.push((
                        key.to_string(),
                        result.get("metrics").cloned().unwrap_or(Value::Null),
                    ));
                }
                Err(e) => {
                    ok = false;
                    println!("  FAILED: {e}");
                }
            }
        }
        entry.insert(0, ("why".to_string(), Value::str(workload.why())));
        entry.insert(1, ("attempted".to_string(), Value::Num(attempted)));
        entry.insert(2, ("failed".to_string(), Value::Num(failed)));
        workloads.push((workload.name().to_string(), Value::Obj(entry)));
    }
    let doc = Value::obj([("meta", meta), ("workloads", Value::Obj(workloads))]);

    if args.passes != Passes::Traced {
        println!("end-to-end summary (median per workload):");
        print!("{:<18}", "workload");
        for m in END_TO_END {
            print!(" {:>22}", format!("{} [{}]", m.name, m.unit));
        }
        println!();
        for (name, entry) in doc.get("workloads").map(Value::members).unwrap_or_default() {
            print!("{name:<18}");
            for m in END_TO_END {
                let v = entry
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name)?.get("value")?.as_f64());
                print!(" {:>22}", v.map_or("-".to_string(), format_value));
            }
            println!();
        }
    }
    if let Some(dir) = args.out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&args.out, doc.to_pretty()) {
        Ok(()) => println!("result written to {}", args.out.display()),
        Err(e) => {
            ok = false;
            println!("could not write {}: {e}", args.out.display());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one workload failed or decoded a wrong output");
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("compare") => match &raw[1..] {
            [a, b] => load(a).and_then(|a| Ok((a, load(b)?))).map(|(a, b)| {
                // The same-code spread recorded when the bounds were fixed.
                let recorded = load("benchmark/spread.json").ok();
                let (table, ok) = compare(&a, &b, recorded.as_ref());
                print!("{table}");
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err(USAGE.to_string()),
        },
        Some("spread") => raw[1..]
            .iter()
            .map(|p| load(p))
            .collect::<Result<Vec<_>, _>>()
            .map(|results| {
                print!("{}", spread(&results).to_pretty());
                ExitCode::SUCCESS
            }),
        _ => parse_args(&raw).map(|args| match args.workload {
            Some(workload) => run_one(workload, args.cfg.clone(), args.passes == Passes::Traced),
            None => run_all(&args),
        }),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
