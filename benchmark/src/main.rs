//! `twoclock` — the repository's benchmark.
//!
//! A deterministic simulator has two clocks. *Virtual time* is the
//! paper's result and repeats exactly; *host time* is what the simulator
//! costs and does not. This program measures both for four workloads, end
//! to end and per layer, and checks every byte it reads against an oracle.
//! See `README.md` beside this package for every name it prints.
//!
//! ```text
//! twoclock --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! twoclock all --out FILE [--seed N] [--seconds S] [--trace 0|1]
//! twoclock compare A.json B.json
//! twoclock --check
//! twoclock benchmark-json
//! ```

mod alloc;
mod catalog;
mod child;
mod compare;
mod counts;
mod gen;
mod host;
mod json;
mod layers;
mod parent;
mod probe;
mod span;
mod stats;
mod workloads;
mod world;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use child::{RepMode, RepRequest};
use json::Json;
use parent::{Outcome, RunRequest, EXIT_OPS_FAILED};
use workloads::{Scale, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The seed the README's anchor values were taken with.
const DEFAULT_SEED: u64 = 0x1991;

const USAGE: &str = "usage:
  twoclock --workload <seq_read|seq_write|small_ops|raid_streams>
           [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  twoclock all --out FILE [--seed N] [--seconds S] [--trace 0|1]
  twoclock compare A.json B.json
  twoclock --check
  twoclock benchmark-json";

#[derive(Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<String>,
    seconds: Option<String>,
    trace: Option<String>,
    out: Option<PathBuf>,
    scale: Option<String>,
    rep: Option<String>,
    trace_file: Option<PathBuf>,
    corrupt: bool,
    check: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = Some(value("--seed")?),
            "--seconds" => args.seconds = Some(value("--seconds")?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--out" => args.out = Some(value("--out")?.into()),
            "--scale" => args.scale = Some(value("--scale")?),
            "--rep" => args.rep = Some(value("--rep")?),
            "--trace-file" => args.trace_file = Some(value("--trace-file")?.into()),
            "--corrupt" => args.corrupt = true,
            "--check" => args.check = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("--seed {s}: not a number"))
}

impl Args {
    fn workload(&self) -> Result<Workload, String> {
        let name = self.workload.as_deref().ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))
    }

    fn seed(&self) -> Result<u64, String> {
        self.seed.as_deref().map_or(Ok(DEFAULT_SEED), parse_seed)
    }

    fn scale(&self) -> Result<Scale, String> {
        match self.scale.as_deref() {
            None | Some("full") => Ok(Scale::full()),
            Some("smoke") => Ok(Scale::smoke()),
            Some(other) => Err(format!("--scale {other}: full or smoke")),
        }
    }

    fn run_request(&self, workload: Workload) -> Result<RunRequest, String> {
        let seconds = match self.seconds.as_deref() {
            None => f64::from(catalog::RUN_SECONDS),
            Some(s) => s
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("--seconds {s}: not a duration"))?,
        };
        let trace = match self.trace.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace {other}: 0 or 1")),
        };
        Ok(RunRequest {
            workload,
            seed: self.seed()?,
            seconds,
            trace,
            scale: self.scale()?,
            corrupt: self.corrupt,
        })
    }
}

fn result_file(outcomes: &[Outcome]) -> Json {
    Json::obj([
        ("schema", Json::Str("twoclock/1".to_string())),
        (
            "workloads",
            Json::obj(outcomes.iter().map(|o| (o.workload.name(), o.to_json()))),
        ),
    ])
}

fn write_out(path: &PathBuf, outcomes: &[Outcome]) -> Result<(), String> {
    std::fs::write(path, result_file(outcomes).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs workloads in turn. The last line printed is the last workload's
/// result line; the exit status says whether every op of every one passed.
fn run_workloads(args: &Args, workloads: &[Workload]) -> Result<ExitCode, String> {
    let mut outcomes = Vec::new();
    for &w in workloads {
        let outcome = parent::run(&args.run_request(w)?)?;
        print!("{}", outcome.report);
        println!("{}", outcome.result_line());
        outcomes.push(outcome);
    }
    if let Some(path) = &args.out {
        write_out(path, &outcomes)?;
    }
    Ok(if outcomes.iter().all(|o| o.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_child(args: &Args, mode: &str) -> Result<ExitCode, String> {
    let mode = RepMode::parse(mode).ok_or_else(|| format!("--rep {mode}: unknown mode"))?;
    let result = child::run(&RepRequest {
        mode,
        workload: args.workload()?,
        seed: args.seed()?,
        scale: args.scale()?,
        corrupt: args.corrupt,
        trace_file: args.trace_file.clone(),
    })?;
    println!("{}", result.render());
    let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    Ok(if failed > 0.0 {
        ExitCode::from(EXIT_OPS_FAILED)
    } else {
        ExitCode::SUCCESS
    })
}

fn run_compare(files: &[String]) -> Result<ExitCode, String> {
    let [a, b] = files else {
        return Err("compare takes two result files".to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let c = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", c.table);
    println!("{} metric(s) differ", c.differing);
    Ok(if c.differing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--check`: the benchmark checks itself, at smoke sizes.
///
/// - each workload twice with one seed: same digest, same exact metrics;
/// - once with another seed: still no failed op, and the workloads whose
///   virtual time depends on the seed show another digest;
/// - with one expected byte corrupted: failed ops, and a failing status.
fn run_check() -> Result<ExitCode, String> {
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        let request = |seed: u64, corrupt: bool| RunRequest {
            workload,
            seed,
            seconds: 0.0,
            trace: false,
            scale: Scale::smoke(),
            corrupt,
        };
        let rep = |seed, corrupt| parent::spawn_rep(&request(seed, corrupt), RepMode::Count, None);
        let (first, again, other) = (rep(7, false)?, rep(7, false)?, rep(8, false)?);
        let digest = |r: &Json| r.get("digest").and_then(Json::as_str).map(str::to_string);
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64);
        let mut expect = |ok: bool, what: &str| {
            println!(
                "{:<13} {:<58} {}",
                workload.name(),
                what,
                if ok { "ok" } else { "FAILED" }
            );
            if !ok {
                problems.push(format!("{}: {what}", workload.name()));
            }
        };
        expect(
            digest(&first).is_some() && digest(&first) == digest(&again),
            "same seed: same sim_digest",
        );
        expect(
            first.get("exact") == again.get("exact"),
            "same seed: exact metrics equal",
        );
        let alloc_mb = |r: &Json| {
            r.get("alloc")
                .and_then(|a| a.get("mb"))
                .and_then(Json::as_f64)
        };
        expect(
            matches!((alloc_mb(&first), alloc_mb(&again)), (Some(a), Some(b)) if (a - b).abs() <= 1e-4 * a),
            "same seed: allocated MB equal to 1 part in 10,000",
        );
        expect(
            failed(&first) == Some(0.0) && failed(&other) == Some(0.0),
            "no failed op on either seed",
        );
        if matches!(workload, Workload::SmallOps | Workload::RaidStreams) {
            expect(
                digest(&first) != digest(&other),
                "another seed: another sim_digest",
            );
        }
        let corrupted = rep(7, true)?;
        expect(
            failed(&corrupted).is_some_and(|f| f > 0.0),
            "one corrupted expected byte: failed ops are counted",
        );
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = std::process::Command::new(exe)
            .args([
                "--workload",
                workload.name(),
                "--scale",
                "smoke",
                "--seconds",
                "0",
                "--corrupt",
            ])
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| e.to_string())?;
        expect(
            !status.success(),
            "one corrupted expected byte: the command fails",
        );
    }
    println!("{} problem(s)", problems.len());
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    if let Some(mode) = &args.rep {
        return run_child(args, mode);
    }
    if args.check {
        return run_check();
    }
    match args.positional.split_first() {
        None => run_workloads(args, &[args.workload()?]),
        Some((cmd, rest)) => match (cmd.as_str(), rest) {
            ("compare", files) => run_compare(files),
            ("all", []) if args.out.is_some() => run_workloads(args, &Workload::ALL),
            ("all", []) => Err("all needs --out FILE".to_string()),
            ("benchmark-json", []) => {
                println!("{}", pretty(&catalog::benchmark_json()));
                Ok(ExitCode::SUCCESS)
            }
            _ => Err(format!("unknown command {cmd}")),
        },
    }
}

/// `BENCHMARK.json` with one entry per line, so it diffs well.
fn pretty(doc: &Json) -> String {
    let Json::Obj(map) = doc else {
        return doc.render();
    };
    let entries: BTreeMap<&String, String> = map
        .iter()
        .map(|(k, v)| {
            let text = match v {
                Json::Arr(items) if items.iter().all(|i| matches!(i, Json::Obj(_))) => {
                    let rows: Vec<String> = items
                        .iter()
                        .map(|i| format!("    {}", i.render()))
                        .collect();
                    format!("[\n{}\n  ]", rows.join(",\n"))
                }
                other => other.render(),
            };
            (k, text)
        })
        .collect();
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|args| dispatch(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("twoclock: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
